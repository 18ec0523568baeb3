//! Exogenous relations make hard queries tractable (Section 4).
//!
//! ```sh
//! cargo run --example exogenous_rewriting
//! ```
//!
//! Example 4.1's citation query is FP#P-complete in general, but becomes
//! polynomial once `Pub` and `Citations` are declared exogenous: the
//! `ExoShap` rewriting (Algorithm 1) turns it into a hierarchical query.
//! The same applies to q2 of the running example. This example prints
//! the rewriting trace (mirroring Figure 3) and cross-checks the values
//! against brute force.

use cqshap::prelude::*;
use std::collections::HashSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Example 4.1: researcher contribution to citations ----
    let db = cqshap::workloads::academic::AcademicConfig {
        authors: 6,
        pubs_per_author: 2,
        cited_fraction: 0.7,
        seed: 42,
        ..Default::default()
    }
    .generate();
    let q = cqshap::workloads::academic::citations_query();

    // Sorted names, so the printed set is the same on every run.
    let names = db.exogenous_relation_names();
    let exo: HashSet<String> = names.iter().cloned().collect();
    println!("query: {q}");
    println!("  without exogenous knowledge: {}", classify(&q));
    println!(
        "  with X = {{{}}}: {}",
        names.join(", "),
        classify_with_exo(&q, &exo)
    );

    let outcome = rewrite(&db, &q, 1_000_000)?;
    println!("\n== ExoShap rewriting trace (cf. Figure 3) ==");
    for stage in &outcome.stages {
        println!("  {stage}");
    }
    assert!(is_hierarchical(&outcome.query));

    let opts = ShapleyOptions::with_strategy(Strategy::ExoShap);
    let report = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &opts)?.report()?;
    println!("\n== Shapley values via ExoShap ==");
    for entry in &report.entries {
        println!("  {:<28} {}", entry.rendered, entry.value);
    }
    assert!(report.efficiency_holds());

    // Cross-check against brute force (small |Dn| makes this feasible).
    let bf = ShapleySession::prepare(
        &db,
        AnyQuery::Cq(&q),
        &ShapleyOptions::with_strategy(Strategy::BruteForceSubsets),
    )?;
    for entry in &report.entries {
        let v = bf.value(entry.fact)?;
        assert_eq!(v, entry.value, "{}", entry.rendered);
    }
    println!("\nall values match the brute-force oracle ✓");

    // ---- q2 of the running example, with Stud/Course exogenous ----
    let mut uni = cqshap::workloads::figure_1_database();
    for name in ["Stud", "Course", "Adv"] {
        let rel = uni.schema().id(name).expect("relation exists");
        uni.declare_exogenous_relation(rel)?;
    }
    let q2 = parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')")?;
    let exo2: HashSet<String> = uni.exogenous_relation_names().into_iter().collect();
    println!("\nquery: {q2}");
    println!("  Thm 3.1 verdict: {}", classify(&q2));
    println!(
        "  Thm 4.3 verdict with X = {{Stud, Course, Adv}}: {}",
        classify_with_exo(&q2, &exo2)
    );
    let report2 = ShapleySession::prepare(&uni, AnyQuery::Cq(&q2), &opts)?.report()?;
    println!("\n== Shapley values for q2 (polynomial, via ExoShap) ==");
    for entry in &report2.entries {
        println!("  {:<24} {}", entry.rendered, entry.value);
    }
    assert!(report2.efficiency_holds());
    Ok(())
}
