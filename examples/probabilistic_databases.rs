//! Probabilistic query evaluation (Section 4.3, Theorem 4.10).
//!
//! ```sh
//! cargo run --example probabilistic_databases
//! ```
//!
//! Tuple-independent probabilistic databases: lifted inference evaluates
//! hierarchical CQ¬s in polynomial time, and deterministic relations
//! extend the tractable class to every query without a
//! non-hierarchical path — by the very same `ExoShap` rewriting used
//! for Shapley values. A `ShapleySession` picks the route from its one
//! routing plan and answers in exact rationals.

use cqshap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The running example with registration/TA facts made uncertain.
    let db = cqshap::workloads::figure_1_database();
    let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)")?;
    let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto())?;
    let reg = db
        .find_fact("Reg", &["Caroline", "DB"])
        .expect("fact exists");
    session.set_probability(reg, BigRational::from_i64_ratio(9, 10))?;
    let ta = db.find_fact("TA", &["Adam"]).expect("fact exists");
    session.set_probability(ta, BigRational::from_i64_ratio(4, 5))?;

    let lifted = session.probability()?;
    let enumerated =
        probability_by_enumeration(&db, AnyQuery::Cq(&q1), session.probabilities(), None, 20)?;
    println!("== Hierarchical lifted inference ==");
    println!(
        "  Pr[D ⊨ q1] = {lifted} ≈ {:.6} ({:?}) vs {enumerated} (2^|Dn| enumeration)",
        lifted.to_f64(),
        session.strategy().expect("a Boolean session has a plan"),
    );
    assert_eq!(lifted, enumerated);

    // Example 4.1's non-hierarchical query with deterministic Pub and
    // Citations (Theorem 4.10).
    let adb = cqshap::workloads::academic::AcademicConfig {
        authors: 8,
        seed: 5,
        ..Default::default()
    }
    .generate();
    let q = cqshap::workloads::academic::citations_query();
    let p = BigRational::from_i64_ratio(2, 5);
    let mut session = ShapleySession::prepare(&adb, AnyQuery::Cq(&q), &ShapleyOptions::auto())?;
    session.set_default_probability(p.clone())?;
    println!("\n== Theorem 4.10: deterministic relations ==");
    println!("  query: {q}");
    println!("  hierarchical: {}", is_hierarchical(&q));
    println!(
        "  route: {:?}",
        session.strategy().expect("a Boolean session has a plan")
    );
    let rewritten = session.probability()?;
    let truth =
        probability_by_enumeration(&adb, AnyQuery::Cq(&q), session.probabilities(), None, 20)?;
    println!(
        "  after ExoShap rewriting: Pr = {:.6}, enumeration: {:.6}",
        rewritten.to_f64(),
        truth.to_f64()
    );
    assert_eq!(rewritten, truth);

    // Scaling: lifted inference stays fast as authors grow; enumeration
    // would need 2^|authors| worlds.
    println!("\n== Scaling (lifted inference, deterministic Pub/Citations) ==");
    let options = ShapleyOptions::auto().tuple_budget(10_000_000);
    for authors in [10usize, 100, 1000] {
        let big = cqshap::workloads::academic::AcademicConfig {
            authors,
            seed: 5,
            ..Default::default()
        }
        .generate();
        let t0 = cqshap::prelude::Stopwatch::start();
        let mut session = ShapleySession::prepare(&big, AnyQuery::Cq(&q), &options)?;
        session.set_default_probability(p.clone())?;
        let pr = session.probability()?;
        println!(
            "  {authors:>5} authors: Pr ≈ {:.6}  ({:?})",
            pr.to_f64(),
            t0.elapsed()
        );
    }
    println!("\nlifted inference matches world enumeration everywhere ✓");
    Ok(())
}
