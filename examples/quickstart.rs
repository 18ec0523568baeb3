//! Quickstart: exact Shapley values on the paper's running example.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Builds Figure 1's university database, classifies the queries of
//! Example 2.2 under the dichotomy of Theorem 3.1, and reproduces the
//! exact Shapley values of Example 2.3.

use cqshap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The database of Figure 1: Stud/Course/Adv are context (exogenous),
    // TA and Reg memberships are the facts whose contribution we probe.
    let db = cqshap::workloads::figure_1_database();
    println!(
        "Database ({} facts, |Dn| = {}):",
        db.fact_count(),
        db.endo_count()
    );
    print!("{db}");

    // Classify the four queries of Example 2.2.
    println!("\n== Dichotomy classification (Theorem 3.1) ==");
    for text in [
        "q1() :- Stud(x), !TA(x), Reg(x, y)",
        "q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')",
        "q3() :- Adv(x, y), Adv(x, z), !TA(y), !TA(z), Reg(y, 'IC'), Reg(z, 'DB')",
        "q4() :- Adv(x, y), Adv(x, z), TA(y), !TA(z), Reg(z, w), !Reg(y, w)",
    ] {
        let q = parse_cq(text)?;
        println!("  {:<72} → {}", q.to_string(), classify(&q));
    }

    // q1 is hierarchical: exact values in polynomial time (Example 2.3).
    let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)")?;
    let report =
        ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::default())?.report()?;
    println!("\n== Exact Shapley values for {q1} ==");
    for entry in &report.entries {
        println!("  Shapley(D, q1, {:<20}) = {}", entry.rendered, entry.value);
    }
    println!(
        "  Σ = {} (efficiency: q(D) − q(Dx) = {})",
        report.total, report.expected_total
    );
    assert!(report.efficiency_holds());

    // TA facts can only hurt (negative values), Reg facts only help —
    // and Adam's TA-ship hurts more than Ben's, as the paper observes.
    let ta_adam = db.find_fact("TA", &["Adam"]).expect("fact exists");
    let ta_ben = db.find_fact("TA", &["Ben"]).expect("fact exists");
    let va = &report.entry(ta_adam).expect("endogenous").value;
    let vb = &report.entry(ta_ben).expect("endogenous").value;
    assert!(va.abs() > vb.abs());
    println!(
        "\n|Shapley(TA(Adam))| = {} > |Shapley(TA(Ben))| = {} ✓",
        va.abs(),
        vb.abs()
    );
    Ok(())
}
