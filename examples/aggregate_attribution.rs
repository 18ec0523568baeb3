//! Aggregate attribution: the introduction's export scenario.
//!
//! ```sh
//! cargo run --example aggregate_attribution
//! ```
//!
//! The paper motivates Shapley values with
//! `Count{c | Farmer(m), Export(m,p,c), ¬Grows(c,p)}` — how much does
//! each fact contribute to the number of countries importing products
//! they do not grow? Aggregates decompose over answers by linearity
//! (the "Remarks" of Section 3).

use cqshap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = cqshap::workloads::exports::ExportsConfig {
        farmers: 4,
        products: 3,
        countries: 3,
        exports: 7,
        grows_density: 0.35,
        seed: 11,
    }
    .generate();
    println!("Database:");
    print!("{db}");

    // The Boolean query of equation (1) is FP#P-complete...
    let q_bool = cqshap::workloads::exports::exports_query();
    println!("\nBoolean query {q_bool}: {}", classify(&q_bool));

    // ...but |Dn| is small here, so the brute-force oracle applies; the
    // aggregate decomposes over candidate country answers.
    let q_count = cqshap::workloads::exports::exports_count_query();
    let agg = AggregateFunction::Count;
    let opts = ShapleyOptions::default();

    let full = aggregate_value(&db, &World::full(&db), &q_count, &agg)?;
    let empty = aggregate_value(&db, &World::empty(&db), &q_count, &agg)?;
    println!("\ncount over D = {full}, count over Dx = {empty}");

    println!("\n== Aggregate Shapley attribution ==");
    let session = ShapleySession::prepare_aggregate(&db, &q_count, agg.clone(), &opts)?;
    let report = session.report()?;
    for entry in &report.entries {
        println!("  {:<24} {}", entry.rendered, entry.value);
    }
    let total = report.total.clone();
    println!("  {:<24} {}", "Σ", total);

    // Efficiency by linearity: the attributions sum to the change the
    // endogenous facts make to the aggregate.
    assert_eq!(total, &full - &empty);
    println!("\nefficiency Σ = count(D) − count(Dx) ✓");

    // Farmer facts only help (≥ 0); Grows facts only hurt (≤ 0).
    for entry in &report.entries {
        let v = &entry.value;
        match db.schema().name(db.fact(entry.fact).rel) {
            "Farmer" => assert!(!v.is_negative()),
            "Grows" => assert!(!v.is_positive()),
            other => panic!("unexpected endogenous relation {other}"),
        }
    }
    println!("sign pattern (Farmer ≥ 0, Grows ≤ 0) ✓");
    Ok(())
}
