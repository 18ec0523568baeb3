//! The gap property and its violation (Section 5).
//!
//! ```sh
//! cargo run --example approximation_gap
//! ```
//!
//! For positive CQs, nonzero Shapley values are polynomially large, so
//! the additive Monte-Carlo FPRAS doubles as a multiplicative one. With
//! negation, Theorem 5.1 builds databases where the value is
//! `n!·n!/(2n+1)! ≤ 2^-n`: the additive sampler stays additively
//! accurate but its *relative* error explodes — the estimate is
//! typically exactly 0 for a provably nonzero value.

use cqshap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Theorem 5.1's family for q() :- R(x), S(x,y), ¬R(y).
    println!("== Exponentially small Shapley values (Theorem 5.1) ==");
    println!(
        "{:>3}  {:<28} {:<12}",
        "n", "Shapley(D_n, q, f0) exactly", "≈ float"
    );
    for n in [1usize, 2, 4, 8, 16, 32] {
        let (_q, inst) = section_5_1_example(n);
        let v = inst.expected_abs.clone();
        println!("{n:>3}  {:<28} {:.3e}", v.to_string(), v.to_f64());
    }

    // Verify the closed form against the real computation for small n.
    let (q, inst) = section_5_1_example(2);
    let exact = shapley_by_permutations(&inst.db, AnyQuery::Cq(&q), inst.f0, 9, None)?;
    assert_eq!(exact.abs(), inst.expected_abs);
    println!(
        "\nexact value for n = 2 matches the closed form {} ✓",
        inst.expected_abs
    );

    // The additive FPRAS with the Hoeffding budget: fine additively,
    // useless multiplicatively on the gap family.
    let eps = 0.05;
    let delta = 0.01;
    let samples = required_samples(eps, delta)?;
    println!("\n== Additive sampler: ε = {eps}, δ = {delta} → {samples} samples ==");
    let (q8, inst8) = section_5_1_example(8);
    let est = shapley_sampled(&inst8.db, AnyQuery::Cq(&q8), inst8.f0, samples, 7, 0)?;
    let truth = inst8.expected_abs.to_f64();
    println!("n = 8: true value {truth:.3e}, estimate {}", est.estimate);
    println!(
        "additive error {:.3e} (within ε) ",
        (est.estimate - truth).abs()
    );
    assert!((est.estimate - truth).abs() <= eps);
    println!(
        "flips observed: {} positive, {} negative out of {} samples",
        est.positive_flips, est.negative_flips, est.samples
    );
    println!("→ a multiplicative guarantee would require ≥ 2^n samples\n");

    // Contrast: on the running example the same sampler nails the values.
    let db = cqshap::workloads::figure_1_database();
    let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)")?;
    println!("== Same sampler on the running example (values are large) ==");
    for (rel, args, expect) in [
        ("TA", vec!["Adam"], -3.0 / 28.0),
        ("Reg", vec!["Caroline", "DB"], 13.0 / 42.0),
    ] {
        let refs: Vec<&str> = args.to_vec();
        let f = db.find_fact(rel, &refs).expect("fact exists");
        let est = shapley_sampled(&db, AnyQuery::Cq(&q1), f, samples, 99, 0)?;
        println!(
            "  {:<20} exact {:+.4}  estimate {:+.4}",
            db.render_fact(f),
            expect,
            est.estimate
        );
        assert!((est.estimate - expect).abs() <= eps);
    }
    println!("\nadditive guarantees hold everywhere; only the *relative* story breaks ✓");

    // The generic construction also works for other queries.
    let other = parse_cq("q() :- A(x), S(x, y), !B(y)")?;
    let inst = build_gap_family(&other, 2)?;
    let v = shapley_by_permutations(&inst.db, AnyQuery::Cq(&other), inst.f0, 9, None)?;
    assert_eq!(v.abs(), inst.expected_abs);
    println!("generic Theorem 5.1 construction validated for {other} ✓");
    Ok(())
}
