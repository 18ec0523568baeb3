//! Golden outputs of the permutation samplers on a fixed instance of
//! the FP^#P-hard `q_RS¬T` (Theorem 3.1's non-hierarchical side, where
//! the Section 5.1 estimator is the only answer).
//!
//! The samplers are deterministic given a seed, so every estimate,
//! half-width, per-fact draw count and flip tally below is pinned bit
//! for bit. A change to the evaluation engine or to the draw loop that
//! alters any of them changes what a draw means, not just how fast it
//! runs.

use cqshap::prelude::*;

/// `q_RS¬T` over `n` constants per side: `R(xi)`, `T(yi)`, and `d`
/// edges `S(xi, y((5i + 7j) mod n))` per `xi`, all endogenous.
fn rst_instance(n: usize, d: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.add_endo("R", &[&format!("x{i}")]).unwrap();
    }
    for i in 0..n {
        for j in 0..d {
            let y = (5 * i + 7 * j) % n;
            db.add_endo("S", &[&format!("x{i}"), &format!("y{y}")])
                .unwrap();
        }
    }
    for i in 0..n {
        db.add_endo("T", &[&format!("y{i}")]).unwrap();
    }
    db
}

const Q_RST: &str = "q() :- R(x), S(x, y), !T(y)";

/// A union in which `R` and `T` each occur with both polarities.
const U_MIXED: &str = "q() :- R(x), S(x, y), !T(y); q() :- T(y), S(x, y), !R(x)";

/// FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn report_digest(report: &AnytimeReport) -> u64 {
    fnv(report.entries.iter().flat_map(|e| {
        [
            u64::from(e.fact.0),
            e.estimate.to_bits(),
            e.half_width.to_bits(),
            e.samples,
        ]
    }))
}

/// `(fact, estimate bits, half-width bits, draws)` of
/// `shapley_anytime` at ε = 0.1, seed 11, on `rst_instance(6, 2)`.
const ANYTIME_GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("R(x0)", 0x3fb79890cede6244, 0x3fb7d6297c48a870, 736),
    ("R(x1)", 0x3fbc1f07c1f07c1f, 0x3fb7da7235332f6b, 736),
    ("R(x2)", 0x3fb79890cede6242, 0x3fb7da170538e24c, 736),
    ("R(x3)", 0x3fb64d9364d9364f, 0x3fb7d54cc672f18b, 736),
    ("R(x4)", 0x3fbbcc48676f3121, 0x3fb7d51bf5c5d50e, 736),
    ("R(x5)", 0x3fb83e0f83e0f83d, 0x3fb7ddddc2a78a42, 736),
    ("S(x0, y0)", 0x3fa6f31219dbcc48, 0x3fb7a3c31a48d1c8, 736),
    ("S(x0, y1)", 0x3fa3b79890cede62, 0x3fb79a8f99daccfb, 736),
    ("S(x1, y5)", 0x3fa7eb50295fad41, 0x3fb7a7b2976268e2, 736),
    ("S(x1, y0)", 0x3fa5fad40a57eb51, 0x3fb79f56c4916cea, 736),
    ("S(x2, y4)", 0x3f9b26c9b26c9b28, 0x3fb7893bab3f5bbc, 736),
    ("S(x2, y5)", 0x3fb14afd6a052bf5, 0x3fb7a49f7add53b9, 736),
    ("S(x3, y3)", 0x3fa5fad40a57eb51, 0x3fb7a2193c862a87, 736),
    ("S(x3, y4)", 0x3fb1219dbcc48676, 0x3fb7a544352015cb, 736),
    ("S(x4, y2)", 0x3fae0f83e0f83e0f, 0x3fb798e0cc852d09, 736),
    ("S(x4, y3)", 0x3fa64d9364d9364e, 0x3fb7a3ede5968943, 736),
    ("S(x5, y1)", 0x3fa1219dbcc48677, 0x3fb794bb5b39bfae, 736),
    ("S(x5, y2)", 0x3fa64d9364d9364d, 0x3fb7a342b68ed157, 736),
    ("T(y0)", 0xbfc8e38e38e38e38, 0x3fb7e3f916813a3b, 736),
    ("T(y1)", 0xbfc94afd6a052bf5, 0x3fb7d72a3bf34201, 736),
    ("T(y2)", 0xbfd03e0f83e0f83e, 0x3fb7d9e200841dd6, 736),
    ("T(y3)", 0xbfc638e38e38e38e, 0x3fb7dac7074e3da3, 736),
    ("T(y4)", 0xbfc3e0f83e0f83e0, 0x3fb7e92e66de3d0d, 736),
    ("T(y5)", 0xbfcafd6a052bf5a7, 0x3fb7e3b5556f0893, 736),
];

/// `(fact, estimate bits, positive flips, negative flips)` of
/// `shapley_sampled` with 1500 samples, seed 7, 2 workers.
const SAMPLED_CQ_GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("R(x0)", 0x3fb9f0fb38a94d24, 152, 0),
    ("R(x5)", 0x3fbc8057619f0fb4, 167, 0),
    ("S(x2, y4)", 0x3fa21735ee402bb1, 53, 0),
    ("S(x4, y3)", 0x3fa9f0fb38a94d24, 76, 0),
    ("T(y2)", 0xbfc9f0fb38a94d24, 0, 304),
];

/// As [`SAMPLED_CQ_GOLDEN`], for the mixed-polarity union [`U_MIXED`].
const SAMPLED_UCQ_GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("R(x0)", 0xbfafbe76c8b43958, 69, 162),
    ("R(x5)", 0xbf9a9fbe76c8b439, 90, 129),
    ("S(x2, y4)", 0x3fa9f0fb38a94d24, 76, 0),
    ("S(x4, y3)", 0x3fa47ae147ae147b, 60, 0),
    ("T(y2)", 0xbfa6872b020c49ba, 67, 133),
];

fn anytime_params() -> AnytimeParams {
    AnytimeParams {
        epsilon: 0.1,
        seed: 11,
        ..AnytimeParams::default()
    }
}

#[test]
fn anytime_report_matches_golden_values() {
    let db = rst_instance(6, 2);
    let q = parse_cq(Q_RST).unwrap();
    let report =
        shapley_anytime(&db, AnyQuery::Cq(&q), &anytime_params(), None, &mut None).unwrap();
    assert!(report.converged);
    assert_eq!(report.spent_samples, 17664);
    assert_eq!(report.entries.len(), ANYTIME_GOLDEN.len());
    for (e, &(fact, estimate, half_width, samples)) in report.entries.iter().zip(ANYTIME_GOLDEN) {
        assert_eq!(e.rendered, fact);
        assert_eq!(
            (e.estimate.to_bits(), e.half_width.to_bits(), e.samples),
            (estimate, half_width, samples),
            "{fact}: {} ± {} over {} draws",
            e.estimate,
            e.half_width,
            e.samples
        );
    }
    assert_eq!(report_digest(&report), 0x67db_d1c1_d0dd_9c78);
}

#[test]
fn resumed_anytime_report_matches_golden_values() {
    let db = rst_instance(6, 2);
    let q = parse_cq(Q_RST).unwrap();
    let params = anytime_params();
    let mut state = None;
    let budget = Budget::work_units(3000).token();
    let first = shapley_anytime(&db, AnyQuery::Cq(&q), &params, Some(&budget), &mut state).unwrap();
    assert!(first.deadline_hit);
    assert_eq!(first.spent_samples, 2944);
    assert_eq!(report_digest(&first), 0x7cfc_b5bd_99fb_32ab);
    let second = shapley_anytime(&db, AnyQuery::Cq(&q), &params, None, &mut state).unwrap();
    assert!(second.converged);
    assert_eq!(second.spent_samples, 14720);
    assert_eq!(report_digest(&second), 0x2bec_4268_a39d_89cf);
}

fn check_sampled(any: AnyQuery<'_>, golden: &[(&str, u64, u64, u64)]) {
    let db = rst_instance(6, 2);
    let facts: Vec<FactId> = db.endo_facts().iter().copied().step_by(5).collect();
    assert_eq!(facts.len(), golden.len());
    for (&f, &(fact, estimate, positive, negative)) in facts.iter().zip(golden) {
        assert_eq!(db.render_fact(f), fact);
        let r = shapley_sampled(&db, any, f, 1500, 7, 2).unwrap();
        assert_eq!(
            (r.estimate.to_bits(), r.positive_flips, r.negative_flips),
            (estimate, positive, negative),
            "{fact}: estimate {}",
            r.estimate
        );
    }
}

#[test]
fn sampled_tallies_match_golden_values() {
    let q = parse_cq(Q_RST).unwrap();
    check_sampled(AnyQuery::Cq(&q), SAMPLED_CQ_GOLDEN);
}

#[test]
fn mixed_polarity_union_tallies_match_golden_values() {
    let u = parse_ucq(U_MIXED).unwrap();
    check_sampled(AnyQuery::Union(&u), SAMPLED_UCQ_GOLDEN);
}
