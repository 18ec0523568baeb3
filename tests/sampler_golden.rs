//! Golden outputs of the permutation samplers on a fixed instance of
//! the FP^#P-hard `q_RS¬T` (Theorem 3.1's non-hierarchical side, where
//! the Section 5.1 estimator is the only answer).
//!
//! The samplers are deterministic given a seed, so every estimate,
//! half-width, per-fact marginal count and flip tally below is pinned
//! bit for bit. A change to the evaluation engine, the draw loop or the
//! walk loop that alters any of them changes what a sample means, not
//! just how fast it runs.

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

/// `(fact, estimate bits, half-width bits, marginals)` of
/// `shapley_anytime` at ε = 0.1, seed 11, on `rst_instance(6, 2)`:
/// 158 permutation walks, one marginal per fact each.
const ANYTIME_GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("R(x0)", 0x3fb8a8e7a5c02d78, 0x3fb23a787bb2683d, 158),
    ("R(x1)", 0x3fb7e33fea11cb8e, 0x3fb3206d7b29d633, 158),
    ("R(x2)", 0x3fb450efb9a6450e, 0x3fad42e93f27f8fe, 158),
    ("R(x3)", 0x3fb5fdcd09fdcd0a, 0x3faff0fd6aaa02fb, 158),
    ("R(x4)", 0x3fc19ee767b9d9ef, 0x3fb429930b49bc5f, 158),
    ("R(x5)", 0x3fc3988a04bf53b7, 0x3fb0fabb1dc5c724, 158),
    ("S(x0, y0)", 0x3f9a8641fdb97531, 0x3faf17add1d610ba, 158),
    ("S(x0, y1)", 0x3fa8395df0395df0, 0x3fb1e48ce2ebe587, 158),
    ("S(x1, y5)", 0x3fac444444444444, 0x3faf638dba1c50d6, 158),
    ("S(x1, y0)", 0x3fa44b298bcf0a83, 0x3fad8d07bc12a3fe, 158),
    ("S(x2, y4)", 0x3fb2a0c723b80cf5, 0x3faef12d31edc534, 158),
    ("S(x2, y5)", 0x3fac231786cdc230, 0x3fb31f33c731be54, 158),
    ("S(x3, y3)", 0x3fad426335426336, 0x3fb064ce6c4a1f90, 158),
    ("S(x3, y4)", 0x3fa6839aa6458b22, 0x3fb1f4fbd907f4ac, 158),
    ("S(x4, y2)", 0x3fa2969dc6f3b50d, 0x3fac0186c7cedfd3, 158),
    ("S(x4, y3)", 0x3fa986edc431986e, 0x3fb1bc53e239133e, 158),
    ("S(x5, y1)", 0x3f92cc0f6dbe962a, 0x3fb03406732c36db, 158),
    ("S(x5, y2)", 0x3fa3c796d3c796d3, 0x3fb2b69433197dba, 158),
    ("T(y0)", 0xbfc87b87b87b87b8, 0x3fb0ca7713448b22, 158),
    ("T(y1)", 0xbfc3027027027026, 0x3fb203869d6b3a05, 158),
    ("T(y2)", 0xbfce1a0e3c0a8a5b, 0x3faf9ae6e410f59f, 158),
    ("T(y3)", 0xbfca7ff5cd2aa078, 0x3fb0c0d8bb4b5b1e, 158),
    ("T(y4)", 0xbfcb010565abb010, 0x3fb0b1f4691438bd, 158),
    ("T(y5)", 0xbfcc4e30ad25c4e3, 0x3fb0dd60e73ec881, 158),
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
    assert_eq!(report.spent_samples, 158 * 24);
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
    assert_eq!(report_digest(&report), 0xcfa9_adc3_5e4b_652e);
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
    assert_eq!(first.spent_samples, 125 * 24);
    assert_eq!(report_digest(&first), 0x1a57_052c_866b_42ed);
    let second = shapley_anytime(&db, AnyQuery::Cq(&q), &params, None, &mut state).unwrap();
    assert!(second.converged);
    assert_eq!(second.spent_samples, 32 * 24);
    assert_eq!(report_digest(&second), 0xf11c_ddfc_9a39_6810);
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
