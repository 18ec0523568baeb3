//! Property-based cross-validation: every polynomial algorithm against
//! an independent exponential ground truth, on randomized inputs.

use cqshap::prelude::*;
use cqshap::workloads::random_db::RandomDbConfig;
use proptest::prelude::*;

/// A small catalog of hierarchical CQ¬s exercised against random data.
const HIERARCHICAL: &[&str] = &[
    "q() :- A(x), !B(x), C(x, y)",
    "q() :- A(x), B(x)",
    "q() :- C(x, y), !D(x, y)",
    "q() :- A(x), C(x, y), !D(x, y), E(x, y, z)",
    "q() :- A(x), !B(x), F(y), !G(y)",
    "q() :- C(x, 'd0'), !B(x)",
];

/// Polarity-consistent CQ¬s (some with self-joins) for relevance tests.
const POLARITY_CONSISTENT: &[&str] = &[
    "q() :- A(x), !B(x), C(x, y)",
    "q() :- A(x), C(x, y), C(y, x)",
    "q() :- A(x), C(x, y), !B(y)",
    "q() :- A(x), F(y), C(x, y), !B(x), !G(y)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CntSat (Lemma 3.2) equals brute-force counting, and therefore so
    /// do all derived Shapley values, on random databases.
    #[test]
    fn cntsat_matches_brute_force(qi in 0..HIERARCHICAL.len(), seed in 0u64..5000, dom in 2usize..5, facts in 2usize..8) {
        let q = parse_cq(HIERARCHICAL[qi]).unwrap();
        let cfg = RandomDbConfig { domain: dom, facts_per_relation: facts, seed, ..Default::default() };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() <= 14);
        let fast = cqshap::core::count_sat_hierarchical(&db, &q).unwrap();
        let slow = BruteForceCounter::default()
            .counts(&db, AnyQuery::Cq(&q))
            .unwrap();
        prop_assert_eq!(fast, slow, "query {} on\n{}", q, db);
    }

    /// The |Sat|-reduction with the hierarchical oracle equals the
    /// permutation definition of the Shapley value.
    #[test]
    fn hierarchical_shapley_matches_permutations(qi in 0..HIERARCHICAL.len(), seed in 0u64..2000) {
        let q = parse_cq(HIERARCHICAL[qi]).unwrap();
        let cfg = RandomDbConfig { domain: 3, facts_per_relation: 3, seed, ..Default::default() };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 7);
        for &f in db.endo_facts() {
            let a = shapley_via_counts(&db, AnyQuery::Cq(&q), f, &HierarchicalCounter).unwrap();
            let b = shapley_by_permutations(&db, AnyQuery::Cq(&q), f, 9, None).unwrap();
            prop_assert_eq!(a, b, "{} on\n{}", db.render_fact(f), db);
        }
    }

    /// Efficiency: Shapley values sum to q(D) − q(Dx) on every input.
    #[test]
    fn efficiency_axiom(qi in 0..HIERARCHICAL.len(), seed in 0u64..2000, facts in 2usize..7) {
        let q = parse_cq(HIERARCHICAL[qi]).unwrap();
        let cfg = RandomDbConfig { domain: 3, facts_per_relation: facts, seed, ..Default::default() };
        let db = cfg.generate(&q);
        let report = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::default())
            .unwrap()
            .report()
            .unwrap();
        prop_assert!(report.efficiency_holds(), "query {} on\n{}", q, db);
    }

    /// Algorithms 2/3 (IsPosRelevant / IsNegRelevant) equal brute-force
    /// relevance on random polarity-consistent inputs.
    #[test]
    fn relevance_matches_brute_force(qi in 0..POLARITY_CONSISTENT.len(), seed in 0u64..3000, facts in 2usize..7) {
        let q = parse_cq(POLARITY_CONSISTENT[qi]).unwrap();
        let cfg = RandomDbConfig { domain: 3, facts_per_relation: facts, seed, ..Default::default() };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() <= 12);
        for &f in db.endo_facts() {
            let fast_pos = is_positively_relevant(&db, AnyQuery::Cq(&q), f).unwrap();
            let fast_neg = is_negatively_relevant(&db, AnyQuery::Cq(&q), f).unwrap();
            let (bf_pos, bf_neg) = brute_force_relevance(&db, AnyQuery::Cq(&q), f, 24).unwrap();
            prop_assert_eq!(fast_pos, bf_pos, "pos {} on\n{}", db.render_fact(f), db);
            prop_assert_eq!(fast_neg, bf_neg, "neg {} on\n{}", db.render_fact(f), db);
        }
    }

    /// Zeroness via relevance coincides with the exact value being zero
    /// (the polarity-consistent bridge of Section 5.2) on sjf queries.
    #[test]
    fn zeroness_matches_exact_value(seed in 0u64..2000) {
        let q = parse_cq("q() :- A(x), C(x, y), !B(y)").unwrap();
        let cfg = RandomDbConfig { domain: 3, facts_per_relation: 4, seed, ..Default::default() };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() <= 12);
        for &f in db.endo_facts() {
            let zero = shapley_is_zero(&db, AnyQuery::Cq(&q), f).unwrap();
            let v = shapley_via_counts(&db, AnyQuery::Cq(&q), f, &BruteForceCounter::default()).unwrap();
            prop_assert_eq!(zero, v.is_zero(), "{} on\n{}", db.render_fact(f), db);
        }
    }

    /// ExoShap equals brute force on the Example 4.1 query with random
    /// data and exogenous Pub/Citations.
    #[test]
    fn exoshap_matches_brute_force(seed in 0u64..2000, facts in 2usize..6) {
        let q = parse_cq("q() :- Author(x, y), Pub(x, z), Citations(z, w)").unwrap();
        let cfg = RandomDbConfig {
            domain: 3,
            facts_per_relation: facts,
            exogenous_relations: vec!["Pub".into(), "Citations".into()],
            seed,
            ..Default::default()
        };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 10);
        let prepare = |strategy| {
            ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::with_strategy(strategy))
                .unwrap()
        };
        let exo = prepare(cqshap::core::Strategy::ExoShap);
        let bf = prepare(cqshap::core::Strategy::BruteForceSubsets);
        for &f in db.endo_facts() {
            prop_assert_eq!(
                exo.value(f).unwrap(),
                bf.value(f).unwrap(),
                "{} on\n{}", db.render_fact(f), db
            );
        }
    }

    /// Lifted probabilistic inference equals world enumeration, bit for
    /// bit.
    #[test]
    fn lifted_inference_matches_enumeration(qi in 0..HIERARCHICAL.len(), seed in 0u64..2000) {
        let q = parse_cq(HIERARCHICAL[qi]).unwrap();
        let cfg = RandomDbConfig { domain: 3, facts_per_relation: 4, seed, ..Default::default() };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() <= 12);
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
        // Vary probabilities deterministically from the seed.
        for (i, &f) in db.endo_facts().iter().enumerate() {
            let (n, d) = [(3, 20), (2, 5), (13, 20), (9, 10)][((seed as usize) + i) % 4];
            session.set_probability(f, BigRational::from_i64_ratio(n, d)).unwrap();
        }
        let fast = session.probability().unwrap();
        let slow =
            probability_by_enumeration(&db, AnyQuery::Cq(&q), session.probabilities(), None, 20)
                .unwrap();
        prop_assert_eq!(&fast, &slow, "{} on\n{}", q, db);
    }
}

/// The sampler is unbiased enough to pass a generous tolerance test on
/// a fixed instance (non-proptest: sampling is expensive).
#[test]
fn sampler_tracks_exact_values() {
    let db = cqshap::workloads::figure_1_database();
    let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
    let report = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::default())
        .unwrap()
        .report()
        .unwrap();
    for entry in &report.entries {
        let approx = shapley_sampled(&db, AnyQuery::Cq(&q1), entry.fact, 30_000, 2024, 0).unwrap();
        let exact = entry.value.to_f64();
        assert!(
            (approx.estimate - exact).abs() < 0.025,
            "{}: {} vs {}",
            entry.rendered,
            approx.estimate,
            exact
        );
    }
}
