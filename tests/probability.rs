//! Property-based pinning of the unified probability path.
//!
//! The claim of the evaluation-domain design is that the compiled
//! engine instantiated at the probability domain, as a session serves
//! it, computes the *same function* as both (a) the seed
//! lifted-inference traversal (kept in `cqshap_core::reference` as an
//! independent oracle) and (b) brute-force world enumeration. These
//! proptests check all three on
//! random tuple-independent CQ¬ instances with exact dyadic
//! probabilities — equality is bit-for-bit on `BigRational`, never
//! epsilon-close. A second group pins `ShapleySession` incremental
//! maintenance: after every random update, `probability()` and
//! `expected_shapley()` must match a freshly prepared session exactly.

use cqshap::core::count_sat_hierarchical;
use cqshap::core::reference::oracle_probability;
use cqshap::prelude::*;
use cqshap::workloads::random_db::RandomDbConfig;
use proptest::prelude::*;

/// Hierarchical self-join-free CQ¬s (the compiled fragment, so the
/// oracle applies too), plus constants and vacuous-negation shapes.
const CQS: &[&str] = &[
    "q() :- A(x), !B(x), C(x, y)",
    "q() :- A(x), B(x)",
    "q() :- C(x, y), !D(x, y)",
    "q() :- A(x), C(x, y), !D(x, y), E(x, y, z)",
    "q() :- A(x), !B(x), F(y), !G(y)",
    "q() :- C(x, 'd0'), !B(x)",
    "q() :- A(x), C(x, y), E(x, y, z)",
];

/// 2–3-disjunct UCQ¬s for the inclusion–exclusion probability path.
const UNIONS: &[&str] = &[
    "q1() :- A(x), !B(x), C(x, y); q2() :- F(u), !G(u)",
    "q1() :- A(x), B(x); q2() :- C(x, y), !D(x, y)",
    "q1() :- A(x); q2() :- F(y); q3() :- H(z, w)",
    "q1() :- A(x), !B(x); q2() :- A(y)",
];

const EXO_MIXES: &[&[&str]] = &[&[], &["A"], &["C"]];

/// Exact dyadic probabilities including both degenerate endpoints.
const PROBS: &[(i64, i64)] = &[
    (1, 2),
    (1, 4),
    (3, 4),
    (1, 8),
    (5, 8),
    (1, 1),
    (0, 1),
    (7, 8),
];

/// Deterministic per-fact probability table: cycle through [`PROBS`]
/// with a seed-dependent phase so every instance mixes plain, extreme,
/// and default probabilities.
fn assign_probs(db: &Database, seed: u64) -> FactProbabilities {
    let mut probs = FactProbabilities::uniform(BigRational::from_i64_ratio(1, 3));
    for (i, f) in db.fact_ids().enumerate() {
        if db.fact(f).provenance.is_endogenous() && !(i as u64 + seed).is_multiple_of(3) {
            let (n, d) = PROBS[(i + seed as usize) % PROBS.len()];
            probs.set(f, BigRational::from_i64_ratio(n, d));
        }
    }
    probs
}

/// One deterministic pseudo-random update derived from `step`: insert a
/// fresh fact, retract a live one, or flip provenance (same mix as the
/// Shapley session proptests).
fn apply_update(session: &mut ShapleySession, step: u64) {
    let h = |k: u64| step.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(k as u32);
    match h(1) % 3 {
        0 => {
            let db = session.database();
            let rels: Vec<(String, usize)> = db
                .schema()
                .iter()
                .map(|(rel, def)| (def.name.clone(), db.schema().arity(rel)))
                .collect();
            if rels.is_empty() {
                return;
            }
            let (name, arity) = rels[(h(2) % rels.len() as u64) as usize].clone();
            let consts: Vec<String> = (0..arity)
                .map(|i| format!("d{}", (h(3 + i as u64) % 4) as usize))
                .collect();
            let refs: Vec<&str> = consts.iter().map(|s| s.as_str()).collect();
            let provenance = if h(7) % 2 == 0 {
                Provenance::Endogenous
            } else {
                Provenance::Exogenous
            };
            let _ = session.insert_fact(&name, &refs, provenance);
        }
        1 => {
            let ids: Vec<FactId> = session.database().fact_ids().collect();
            if ids.is_empty() {
                return;
            }
            let f = ids[(h(2) % ids.len() as u64) as usize];
            session.retract_fact(f).expect("live fact retracts");
        }
        _ => {
            let ids: Vec<FactId> = session.database().fact_ids().collect();
            if ids.is_empty() {
                return;
            }
            let f = ids[(h(2) % ids.len() as u64) as usize];
            let exo = session.database().fact(f).provenance.is_endogenous();
            let _ = session.set_exogenous(f, exo);
        }
    }
}

/// Maintained session ≡ fresh prepare with the same default
/// probability, for `probability()` and every `expected_shapley()`.
fn assert_prob_matches_fresh(
    session: &mut ShapleySession,
    query: AnyQuery<'_>,
    opts: &ShapleyOptions,
    default_p: &BigRational,
) {
    let db = session.database().clone();
    let mut fresh = ShapleySession::prepare(&db, query, opts).unwrap();
    fresh.set_default_probability(default_p.clone()).unwrap();
    assert_eq!(
        session.probability().unwrap(),
        fresh.probability().unwrap(),
        "maintained vs fresh probability over\n{db}"
    );
    for f in db.fact_ids() {
        if db.endo_index(f).is_none() {
            continue;
        }
        assert_eq!(
            session.expected_shapley(f).unwrap(),
            fresh.expected_shapley(f).unwrap(),
            "maintained vs fresh expected marginal at {} over\n{db}",
            db.render_fact(f)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Unified compiled probability ≡ seed lifted oracle ≡ brute-force
    /// enumeration, bit for bit, on random tuple-independent instances.
    #[test]
    fn unified_probability_matches_oracle_and_enumeration(
        qi in 0..CQS.len(),
        mix in 0usize..3,
        seed in 0u64..4000,
    ) {
        let q = parse_cq(CQS[qi]).unwrap();
        let exo: Vec<String> = EXO_MIXES[mix].iter().map(|s| s.to_string()).collect();
        let cfg = RandomDbConfig {
            domain: 3,
            facts_per_relation: 3,
            seed,
            exogenous_relations: exo,
            ..Default::default()
        };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() <= 12);
        let probs = assign_probs(&db, seed);

        // A hierarchical CQ¬'s session serves `Pr[q]` from the compiled
        // probability domain.
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
        prop_assert_eq!(session.strategy(), Some(ResolvedStrategy::Hierarchical));
        session.set_default_probability(probs.default_probability().clone()).unwrap();
        for &f in db.endo_facts() {
            session.set_probability(f, probs.get(f).clone()).unwrap();
        }
        let unified = session.probability().unwrap();
        let oracle = oracle_probability(&db, &probs, &q).unwrap();
        prop_assert_eq!(&unified, &oracle, "compiled vs seed oracle over\n{}", db);
        let enumerated =
            probability_by_enumeration(&db, AnyQuery::Cq(&q), &probs, None, 14).unwrap();
        prop_assert_eq!(&unified, &enumerated, "compiled vs enumeration over\n{}", db);

        // Conditioned marginals against forced enumeration too.
        for f in db.fact_ids().filter(|&f| db.endo_index(f).is_some()).take(3) {
            let expected = session.expected_shapley(f).unwrap();
            let present =
                probability_by_enumeration(&db, AnyQuery::Cq(&q), &probs, Some((f, true)), 14)
                    .unwrap();
            let absent =
                probability_by_enumeration(&db, AnyQuery::Cq(&q), &probs, Some((f, false)), 14)
                    .unwrap();
            prop_assert_eq!(expected, present - absent, "marginal at {}", db.render_fact(f));
        }
    }

    /// Union probabilities through the session's inclusion–exclusion
    /// path match world enumeration exactly.
    #[test]
    fn union_probability_matches_enumeration(
        ui in 0..UNIONS.len(),
        mix in 0usize..3,
        seed in 0u64..4000,
    ) {
        let u = parse_ucq(UNIONS[ui]).unwrap();
        let exo: Vec<String> = EXO_MIXES[mix].iter().map(|s| s.to_string()).collect();
        let cfg = RandomDbConfig {
            domain: 3,
            facts_per_relation: 2,
            seed,
            exogenous_relations: exo,
            ..Default::default()
        };
        let db = cfg.generate_union(&u);
        prop_assume!(db.endo_count() <= 10);
        let default_p = BigRational::from_i64_ratio(1, 3);
        let opts = ShapleyOptions::auto();
        let mut session = ShapleySession::prepare(&db, AnyQuery::Union(&u), &opts).unwrap();
        session.set_default_probability(default_p.clone()).unwrap();
        let probs = FactProbabilities::uniform(default_p);
        let enumerated =
            probability_by_enumeration(&db, AnyQuery::Union(&u), &probs, None, 12).unwrap();
        prop_assert_eq!(session.probability().unwrap(), enumerated, "over\n{}", db);
    }

    /// Session probability state survives random update sequences: after
    /// every insert / retract / provenance flip, `probability()` and
    /// `expected_shapley()` are bit-identical to a fresh prepare.
    #[test]
    fn session_probability_updates_match_fresh_prepare(
        qi in 0..CQS.len(),
        mix in 0usize..3,
        seed in 0u64..4000,
        steps in 1usize..5,
    ) {
        let q = parse_cq(CQS[qi]).unwrap();
        let exo: Vec<String> = EXO_MIXES[mix].iter().map(|s| s.to_string()).collect();
        let cfg = RandomDbConfig {
            domain: 3,
            facts_per_relation: 3,
            seed,
            exogenous_relations: exo,
            ..Default::default()
        };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 10);
        let default_p = BigRational::from_i64_ratio(2, 5);
        let opts = ShapleyOptions::auto();
        let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &opts).unwrap();
        session.set_default_probability(default_p.clone()).unwrap();
        // Force the lazy probability state to exist so updates exercise
        // the maintenance path rather than a first build.
        session.probability().unwrap();
        for step in 0..steps as u64 {
            apply_update(&mut session, seed.wrapping_add(step).wrapping_mul(2654435761));
            prop_assume!(session.database().endo_count() <= 12);
            assert_prob_matches_fresh(&mut session, AnyQuery::Cq(&q), &opts, &default_p);
        }
    }
}

/// CQ¬s outside the hierarchical fragment that `ExoShap` rewrites once
/// `A` is exogenous (no non-hierarchical path joins two endogenous
/// atoms).
const EXOSHAP_CQS: &[&str] = &["q() :- A(x), C(x, y), F(y)", "q() :- A(x), C(x, y), !F(y)"];

/// `Σ_k counts[k] · p^k · (1 − p)^(m − k)` for `counts` of length
/// `m + 1`: the probability of the query when every endogenous fact is
/// present independently with probability `p`.
fn weighted_counts(counts: &[BigUint], p: &BigRational) -> BigRational {
    let m = counts.len() - 1;
    let q = BigRational::one() - p.clone();
    let power = |x: &BigRational, e: usize| {
        let mut acc = BigRational::one();
        for _ in 0..e {
            acc = &acc * x;
        }
        acc
    };
    let mut total = BigRational::zero();
    for (k, c) in counts.iter().enumerate() {
        total += &(BigRational::from(c.clone()) * power(p, k) * power(&q, m - k));
    }
    total
}

/// The session's `Pr[q]` at a uniform default probability `p`.
fn session_probability(db: &Database, query: AnyQuery<'_>, p: &BigRational) -> BigRational {
    let mut session = ShapleySession::prepare(db, query, &ShapleyOptions::auto()).unwrap();
    session.set_default_probability(p.clone()).unwrap();
    session.probability().unwrap()
}

/// The two uniform probabilities the cross-domain identity is checked
/// at: one dyadic, one not.
fn uniform_p(pi: usize) -> BigRational {
    [
        BigRational::from_i64_ratio(1, 2),
        BigRational::from_i64_ratio(3, 10),
    ][pi]
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Counting and probability agree: with every endogenous fact at
    /// the same `p`, the session's `Pr[q]` equals the satisfying-set
    /// counts weighted by `p^k (1 − p)^(m − k)` — counts from the
    /// `CntSat` recursion for hierarchical CQ¬s, from it on the
    /// rewritten database for `ExoShap` CQ¬s. (A unit test of
    /// `cqshap-core`'s `compiled` module checks the same identity with
    /// the compiled counting engine's totals.)
    #[test]
    fn cq_probability_matches_weighted_counts(
        qi in 0..CQS.len() + EXOSHAP_CQS.len(),
        pi in 0usize..2,
        seed in 0u64..4000,
    ) {
        let exoshap = qi >= CQS.len();
        let text = if exoshap { EXOSHAP_CQS[qi - CQS.len()] } else { CQS[qi] };
        let q = parse_cq(text).unwrap();
        let cfg = RandomDbConfig {
            domain: 3,
            facts_per_relation: 3,
            seed,
            exogenous_relations: if exoshap { vec!["A".to_string()] } else { Vec::new() },
            ..Default::default()
        };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() <= 10);
        let counts = if exoshap {
            let outcome = rewrite(&db, &q, 1 << 16).unwrap();
            if outcome.always_false {
                vec![BigUint::zero(); db.endo_count() + 1]
            } else {
                count_sat_hierarchical(&outcome.db, &outcome.query).unwrap()
            }
        } else {
            count_sat_hierarchical(&db, &q).unwrap()
        };
        let p = uniform_p(pi);
        prop_assert_eq!(
            session_probability(&db, AnyQuery::Cq(&q), &p),
            weighted_counts(&counts, &p),
            "{} over\n{}", text, db
        );
    }

    /// The same identity for UCQ¬s, with brute-force counts.
    #[test]
    fn union_probability_matches_weighted_counts(
        ui in 0..UNIONS.len(),
        mix in 0usize..3,
        pi in 0usize..2,
        seed in 0u64..4000,
    ) {
        let u = parse_ucq(UNIONS[ui]).unwrap();
        let exo: Vec<String> = EXO_MIXES[mix].iter().map(|s| s.to_string()).collect();
        let cfg = RandomDbConfig {
            domain: 3,
            facts_per_relation: 2,
            seed,
            exogenous_relations: exo,
            ..Default::default()
        };
        let db = cfg.generate_union(&u);
        prop_assume!(db.endo_count() <= 10);
        let counts = BruteForceCounter::default().counts(&db, AnyQuery::Union(&u)).unwrap();
        let p = uniform_p(pi);
        prop_assert_eq!(
            session_probability(&db, AnyQuery::Union(&u), &p),
            weighted_counts(&counts, &p),
            "over\n{}", db
        );
    }
}

/// A UCQ¬ whose first disjunct is not hierarchical but has no
/// non-hierarchical path once `R` is exogenous: the Shapley reads
/// rewrite every inclusion–exclusion term by `ExoShap`, and so must
/// `probability()` and `expected_shapley()` — past the brute-force
/// limit, where world enumeration refuses.
#[test]
fn exoshap_union_probability_answers_past_the_brute_force_limit() {
    let mut text = String::from("exorel R\n");
    for i in 0..3 {
        text += &format!("exo R(a{i})\nendo S(a{i}, b0)\nendo S(a{i}, b1)\n");
    }
    text += "endo T(b0)\nendo T(b1)\n";
    for k in 0..2 {
        text += &format!("endo U(c{k})\nendo V(c{k})\n");
    }
    let db = Database::parse(&text).unwrap();
    let m = db.endo_count();
    assert_eq!(m, 12);
    let u = parse_ucq("qa() :- R(x), S(x, y), T(y); qb() :- U(z), !V(z)").unwrap();
    let opts = ShapleyOptions::auto().brute_force_limit(4);
    let mut session = ShapleySession::prepare(&db, AnyQuery::Union(&u), &opts).unwrap();
    assert_eq!(session.strategy(), Some(ResolvedStrategy::ExoShap));
    assert!(session.report().unwrap().efficiency_holds());
    let p = BigRational::from_i64_ratio(3, 10);
    session.set_default_probability(p.clone()).unwrap();
    let probs = FactProbabilities::uniform(p);
    let want = probability_by_enumeration(&db, AnyQuery::Union(&u), &probs, None, m).unwrap();
    assert_eq!(session.probability().unwrap(), want);
    for &f in db.endo_facts() {
        let present =
            probability_by_enumeration(&db, AnyQuery::Union(&u), &probs, Some((f, true)), m)
                .unwrap();
        let absent =
            probability_by_enumeration(&db, AnyQuery::Union(&u), &probs, Some((f, false)), m)
                .unwrap();
        assert_eq!(
            session.expected_shapley(f).unwrap(),
            present - absent,
            "{}",
            db.render_fact(f)
        );
    }
}

/// `probability()` and every `expected_shapley()` of `session` equal
/// world enumeration over its database and probabilities, bit for bit.
fn assert_session_matches_enumeration(session: &mut ShapleySession, q: &ConjunctiveQuery) {
    let db = session.database().clone();
    let probs = session.probabilities().clone();
    let m = db.endo_count();
    let want = probability_by_enumeration(&db, AnyQuery::Cq(q), &probs, None, m).unwrap();
    assert_eq!(session.probability().unwrap(), want, "{q} over\n{db}");
    for &f in db.endo_facts() {
        let present =
            probability_by_enumeration(&db, AnyQuery::Cq(q), &probs, Some((f, true)), m).unwrap();
        let absent =
            probability_by_enumeration(&db, AnyQuery::Cq(q), &probs, Some((f, false)), m).unwrap();
        assert_eq!(
            session.expected_shapley(f).unwrap(),
            present - absent,
            "{q} at {}",
            db.render_fact(f)
        );
    }
}

/// Theorem 4.10 on Example 4.1: the citations query is not
/// hierarchical, but with `Pub` and `Citations` deterministic it has no
/// non-hierarchical path, so the session answers through the `ExoShap`
/// rewriting.
#[test]
fn theorem_4_10_example_4_1_routes_through_exoshap() {
    let db = Database::parse(
        "exorel Pub\nexorel Citations\n\
         endo Author(alice, i1)\nendo Author(bob, i2)\nendo Author(carol, i1)\n\
         exo Pub(alice, p1)\nexo Pub(alice, p2)\nexo Pub(bob, p3)\nexo Pub(carol, p4)\n\
         exo Citations(p1, c10)\nexo Citations(p3, c5)\nexo Citations(p4, c2)\n",
    )
    .unwrap();
    let q = parse_cq("q() :- Author(x, y), Pub(x, z), Citations(z, w)").unwrap();
    assert!(!is_hierarchical(&q));
    let mut session =
        ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
    assert_eq!(session.strategy(), Some(ResolvedStrategy::ExoShap));
    let alice = db.find_fact("Author", &["alice", "i1"]).unwrap();
    session
        .set_probability(alice, BigRational::from_i64_ratio(9, 10))
        .unwrap();
    assert_session_matches_enumeration(&mut session, &q);
}

/// Theorem 4.10 with negation: `q2` over the running example with
/// `Stud`, `Course` and `Adv` declared deterministic.
#[test]
fn theorem_4_10_q2_with_deterministic_relations() {
    let mut db = cqshap::workloads::figure_1_database();
    for name in ["Stud", "Course", "Adv"] {
        let rel = db.schema().id(name).unwrap();
        db.declare_exogenous_relation(rel).unwrap();
    }
    let q = parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')").unwrap();
    assert!(!is_hierarchical(&q));
    let mut session =
        ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
    assert_eq!(session.strategy(), Some(ResolvedStrategy::ExoShap));
    let cycle = [
        (1, 10),
        (3, 10),
        (1, 2),
        (7, 10),
        (9, 10),
        (1, 4),
        (3, 4),
        (3, 5),
    ];
    for (&f, (n, d)) in db.endo_facts().iter().zip(cycle.iter().cycle()) {
        session
            .set_probability(f, BigRational::from_i64_ratio(*n, *d))
            .unwrap();
    }
    assert_session_matches_enumeration(&mut session, &q);
}

/// A session prepared under a forced strategy answers probabilistic
/// reads through its own `Auto` plan: enumeration-forced and
/// ExoShap-forced sessions agree with the `Auto` session bit for bit,
/// across a probability change.
#[test]
fn forced_strategy_sessions_read_probabilities_through_auto() {
    let db = cqshap::workloads::figure_1_database();
    let q = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
    let mut auto = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
    for strategy in [
        cqshap::core::Strategy::BruteForceSubsets,
        cqshap::core::Strategy::ExoShap,
    ] {
        let options = ShapleyOptions::with_strategy(strategy);
        let mut forced = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &options).unwrap();
        for p in [(1, 2), (3, 10)] {
            let p = BigRational::from_i64_ratio(p.0, p.1);
            auto.set_default_probability(p.clone()).unwrap();
            forced.set_default_probability(p).unwrap();
            assert_eq!(forced.probability().unwrap(), auto.probability().unwrap());
            let f = db.endo_facts()[0];
            assert_eq!(
                forced.expected_shapley(f).unwrap(),
                auto.expected_shapley(f).unwrap()
            );
        }
    }
}

/// On the report benchmark workload with dyadic probabilities cycled
/// over `Dn`: a provenance flip and its inverse are maintained in place,
/// and the session's `Pr[q]` and every expected marginal equal the seed
/// traversal's, a marginal being the oracle with the fact's probability
/// pinned to 1 minus the oracle with it pinned to 0.
#[test]
fn report_workload_marginals_match_the_oracle() {
    let db = cqshap::workloads::report_benchmark_db(64);
    let q = cqshap::workloads::queries::q1();
    let mut session =
        ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
    for (&f, &(n, d)) in db.endo_facts().iter().zip(PROBS.iter().cycle()) {
        session
            .set_probability(f, BigRational::from_i64_ratio(n, d))
            .unwrap();
    }
    session.probability().unwrap();
    let f0 = db.endo_facts()[0];
    session.set_exogenous(f0, true).unwrap();
    session.set_exogenous(f0, false).unwrap();
    assert_eq!(session.stats().incremental_updates, 2);

    let probs = session.probabilities().clone();
    assert_eq!(
        session.probability().unwrap(),
        oracle_probability(&db, &probs, &q).unwrap()
    );
    for &f in db.endo_facts() {
        let mut forced = probs.clone();
        forced.set(f, BigRational::one());
        let present = oracle_probability(&db, &forced, &q).unwrap();
        forced.set(f, BigRational::zero());
        let absent = oracle_probability(&db, &forced, &q).unwrap();
        assert_eq!(
            session.expected_shapley(f).unwrap(),
            present - absent,
            "{}",
            db.render_fact(f)
        );
    }
}
