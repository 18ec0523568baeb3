//! Property-based pinning of `ShapleySession` incremental maintenance.
//!
//! Random insert / retract / exogenous-flip sequences on random CQ¬s
//! and 2–3-disjunct UCQ¬s: after *every* update the maintained session
//! must be bit-identical (exact rationals) to a freshly prepared
//! session on the same database, and the efficiency axiom must hold
//! exactly. This is the contract that lets the compiled engines be
//! *maintained* (factor-swapped environments, single-group recounts)
//! instead of recompiled — any drift between the incremental and
//! recompiled states shows up as a value mismatch here.

use cqshap::prelude::*;
use cqshap::workloads::random_db::RandomDbConfig;
use proptest::prelude::*;

/// Hierarchical CQ¬s with positive atoms, negated atoms, and constants
/// (the compiled-engine fragment), plus shapes that route to brute
/// force under `Auto` so the re-prepare fallback is exercised too.
const CQS: &[&str] = &[
    "q() :- A(x), !B(x), C(x, y)",
    "q() :- A(x), B(x)",
    "q() :- C(x, y), !D(x, y)",
    "q() :- A(x), C(x, y), !D(x, y), E(x, y, z)",
    "q() :- A(x), !B(x), F(y), !G(y)",
    "q() :- C(x, 'd0'), !B(x)",
    "q() :- A(x), C(x, y), E(x, y, z)",
];

/// 2–3-disjunct UCQ¬s: compiled-fragment unions and overlapping ones
/// that fall back under `Auto`.
const UNIONS: &[&str] = &[
    "q1() :- A(x), !B(x), C(x, y); q2() :- F(u), !G(u)",
    "q1() :- A(x), B(x); q2() :- C(x, y), !D(x, y)",
    "q1() :- A(x); q2() :- F(y); q3() :- H(z, w)",
    "q1() :- A(x), !B(x); q2() :- A(y)",
];

const EXO_MIXES: &[&[&str]] = &[&[], &["A"], &["C"]];

/// One deterministic pseudo-random update derived from `step`: insert
/// a fresh fact over one of the query's relations, retract some live
/// fact, or flip some fact's provenance. Ops that the database rejects
/// (duplicates, exogenous-relation violations) are skipped — the point
/// is the engine contract, not db error surfaces.
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

/// After every update: maintained session ≡ fresh prepare, bit for bit,
/// and the efficiency axiom holds.
fn assert_matches_fresh(session: &ShapleySession, query: AnyQuery<'_>, opts: &ShapleyOptions) {
    let fresh = ShapleySession::prepare(session.database(), query, opts).unwrap();
    let (a, b) = (session.report().unwrap(), fresh.report().unwrap());
    assert!(
        a.efficiency_holds(),
        "efficiency after update over\n{}",
        session.database()
    );
    assert_eq!(a.entries.len(), b.entries.len());
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(
            x.value,
            y.value,
            "maintained vs fresh at {} over\n{}",
            x.rendered,
            session.database()
        );
        // The single-value path serves the same number.
        assert_eq!(session.value(x.fact).unwrap(), x.value, "{}", x.rendered);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CQ¬ sessions survive random update sequences bit-identically.
    #[test]
    fn cq_session_updates_match_fresh_prepare(
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
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 12);
        let opts = ShapleyOptions::auto();
        let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &opts).unwrap();
        for step in 0..steps as u64 {
            apply_update(&mut session, seed.wrapping_add(step).wrapping_mul(2654435761));
            prop_assume!(session.database().endo_count() <= 14);
            assert_matches_fresh(&session, AnyQuery::Cq(&q), &opts);
        }
        let stats = session.stats();
        prop_assert_eq!(stats.incremental_updates + stats.full_recompiles, stats.updates);
    }

    /// UCQ¬ sessions survive random update sequences bit-identically.
    #[test]
    fn union_session_updates_match_fresh_prepare(
        ui in 0..UNIONS.len(),
        mix in 0usize..3,
        seed in 0u64..4000,
        steps in 1usize..4,
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
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 10);
        let opts = ShapleyOptions::auto();
        let mut session = ShapleySession::prepare(&db, AnyQuery::Union(&u), &opts).unwrap();
        for step in 0..steps as u64 {
            apply_update(&mut session, seed.wrapping_add(step).wrapping_mul(0xB5297A4D));
            prop_assume!(session.database().endo_count() <= 12);
            assert_matches_fresh(&session, AnyQuery::Union(&u), &opts);
        }
    }

    /// A session whose engine failed (poisoned) recovers in place:
    /// after `recover()` every value is bit-identical to a session
    /// freshly prepared on the same database.
    #[test]
    fn recovered_sessions_match_fresh_prepare(
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
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 12);
        let opts = ShapleyOptions::auto();
        let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &opts).unwrap();
        session.poison_for_tests("synthetic maintenance failure");
        prop_assert!(session.is_poisoned());
        prop_assert!(session.report().is_err());
        session.recover().unwrap();
        prop_assert!(!session.is_poisoned());
        assert_matches_fresh(&session, AnyQuery::Cq(&q), &opts);
    }

    /// A rejected update (the post-update rebuild fails) rolls the
    /// database back completely: same facts, same provenance, same
    /// values, and the session keeps serving.
    #[test]
    fn rolled_back_updates_leave_the_database_unchanged(
        seed in 0u64..4000,
    ) {
        // The self-join routes Auto to brute force; capping the limit
        // at the current fact count makes any endogenous insert fail
        // its rebuild.
        let q = parse_cq("q() :- C(x, y), C(y, x)").unwrap();
        let cfg = RandomDbConfig {
            domain: 3,
            facts_per_relation: 3,
            seed,
            ..Default::default()
        };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 10);
        let opts = ShapleyOptions::auto().brute_force_limit(db.endo_count());
        let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &opts).unwrap();
        let before_db = session.database().to_string();
        let before = session.report().unwrap();
        let err = session
            .insert_fact("C", &["fresh", "fresh"], Provenance::Endogenous)
            .unwrap_err();
        prop_assert!(matches!(err, CoreError::TooManyEndogenousFacts { .. }));
        // Bit-identical database and answers; a healthy session.
        prop_assert_eq!(session.database().to_string(), before_db);
        prop_assert!(!session.is_poisoned());
        prop_assert_eq!(session.stats().rolled_back, 1);
        prop_assert_eq!(session.stats().updates, 0);
        let after = session.report().unwrap();
        for (x, y) in before.entries.iter().zip(&after.entries) {
            prop_assert_eq!(&x.value, &y.value, "{}", &x.rendered);
        }
    }

    /// The efficiency axiom holds for aggregate sessions after updates
    /// (aggregates re-prepare: candidates themselves shift).
    #[test]
    fn aggregate_session_updates_keep_efficiency(
        seed in 0u64..4000,
        steps in 1usize..4,
    ) {
        let q = parse_cq("qa(c) :- A(s, c), !B(s)").unwrap();
        let cfg = RandomDbConfig {
            domain: 3,
            facts_per_relation: 3,
            seed,
            ..Default::default()
        };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 10);
        let opts = ShapleyOptions::auto();
        let mut session =
            ShapleySession::prepare_aggregate(&db, &q, AggregateFunction::Count, &opts).unwrap();
        for step in 0..steps as u64 {
            apply_update(&mut session, seed.wrapping_add(step).wrapping_mul(0x1B873593));
            prop_assume!(session.database().endo_count() <= 12);
            let report = session.aggregate_report().unwrap();
            prop_assert!(report.efficiency_holds(), "over\n{}", session.database());
            // Per-fact free function agrees with the session's engines.
            for entry in &report.entries {
                let v = aggregate_shapley(
                    session.database(), &q, &AggregateFunction::Count, entry.fact, &opts,
                ).unwrap();
                prop_assert_eq!(&entry.value, &v, "{}", &entry.rendered);
            }
        }
    }
}

/// The maintained aggregate report equals a fresh `prepare_aggregate`
/// on the same database, bit for bit: values, totals and pruning stats.
fn assert_aggregate_matches_fresh(
    session: &ShapleySession,
    q: &ConjunctiveQuery,
    opts: &ShapleyOptions,
) {
    let fresh =
        ShapleySession::prepare_aggregate(session.database(), q, AggregateFunction::Count, opts)
            .unwrap();
    let (a, b) = (session.report().unwrap(), fresh.report().unwrap());
    assert!(a.efficiency_holds(), "over\n{}", session.database());
    assert_eq!(a.total, b.total);
    assert_eq!(a.expected_total, b.expected_total);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.entries.len(), b.entries.len());
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.fact, y.fact);
        assert_eq!(
            x.value,
            y.value,
            "{} over\n{}",
            x.rendered,
            session.database()
        );
    }
}

/// Updates that keep an aggregate's candidate list patch its compiled
/// terms in place; an insert that adds a candidate rebuilds.
#[test]
fn aggregate_updates_keeping_the_candidates_are_incremental() {
    let q = parse_cq("qa(c) :- A(s, c), !B(s)").unwrap();
    let db = Database::parse(
        "endo A(s1, c1)\nendo A(s2, c1)\nendo A(s2, c2)\nendo A(s3, c2)\n\
         endo B(s1)\nexo B(s3)\nendo B(s4)\n",
    )
    .unwrap();
    let opts = ShapleyOptions::auto();
    let mut session =
        ShapleySession::prepare_aggregate(&db, &q, AggregateFunction::Count, &opts).unwrap();
    assert_eq!(session.strategy(), Some(ResolvedStrategy::Hierarchical));
    assert_eq!(session.report().unwrap().stats.aggregate_candidates, 2);
    assert_aggregate_matches_fresh(&session, &q, &opts);

    let b1 = session.database().find_fact("B", &["s1"]).unwrap();
    let b4 = session.database().find_fact("B", &["s4"]).unwrap();
    session.set_exogenous(b1, true).unwrap();
    assert_aggregate_matches_fresh(&session, &q, &opts);
    session.set_exogenous(b1, false).unwrap();
    assert_aggregate_matches_fresh(&session, &q, &opts);
    session
        .insert_fact("B", &["s2"], Provenance::Endogenous)
        .unwrap();
    assert_aggregate_matches_fresh(&session, &q, &opts);
    session.retract_fact(b4).unwrap();
    assert_aggregate_matches_fresh(&session, &q, &opts);
    let stats = session.stats();
    assert_eq!(stats.updates, 4);
    assert_eq!(stats.full_recompiles, 0, "{stats:?}");
    assert_eq!(stats.incremental_updates, 4, "{stats:?}");

    // A new country is a new candidate: the terms no longer stand for
    // the candidate list, so the session rebuilds.
    session
        .insert_fact("A", &["s1", "c3"], Provenance::Endogenous)
        .unwrap();
    assert_eq!(session.stats().full_recompiles, 1);
    assert_eq!(session.stats().incremental_updates, 4);
    assert_eq!(session.report().unwrap().stats.aggregate_candidates, 3);
    assert_aggregate_matches_fresh(&session, &q, &opts);
}
