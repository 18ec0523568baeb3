//! The compiled recursion trees against the uncompiled recursion, as
//! a session serves them.
//!
//! A fact's masked pair is one walk of its root group's tree, and an
//! update is the same walk with the new values kept. On random small
//! databases, a session's values must reproduce the reduction over the
//! uncompiled counting recursion, and its probabilities and expected
//! marginals world enumeration, bit for bit; a session maintained
//! through random flip, insert and retract sequences must equal a fresh
//! prepare. The catalog is `cross_validation.rs`'s hierarchical one
//! plus a query four splits deep with negated atoms below the
//! root-group level. The walks themselves (masked count pairs,
//! conditionals, raw update sequences) are pinned by the unit tests of
//! `cqshap-core`'s `compiled` module.

mod common;

use common::{replay, Update};
use cqshap::prelude::*;
use cqshap::workloads::random_db::RandomDbConfig;
use proptest::prelude::*;

const QUERIES: &[&str] = &[
    "q() :- A(x), !B(x), C(x, y)",
    "q() :- A(x), B(x)",
    "q() :- C(x, y), !D(x, y)",
    "q() :- A(x), C(x, y), !D(x, y), E(x, y, z)",
    "q() :- A(x), !B(x), F(y), !G(y)",
    "q() :- C(x, 'd0'), !B(x)",
    // Splits on x (the root groups), y, z and w; `D` and `H` are
    // negated below the root-group level.
    "q() :- A(x), C(x, y), !D(x, y), E(x, y, z), F(x, y, z, w), !H(x, y, z, w)",
];

fn rat(p: i64, q: i64) -> BigRational {
    BigRational::from_i64_ratio(p, q)
}

fn random_db(q: &ConjunctiveQuery, seed: u64, facts: usize) -> Database {
    // Two constants keep the deep query's nested splits populated.
    RandomDbConfig {
        domain: 2,
        facts_per_relation: facts,
        seed,
        ..Default::default()
    }
    .generate(q)
}

/// Per-fact probabilities cycling through a few exact values.
fn cycled_probs(db: &Database) -> FactProbabilities {
    let cycle = [rat(1, 3), rat(1, 2), rat(3, 4), rat(2, 5)];
    let mut probs = FactProbabilities::uniform(rat(1, 2));
    for (f, p) in db.endo_facts().iter().zip(cycle.iter().cycle()) {
        probs.set(*f, p.clone());
    }
    probs
}

fn hash(seed: u64, k: u64) -> u64 {
    (seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .rotate_left(29)
}

/// A session over `db` with the per-fact probabilities `probs`.
fn session_at(db: &Database, q: &ConjunctiveQuery, probs: &FactProbabilities) -> ShapleySession {
    let mut session =
        ShapleySession::prepare(db, AnyQuery::Cq(q), &ShapleyOptions::auto()).unwrap();
    session
        .set_default_probability(probs.default_probability().clone())
        .unwrap();
    for &f in db.endo_facts() {
        session.set_probability(f, probs.get(f).clone()).unwrap();
    }
    session
}

/// A maintained session equals a fresh prepare at the same
/// probabilities: every value, `Pr[q]` and every expected marginal.
fn assert_session_matches_fresh(session: &mut ShapleySession, q: &ConjunctiveQuery) {
    let db = session.database().clone();
    let probs = session.probabilities().clone();
    let mut fresh = session_at(&db, q, &probs);
    let (a, b) = (session.report().unwrap(), fresh.report().unwrap());
    assert!(a.efficiency_holds(), "efficiency for {q} over\n{db}");
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.value, y.value, "{} for {q} over\n{db}", x.rendered);
    }
    assert_eq!(
        session.probability().unwrap(),
        fresh.probability().unwrap(),
        "Pr[q] for {q} over\n{db}"
    );
    for &f in db.endo_facts() {
        assert_eq!(
            session.expected_shapley(f).unwrap(),
            fresh.expected_shapley(f).unwrap(),
            "{} marginal for {q} over\n{db}",
            db.render_fact(f)
        );
    }
}

/// Applies the update drawn from `h`: flip or retract a live fact of
/// the query's relations, or insert a fresh tuple (over the two
/// generated constants and one new one). `None` when the draw hits an
/// existing tuple.
fn random_update(db: &mut Database, q: &ConjunctiveQuery, h: u64) -> Option<Update> {
    let live: Vec<FactId> = db.fact_ids().collect();
    match h % 3 {
        0 if !live.is_empty() => {
            let f = live[(h >> 8) as usize % live.len()];
            let to = if db.fact(f).provenance.is_endogenous() {
                Provenance::Exogenous
            } else {
                Provenance::Endogenous
            };
            db.set_fact_provenance(f, to).ok()?;
            Some(Update::Flipped(f))
        }
        1 if !live.is_empty() => {
            let f = live[(h >> 8) as usize % live.len()];
            db.retract_fact(f).ok()?;
            Some(Update::Retracted(f))
        }
        _ => {
            let atoms = q.atoms();
            let atom = &atoms[(h >> 8) as usize % atoms.len()];
            let names = ["d0", "d1", "n"];
            let tuple: Vec<&str> = (0..atom.terms.len())
                .map(|i| names[(h >> (16 + 2 * i)) as usize % names.len()])
                .collect();
            let provenance = if (h >> 40).is_multiple_of(3) {
                Provenance::Exogenous
            } else {
                Provenance::Endogenous
            };
            let f = db.insert(&atom.relation, &tuple, provenance).ok()?;
            Some(Update::Inserted(f))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every value equals the reduction over the uncompiled recursion's
    /// masked counts.
    #[test]
    fn masked_walks_match_the_recursion(qi in 0..QUERIES.len(), seed in 0u64..5000, facts in 2usize..8) {
        let q = parse_cq(QUERIES[qi]).unwrap();
        let db = random_db(&q, seed, facts);
        let session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
        for &f in db.endo_facts() {
            let want = shapley_via_counts(&db, AnyQuery::Cq(&q), f, &HierarchicalCounter).unwrap();
            prop_assert_eq!(session.value(f).unwrap(), want, "{} for {} over\n{}", db.render_fact(f), q, db);
        }
    }

    /// `Pr[q]` and every expected marginal are those of world
    /// enumeration.
    #[test]
    fn conditioned_walks_match_enumeration(qi in 0..QUERIES.len(), seed in 0u64..5000, facts in 2usize..6) {
        let q = parse_cq(QUERIES[qi]).unwrap();
        let db = random_db(&q, seed, facts);
        prop_assume!(db.endo_count() <= 12);
        let probs = cycled_probs(&db);
        let mut session = session_at(&db, &q, &probs);
        let enumerate = |forced| {
            probability_by_enumeration(&db, AnyQuery::Cq(&q), &probs, forced, 16).unwrap()
        };
        prop_assert_eq!(session.probability().unwrap(), enumerate(None), "{} over\n{}", q, db);
        for &f in db.endo_facts() {
            prop_assert_eq!(
                session.expected_shapley(f).unwrap(),
                enumerate(Some((f, true))) - enumerate(Some((f, false))),
                "{} for {} over\n{}",
                db.render_fact(f),
                q,
                db
            );
        }
    }

    /// Sessions maintained through random flips, inserts and
    /// retractions equal fresh prepares after every step.
    #[test]
    fn maintained_trees_match_fresh_compiles(qi in 0..QUERIES.len(), seed in 0u64..5000, facts in 2usize..6) {
        let q = parse_cq(QUERIES[qi]).unwrap();
        let db = random_db(&q, seed, facts);
        let mut session = session_at(&db, &q, &FactProbabilities::uniform(rat(1, 3)));
        // Build both domains, so the updates maintain them.
        session.report().unwrap();
        session.probability().unwrap();
        for step in 0..12u64 {
            let mut next = session.database().clone();
            let Some(change) = random_update(&mut next, &q, hash(seed, step)) else {
                continue;
            };
            if replay(&mut session, &next, change).is_err() {
                continue;
            }
            assert_session_matches_fresh(&mut session, &q);
        }
    }
}

/// Root values appearing and dying below the root group are absorbed
/// without a recompile: an insert founds a new `z` value inside the
/// `y = b` child, another completes the support of `y = b2` out of a
/// junk `E` fact, and retractions end both again.
#[test]
fn inner_root_values_come_and_go_without_recompiling() {
    let q = parse_cq("q() :- A(x), C(x, y), !D(x, y), E(x, y, z)").unwrap();
    let db = Database::parse(
        "exo A(a)\nendo C(a, b)\nendo D(a, b)\nendo E(a, b, z1)\n\
         endo E(a, b2, z1)\nendo A(a2)\nendo C(a2, b)\nendo E(a2, b, z1)\n",
    )
    .unwrap();
    let mut session = session_at(&db, &q, &FactProbabilities::uniform(rat(2, 5)));
    session.report().unwrap();
    session.probability().unwrap();
    let endo = Provenance::Endogenous;
    let check = |session: &mut ShapleySession, what: &str| {
        assert_eq!(session.stats().full_recompiles, 0, "{what} recompiled");
        assert_session_matches_fresh(session, &q);
    };
    // A new z value under y = b.
    let z2 = session.insert_fact("E", &["a", "b", "z2"], endo).unwrap();
    check(&mut session, "E(a, b, z2)");
    // C(a, b2) gives the junk E(a, b2, z1) a root value y = b2.
    let b2 = session.insert_fact("C", &["a", "b2"], endo).unwrap();
    check(&mut session, "C(a, b2)");
    // A negated fact inside the new child.
    let d2 = session.insert_fact("D", &["a", "b2"], endo).unwrap();
    check(&mut session, "D(a, b2)");
    session.set_exogenous(d2, true).unwrap();
    check(&mut session, "exogenous D(a, b2)");
    // Retracting z2's only E fact ends that z value ...
    session.retract_fact(z2).unwrap();
    check(&mut session, "retracted E(a, b, z2)");
    // ... and retracting C(a, b2) turns y = b2's facts back into junk.
    session.retract_fact(b2).unwrap();
    check(&mut session, "retracted C(a, b2)");
    // A junk fact flips and leaves.
    let junk = session
        .database()
        .find_fact("E", &["a", "b2", "z1"])
        .unwrap();
    session.set_exogenous(junk, true).unwrap();
    check(&mut session, "exogenous E(a, b2, z1)");
    session.retract_fact(junk).unwrap();
    check(&mut session, "retracted E(a, b2, z1)");
    let stats = session.stats();
    assert_eq!(stats.incremental_updates, 8, "{stats:?}");
    assert_eq!(stats.updates, 8, "{stats:?}");
}
