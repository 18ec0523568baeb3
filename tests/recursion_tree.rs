//! The compiled recursion trees against the uncompiled recursion.
//!
//! A fact's masked pair is one walk of its root group's tree, and an
//! update is the same walk with the new values kept. On random small
//! databases, every walk must reproduce the uncompiled counting
//! recursion (`count_sat_hierarchical_masked`) and world enumeration
//! bit for bit, and an engine maintained through random flip, insert
//! and retract sequences must equal a fresh compile. The catalog is
//! `cross_validation.rs`'s hierarchical one plus a query four splits
//! deep with negated atoms below the root-group level.

use cqshap::core::count_sat_hierarchical_masked;
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

/// Every endogenous fact's masked counts equal the uncompiled
/// recursion on the masked database.
fn assert_counts_match_recursion(db: &Database, q: &ConjunctiveQuery, engine: &CompiledCount) {
    for &f in db.endo_facts() {
        let masked = |mask| count_sat_hierarchical_masked(db, q, mask).unwrap();
        assert_eq!(
            engine.counts_pair(db, f).unwrap(),
            (masked(FactMask::Removed(f)), masked(FactMask::Exogenous(f))),
            "{} for {q} over\n{db}",
            db.render_fact(f)
        );
    }
}

/// A maintained counting engine equals a fresh compile and the
/// uncompiled recursion.
fn assert_count_matches_fresh(db: &Database, q: &ConjunctiveQuery, engine: &CompiledCount) {
    let fresh = CompiledCount::compile(db, q, 0, None).unwrap();
    assert_eq!(
        engine.total_counts(),
        fresh.total_counts(),
        "totals for {q} over\n{db}"
    );
    assert_counts_match_recursion(db, q, engine);
    for &f in db.endo_facts() {
        assert_eq!(
            engine.value(db, f).unwrap(),
            fresh.value(db, f).unwrap(),
            "{} for {q} over\n{db}",
            db.render_fact(f)
        );
    }
}

/// A maintained probability engine equals a fresh compile.
fn assert_probability_matches_fresh(
    db: &Database,
    q: &ConjunctiveQuery,
    engine: &CompiledProbability,
) {
    let fresh =
        CompiledProbability::compile(db, q, engine.probabilities().clone(), 0, None).unwrap();
    assert_eq!(
        engine.probability(),
        fresh.probability(),
        "Pr[q] for {q} over\n{db}"
    );
    for &f in db.endo_facts() {
        assert_eq!(
            engine.conditioned_pair(db, f).unwrap(),
            fresh.conditioned_pair(db, f).unwrap(),
            "{} conditionals for {q} over\n{db}",
            db.render_fact(f)
        );
    }
}

/// Applies the update drawn from `h`: flip or retract a live fact of
/// the query's relations, or insert a fresh tuple (over the two
/// generated constants and one new one). `None` when the draw hits an
/// existing tuple.
fn random_update(db: &mut Database, q: &ConjunctiveQuery, h: u64) -> Option<EngineUpdate> {
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
            Some(EngineUpdate::ProvenanceFlipped(f))
        }
        1 if !live.is_empty() => {
            let f = live[(h >> 8) as usize % live.len()];
            db.retract_fact(f).ok()?;
            Some(EngineUpdate::Retracted(f))
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
            Some(EngineUpdate::Inserted(f))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One walk per fact reproduces the uncompiled recursion under both
    /// masks.
    #[test]
    fn masked_walks_match_the_recursion(qi in 0..QUERIES.len(), seed in 0u64..5000, facts in 2usize..8) {
        let q = parse_cq(QUERIES[qi]).unwrap();
        let db = random_db(&q, seed, facts);
        let engine = CompiledCount::compile(&db, &q, 0, None).unwrap();
        assert_counts_match_recursion(&db, &q, &engine);
    }

    /// The probability domain's walks are the conditionals of world
    /// enumeration.
    #[test]
    fn conditioned_walks_match_enumeration(qi in 0..QUERIES.len(), seed in 0u64..5000, facts in 2usize..6) {
        let q = parse_cq(QUERIES[qi]).unwrap();
        let db = random_db(&q, seed, facts);
        prop_assume!(db.endo_count() <= 12);
        let probs = cycled_probs(&db);
        let engine = CompiledProbability::compile(&db, &q, probs.clone(), 0, None).unwrap();
        let enumerate = |forced| {
            probability_by_enumeration(&db, AnyQuery::Cq(&q), &probs, forced, 16).unwrap()
        };
        prop_assert_eq!(engine.probability(), &enumerate(None), "{} over\n{}", q, db);
        for &f in db.endo_facts() {
            prop_assert_eq!(
                engine.conditioned_pair(&db, f).unwrap(),
                (enumerate(Some((f, false))), enumerate(Some((f, true)))),
                "{} for {} over\n{}",
                db.render_fact(f),
                q,
                db
            );
        }
    }

    /// Engines maintained through random flips, inserts and retractions
    /// equal fresh compiles after every step.
    #[test]
    fn maintained_trees_match_fresh_compiles(qi in 0..QUERIES.len(), seed in 0u64..5000, facts in 2usize..6) {
        let q = parse_cq(QUERIES[qi]).unwrap();
        let mut db = random_db(&q, seed, facts);
        let mut count = CompiledCount::compile(&db, &q, 0, None).unwrap();
        let probs = FactProbabilities::uniform(rat(1, 3));
        let mut prob = CompiledProbability::compile(&db, &q, probs.clone(), 0, None).unwrap();
        for step in 0..12u64 {
            let Some(change) = random_update(&mut db, &q, hash(seed, step)) else {
                continue;
            };
            if !count.update(&db, change).unwrap() {
                count = CompiledCount::compile(&db, &q, 0, None).unwrap();
            }
            if !prob.update(&db, change).unwrap() {
                prob = CompiledProbability::compile(&db, &q, probs.clone(), 0, None).unwrap();
            }
            assert_count_matches_fresh(&db, &q, &count);
            assert_probability_matches_fresh(&db, &q, &prob);
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
    let mut db = Database::parse(
        "exo A(a)\nendo C(a, b)\nendo D(a, b)\nendo E(a, b, z1)\n\
         endo E(a, b2, z1)\nendo A(a2)\nendo C(a2, b)\nendo E(a2, b, z1)\n",
    )
    .unwrap();
    let mut count = CompiledCount::compile(&db, &q, 0, None).unwrap();
    let probs = FactProbabilities::uniform(rat(2, 5));
    let mut prob = CompiledProbability::compile(&db, &q, probs, 0, None).unwrap();
    let mut apply = |db: &Database, change: EngineUpdate| {
        assert!(count.update(db, change).unwrap(), "{change:?} recompiled");
        assert!(prob.update(db, change).unwrap(), "{change:?} recompiled");
        assert_count_matches_fresh(db, &q, &count);
        assert_probability_matches_fresh(db, &q, &prob);
    };
    // A new z value under y = b.
    let z2 = db.add_endo("E", &["a", "b", "z2"]).unwrap();
    apply(&db, EngineUpdate::Inserted(z2));
    // C(a, b2) gives the junk E(a, b2, z1) a root value y = b2.
    let b2 = db.add_endo("C", &["a", "b2"]).unwrap();
    apply(&db, EngineUpdate::Inserted(b2));
    // A negated fact inside the new child.
    let d2 = db.add_endo("D", &["a", "b2"]).unwrap();
    apply(&db, EngineUpdate::Inserted(d2));
    db.set_fact_provenance(d2, Provenance::Exogenous).unwrap();
    apply(&db, EngineUpdate::ProvenanceFlipped(d2));
    // Retracting z2's only E fact ends that z value ...
    db.retract_fact(z2).unwrap();
    apply(&db, EngineUpdate::Retracted(z2));
    // ... and retracting C(a, b2) turns y = b2's facts back into junk.
    db.retract_fact(b2).unwrap();
    apply(&db, EngineUpdate::Retracted(b2));
    // A junk fact flips and leaves.
    let junk = db.find_fact("E", &["a", "b2", "z1"]).unwrap();
    db.set_fact_provenance(junk, Provenance::Exogenous).unwrap();
    apply(&db, EngineUpdate::ProvenanceFlipped(junk));
    db.retract_fact(junk).unwrap();
    apply(&db, EngineUpdate::Retracted(junk));
}
