//! Property-based equivalence of the batched all-facts engine.
//!
//! The batched compiled report must be *bit-identical* (exact
//! rationals) to the independent per-fact paths on randomized
//! hierarchical CQ¬ instances — positive and negated atoms, exogenous
//! mixes — and must satisfy the efficiency axiom on every generated
//! instance. `shapley_by_permutations` ties both back to the textbook
//! definition of the Shapley value on the small instances.

use cqshap::core::reference::shapley_report_per_fact;
use cqshap::prelude::*;
use cqshap::workloads::random_db::RandomDbConfig;
use proptest::prelude::*;

/// The batched report of a session prepared for `q`.
fn session_report(
    db: &Database,
    q: &ConjunctiveQuery,
    options: &ShapleyOptions,
) -> Result<ShapleyReport, CoreError> {
    ShapleySession::prepare(db, AnyQuery::Cq(q), options)?.report()
}

/// Hierarchical CQ¬s with positive atoms, negated atoms, and constants.
const HIERARCHICAL: &[&str] = &[
    "q() :- A(x), !B(x), C(x, y)",
    "q() :- A(x), B(x)",
    "q() :- C(x, y), !D(x, y)",
    "q() :- A(x), C(x, y), !D(x, y), E(x, y, z)",
    "q() :- A(x), !B(x), F(y), !G(y)",
    "q() :- C(x, 'd0'), !B(x)",
    "q() :- A(x), !B(x), C(x, y), !D(x, y)",
];

/// Relations to declare exogenous, per catalog query, in the
/// "exogenous mix" runs (only relations that carry no endogenous facts
/// may be declared, so the generator is told up front).
const EXO_MIXES: &[&[&str]] = &[&[], &["A"], &["C"], &["A", "F"]];

fn build(
    qi: usize,
    mix: usize,
    seed: u64,
    domain: usize,
    facts: usize,
) -> (ConjunctiveQuery, Database) {
    let q = parse_cq(HIERARCHICAL[qi]).unwrap();
    let exo: Vec<String> = EXO_MIXES[mix % EXO_MIXES.len()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cfg = RandomDbConfig {
        domain,
        facts_per_relation: facts,
        seed,
        exogenous_relations: exo,
        ..Default::default()
    };
    let db = cfg.generate(&q);
    (q, db)
}

/// The hierarchical counter over materialized copies: the trait's
/// default `counts_masked` rebuilds `D ∖ {f}` and `D` with `f`
/// exogenized instead of masking a view.
struct Materialized;

impl SatCountOracle for Materialized {
    fn counts(&self, db: &Database, q: AnyQuery<'_>) -> Result<Vec<BigUint>, CoreError> {
        HierarchicalCounter.counts(db, q)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched report values equal the per-fact `|Sat|` oracle — and
    /// the efficiency axiom holds exactly on every generated instance.
    #[test]
    fn batched_report_matches_per_fact_oracle(
        qi in 0..HIERARCHICAL.len(),
        mix in 0usize..4,
        seed in 0u64..5000,
        dom in 2usize..5,
        facts in 2usize..8,
    ) {
        let (q, db) = build(qi, mix, seed, dom, facts);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 16);
        let opts = ShapleyOptions::default();
        let report = session_report(&db, &q, &opts).unwrap();
        prop_assert!(report.efficiency_holds(), "efficiency on {} over\n{}", q, db);
        let baseline = shapley_report_per_fact(&db, AnyQuery::Cq(&q), &opts).unwrap();
        for &f in db.endo_facts() {
            let entry = report.entry(f).unwrap();
            prop_assert_eq!(entry.fact, f);
            let via_counts =
                shapley_via_counts(&db, AnyQuery::Cq(&q), f, &HierarchicalCounter).unwrap();
            prop_assert_eq!(&entry.value, &via_counts, "{} on\n{}", db.render_fact(f), db);
            let seeded = &baseline.entry(f).unwrap().value;
            prop_assert_eq!(&entry.value, seeded, "seed path {} on\n{}", db.render_fact(f), db);
        }
    }

    /// The batched values are bit-identical to the reduction over the
    /// counts of the materialized modified databases. (The engine's own
    /// count pairs are checked against the same copies by a unit test
    /// of `cqshap-core`'s `compiled` module.)
    #[test]
    fn batched_counts_match_materialized_copies(
        qi in 0..HIERARCHICAL.len(),
        seed in 0u64..3000,
    ) {
        let (q, db) = build(qi, 0, seed, 3, 4);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 12);
        let session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
        for &f in db.endo_facts() {
            let want = shapley_via_counts(&db, AnyQuery::Cq(&q), f, &Materialized).unwrap();
            prop_assert_eq!(session.value(f).unwrap(), want, "{} on\n{}", db.render_fact(f), db);
        }
    }

    /// On instances small enough for `|Dn|!` enumeration, the batched
    /// values also equal the permutation definition itself.
    #[test]
    fn batched_report_matches_permutations(
        qi in 0..HIERARCHICAL.len(),
        mix in 0usize..4,
        seed in 0u64..2000,
    ) {
        let (q, db) = build(qi, mix, seed, 3, 3);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 7);
        let report = session_report(&db, &q, &ShapleyOptions::default()).unwrap();
        prop_assert!(report.efficiency_holds());
        for &f in db.endo_facts() {
            let p = shapley_by_permutations(&db, AnyQuery::Cq(&q), f, 9, None).unwrap();
            prop_assert_eq!(
                &report.entry(f).unwrap().value, &p,
                "{} on\n{}", db.render_fact(f), db
            );
        }
    }
}

/// The `ExoShap` strategy routes through the same batched engine after
/// the (shared) rewriting; its report must match brute force.
#[test]
fn exoshap_report_is_batched_and_matches_brute_force() {
    let q = parse_cq("q() :- !R(x, w), S(z, x), !P(z, w), T(y, w)").unwrap();
    for seed in 0..6u64 {
        let cfg = RandomDbConfig {
            domain: 3,
            facts_per_relation: 3,
            seed,
            exogenous_relations: vec!["S".into(), "P".into()],
            ..Default::default()
        };
        let db = cfg.generate(&q);
        if db.endo_count() == 0 || db.endo_count() > 12 {
            continue;
        }
        // `cqshap::prelude::Strategy` collides with proptest's trait of
        // the same name under the glob imports — qualify explicitly.
        let exo = ShapleyOptions::with_strategy(cqshap::core::shapley::Strategy::ExoShap);
        let brute =
            ShapleyOptions::with_strategy(cqshap::core::shapley::Strategy::BruteForceSubsets);
        let batched = session_report(&db, &q, &exo).unwrap();
        assert!(batched.efficiency_holds(), "seed {seed}");
        let reference = session_report(&db, &q, &brute).unwrap();
        for &f in db.endo_facts() {
            assert_eq!(
                batched.entry(f).unwrap().value,
                reference.entry(f).unwrap().value,
                "{} (seed {seed}) on\n{}",
                db.render_fact(f),
                db
            );
        }
    }
}

/// An `always_false` rewriting outcome (empty fully-exogenous
/// component) must yield an all-zero report that satisfies efficiency.
#[test]
fn always_false_rewrite_gives_all_zero_values() {
    let mut db = Database::parse("endo S(a)\nendo S(b)\n").unwrap();
    let r = db.add_relation("R", 1).unwrap();
    db.declare_exogenous_relation(r).unwrap();
    let q = parse_cq("q() :- S(x), R(u)").unwrap();
    let options = ShapleyOptions::with_strategy(cqshap::core::shapley::Strategy::ExoShap);
    let report = session_report(&db, &q, &options).unwrap();
    assert!(report.efficiency_holds());
    assert!(report.total.is_zero());
    for &f in db.endo_facts() {
        assert!(report.entry(f).unwrap().value.is_zero());
    }
}

/// `ShapleyReport::entry` is an indexed lookup: it answers exactly the
/// endogenous facts and rejects everything else.
#[test]
fn report_entry_lookup() {
    let db = cqshap::workloads::figure_1_database();
    let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
    let report = session_report(&db, &q1, &ShapleyOptions::default()).unwrap();
    for &f in db.endo_facts() {
        assert_eq!(report.entry(f).unwrap().fact, f);
    }
    let exo_fact = db.find_fact("Stud", &["Adam"]).unwrap();
    assert!(report.entry(exo_fact).is_none());
}

/// On the report benchmark workload, the batched report is efficient
/// and bit-identical to the per-fact reference report.
#[test]
fn report_workload_matches_per_fact_reference() {
    let db = cqshap::workloads::report_benchmark_db(64);
    let q1 = cqshap::workloads::queries::q1();
    let opts = ShapleyOptions::default();
    let batched = session_report(&db, &q1, &opts).unwrap();
    assert!(batched.efficiency_holds());
    let per_fact = shapley_report_per_fact(&db, AnyQuery::Cq(&q1), &opts).unwrap();
    assert_eq!(batched.entries.len(), per_fact.entries.len());
    for (a, b) in batched.entries.iter().zip(&per_fact.entries) {
        assert_eq!((a.fact, &a.value), (b.fact, &b.value), "{}", a.rendered);
    }
}
