//! Property-based equivalence of the inclusion–exclusion union engine
//! and the aggregate decomposition.
//!
//! `shapley_report_union` must be *bit-identical* (exact rationals) to
//! the per-fact brute-force path on randomized 2–3-disjunct UCQ¬
//! instances — disjoint and overlapping relation sets, exogenous mixes
//! — and must satisfy the efficiency axiom on every generated instance;
//! `shapley_by_permutations` ties it back to the textbook definition on
//! the small ones. `aggregate_shapley` / `aggregate_report` must
//! satisfy the efficiency axiom `Σ_f Shapley_agg(f) = agg(D) − agg(Dx)`
//! on random Count and Sum instances, agreeing with each other.

use cqshap::core::reference::shapley_report_union_per_fact;
use cqshap::prelude::*;
use cqshap::workloads::random_db::RandomDbConfig;
use proptest::prelude::*;

/// 2–3-disjunct UCQ¬ catalog: the first four route through the compiled
/// inclusion–exclusion engine (all intersections hierarchical and
/// self-join-free), the last two share a relation across disjuncts and
/// exercise the `Auto` fallback to brute force.
const UNIONS: &[&str] = &[
    "q1() :- A(x), !B(x), C(x, y); q2() :- F(u), !G(u)",
    "q1() :- A(x), B(x); q2() :- C(x, y), !D(x, y)",
    "q1() :- A(x); q2() :- F(y); q3() :- H(z, w)",
    "q1() :- C(x, 'd0'), !B(x); q2() :- F(y), !G(y); q3() :- A(x), !B(x)",
    "q1() :- A(x), !B(x); q2() :- A(y)",
    "q1() :- A(x), C(x, y); q2() :- C(u, v), !D(u, v)",
];

/// Relations to declare exogenous, per run (only relations that may
/// carry no endogenous facts).
const EXO_MIXES: &[&[&str]] = &[&[], &["A"], &["C"], &["A", "F"]];

fn build_union(
    ui: usize,
    mix: usize,
    seed: u64,
    domain: usize,
    facts: usize,
) -> (UnionQuery, Database) {
    let u = parse_ucq(UNIONS[ui]).unwrap();
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
    let db = cfg.generate_union(&u);
    (u, db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched union report values equal per-fact brute force on the
    /// union itself — and the efficiency axiom holds exactly.
    #[test]
    fn union_report_matches_brute_force(
        ui in 0..UNIONS.len(),
        mix in 0usize..4,
        seed in 0u64..5000,
        dom in 2usize..5,
        facts in 2usize..6,
    ) {
        let (u, db) = build_union(ui, mix, seed, dom, facts);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 14);
        let opts = ShapleyOptions::default();
        let report = shapley_report_union(&db, &u, &opts).unwrap();
        prop_assert!(report.efficiency_holds(), "efficiency on {} over\n{}", u, db);
        let brute = BruteForceCounter::default();
        for &f in db.endo_facts() {
            let want = shapley_via_counts(&db, AnyQuery::Union(&u), f, &brute).unwrap();
            let entry = report.entry(f).unwrap();
            prop_assert_eq!(&entry.value, &want, "{} on\n{}", db.render_fact(f), db);
        }
        // The per-fact reference path is bit-identical too.
        let per_fact = shapley_report_union_per_fact(&db, &u, &opts).unwrap();
        for &f in db.endo_facts() {
            prop_assert_eq!(
                &report.entry(f).unwrap().value,
                &per_fact.entry(f).unwrap().value,
                "per-fact path {} on\n{}", db.render_fact(f), db
            );
        }
    }

    /// On instances small enough for `|Dn|!` enumeration, the batched
    /// union values also equal the permutation definition itself.
    #[test]
    fn union_report_matches_permutations(
        ui in 0..UNIONS.len(),
        mix in 0usize..4,
        seed in 0u64..2000,
    ) {
        let (u, db) = build_union(ui, mix, seed, 3, 2);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 7);
        let report = shapley_report_union(&db, &u, &ShapleyOptions::default()).unwrap();
        prop_assert!(report.efficiency_holds());
        for &f in db.endo_facts() {
            let p = shapley_by_permutations(&db, AnyQuery::Union(&u), f, 9, None).unwrap();
            prop_assert_eq!(
                &report.entry(f).unwrap().value, &p,
                "{} on\n{}", db.render_fact(f), db
            );
        }
    }

    /// `Σ_f Shapley_agg(f) = agg(D) − agg(Dx)` (efficiency by linearity)
    /// on random Count instances, with `aggregate_report` agreeing with
    /// the per-fact `aggregate_shapley` decomposition.
    #[test]
    fn aggregate_count_efficiency(
        qi in 0usize..3,
        seed in 0u64..5000,
        dom in 2usize..5,
        facts in 2usize..6,
    ) {
        let texts = [
            "qa(c) :- A(s, c), !B(s)",
            "qa(c) :- A(s, c), B(s), !D(s, c)",
            "qa(c) :- A(s, c), E(c)",
        ];
        let q = parse_cq(texts[qi]).unwrap();
        let cfg = RandomDbConfig {
            domain: dom,
            facts_per_relation: facts,
            seed,
            ..Default::default()
        };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 12);
        let agg = AggregateFunction::Count;
        let opts = ShapleyOptions::default();
        let report = aggregate_report(&db, &q, &agg, &opts).unwrap();
        prop_assert!(report.efficiency_holds(), "efficiency on {} over\n{}", q, db);
        let full = aggregate_value(&db, &World::full(&db), &q, &agg).unwrap();
        let empty = aggregate_value(&db, &World::empty(&db), &q, &agg).unwrap();
        prop_assert_eq!(&report.expected_total, &(full - empty));
        let mut total = BigRational::zero();
        for &f in db.endo_facts() {
            let v = aggregate_shapley(&db, &q, &agg, f, &opts).unwrap();
            prop_assert_eq!(&v, &report.entry(f).unwrap().value, "{}", db.render_fact(f));
            total += &v;
        }
        prop_assert_eq!(&total, &report.expected_total);
    }

    /// Efficiency for Sum aggregates, with weight constants drawn
    /// beyond the i64 range.
    #[test]
    fn aggregate_sum_efficiency(
        seed in 0u64..5000,
        pairs in 1usize..5,
        huge in 0usize..2,
    ) {
        // Sum{w | P(x, w), !B(x)}: x-values x0..x{pairs-1}, each paired
        // with an integer weight; B facts flip a subset endogenous.
        let mut db = Database::new();
        for i in 0..pairs {
            let w = if huge == 1 && i == 0 {
                format!("1234567890123456789{i}")
            } else {
                format!("{}", (seed as i64 % 17) - 8 + i as i64)
            };
            db.add_exo("P", &[&format!("x{i}"), &w]).unwrap();
        }
        for i in 0..pairs {
            if (seed >> i) & 1 == 0 {
                db.add_endo("B", &[&format!("x{i}")]).unwrap();
            } else if i % 2 == 0 {
                db.add_exo("B", &[&format!("x{i}")]).unwrap();
            }
        }
        prop_assume!(db.endo_count() >= 1);
        let q = parse_cq("qs(w) :- P(x, w), !B(x)").unwrap();
        let agg = AggregateFunction::Sum { weight_var: "w".into() };
        let opts = ShapleyOptions::default();
        let report = aggregate_report(&db, &q, &agg, &opts).unwrap();
        prop_assert!(report.efficiency_holds(), "efficiency over\n{db}");
        let full = aggregate_value(&db, &World::full(&db), &q, &agg).unwrap();
        let empty = aggregate_value(&db, &World::empty(&db), &q, &agg).unwrap();
        prop_assert_eq!(&report.expected_total, &(full - empty));
        let mut total = BigRational::zero();
        for &f in db.endo_facts() {
            total += &aggregate_shapley(&db, &q, &agg, f, &opts).unwrap();
        }
        prop_assert_eq!(&total, &report.expected_total);
    }
}

/// The union benchmark workload itself: batched ≡ per-fact at a small
/// size, plus the compiled engine really engages (no brute fallback —
/// m exceeds the brute-force limit).
#[test]
fn union_benchmark_workload_is_compiled_and_consistent() {
    let u = cqshap::workloads::queries::union_benchmark();
    let db = cqshap::workloads::union_benchmark_db(32);
    let opts = ShapleyOptions::default();
    let batched = shapley_report_union(&db, &u, &opts).unwrap();
    assert!(batched.efficiency_holds());
    let per_fact = shapley_report_union_per_fact(&db, &u, &opts).unwrap();
    for &f in db.endo_facts() {
        assert_eq!(
            batched.entry(f).unwrap().value,
            per_fact.entry(f).unwrap().value,
            "{}",
            db.render_fact(f)
        );
    }
    // m = 64 > brute limit: only the compiled engine can answer Auto.
    let big = cqshap::workloads::union_benchmark_db(64);
    let report = shapley_report_union(&big, &u, &opts).unwrap();
    assert!(report.efficiency_holds());
    // The explicit Hierarchical strategy takes the same path.
    let hier = ShapleyOptions::with_strategy(cqshap::core::shapley::Strategy::Hierarchical);
    let hreport = shapley_report_union(&big, &u, &hier).unwrap();
    for (a, b) in report.entries.iter().zip(&hreport.entries) {
        assert_eq!(a.value, b.value, "{}", a.rendered);
    }
}

/// The aggregate benchmark pairing: `aggregate_report` over the
/// per-course count on the report workload agrees with the per-fact
/// decomposition and satisfies efficiency.
#[test]
fn aggregate_benchmark_workload_is_consistent() {
    let q = cqshap::workloads::queries::per_course_count();
    let db = cqshap::workloads::report_benchmark_db(32);
    let agg = AggregateFunction::Count;
    let opts = ShapleyOptions::default();
    let report = aggregate_report(&db, &q, &agg, &opts).unwrap();
    assert!(report.efficiency_holds());
    for entry in report.entries.iter().take(8) {
        let v = aggregate_shapley(&db, &q, &agg, entry.fact, &opts).unwrap();
        assert_eq!(entry.value, v, "{}", entry.rendered);
    }
}
