//! Property-based equivalence of the inclusion–exclusion union engine
//! and the aggregate decomposition.
//!
//! A union session's report must be *bit-identical* (exact rationals)
//! to the per-fact brute-force path on randomized 2–3-disjunct UCQ¬
//! instances — disjoint and overlapping relation sets, exogenous mixes
//! — and must satisfy the efficiency axiom on every generated instance;
//! `shapley_by_permutations` ties it back to the textbook definition on
//! the small ones. An aggregate session's report and the per-fact
//! `aggregate_shapley_per_fact` must satisfy the efficiency axiom
//! `Σ_f Shapley_agg(f) = agg(D) − agg(Dx)` on random Count and Sum
//! instances, agreeing with each other.

use cqshap::core::reference::{aggregate_shapley_per_fact, shapley_report_per_fact};
use cqshap::core::Strategy;
use cqshap::prelude::*;
use cqshap::workloads::random_db::RandomDbConfig;
use proptest::prelude::*;

/// The report of a session prepared for the union `u`.
fn union_report(db: &Database, u: &UnionQuery, options: &ShapleyOptions) -> ShapleyReport {
    ShapleySession::prepare(db, AnyQuery::Union(u), options)
        .unwrap()
        .report()
        .unwrap()
}

/// The report of a session prepared for the aggregate `agg` over `q`.
fn aggregate_session_report(
    db: &Database,
    q: &ConjunctiveQuery,
    agg: &AggregateFunction,
    options: &ShapleyOptions,
) -> ShapleyReport {
    ShapleySession::prepare_aggregate(db, q, agg.clone(), options)
        .unwrap()
        .report()
        .unwrap()
}

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
        let report = union_report(&db, &u, &opts);
        prop_assert!(report.efficiency_holds(), "efficiency on {} over\n{}", u, db);
        let brute = BruteForceCounter::default();
        for &f in db.endo_facts() {
            let want = shapley_via_counts(&db, AnyQuery::Union(&u), f, &brute).unwrap();
            let entry = report.entry(f).unwrap();
            prop_assert_eq!(&entry.value, &want, "{} on\n{}", db.render_fact(f), db);
        }
        // The per-fact reference path is bit-identical too.
        let per_fact = shapley_report_per_fact(&db, AnyQuery::Union(&u), &opts).unwrap();
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
        let report = union_report(&db, &u, &ShapleyOptions::default());
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
    /// on random Count instances, with the session's report agreeing
    /// with the per-fact `aggregate_shapley_per_fact` decomposition.
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
        let report = aggregate_session_report(&db, &q, &agg, &opts);
        prop_assert!(report.efficiency_holds(), "efficiency on {} over\n{}", q, db);
        let full = aggregate_value(&db, &World::full(&db), &q, &agg).unwrap();
        let empty = aggregate_value(&db, &World::empty(&db), &q, &agg).unwrap();
        prop_assert_eq!(&report.expected_total, &(full - empty));
        let mut total = BigRational::zero();
        for &f in db.endo_facts() {
            let v = aggregate_shapley_per_fact(&db, &q, &agg, f, &opts).unwrap();
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
        let report = aggregate_session_report(&db, &q, &agg, &opts);
        prop_assert!(report.efficiency_holds(), "efficiency over\n{db}");
        let full = aggregate_value(&db, &World::full(&db), &q, &agg).unwrap();
        let empty = aggregate_value(&db, &World::empty(&db), &q, &agg).unwrap();
        prop_assert_eq!(&report.expected_total, &(full - empty));
        let mut total = BigRational::zero();
        for &f in db.endo_facts() {
            total += &aggregate_shapley_per_fact(&db, &q, &agg, f, &opts).unwrap();
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
    let batched = union_report(&db, &u, &opts);
    assert!(batched.efficiency_holds());
    let per_fact = shapley_report_per_fact(&db, AnyQuery::Union(&u), &opts).unwrap();
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
    let report = union_report(&big, &u, &opts);
    assert!(report.efficiency_holds());
    // The explicit Hierarchical strategy takes the same path.
    let hier = ShapleyOptions::with_strategy(cqshap::core::shapley::Strategy::Hierarchical);
    let hreport = union_report(&big, &u, &hier);
    for (a, b) in report.entries.iter().zip(&hreport.entries) {
        assert_eq!(a.value, b.value, "{}", a.rendered);
    }
}

/// The aggregate benchmark pairing: the session report of the
/// per-course count on the report workload agrees with the per-fact
/// decomposition and satisfies efficiency.
#[test]
fn aggregate_benchmark_workload_is_consistent() {
    let q = cqshap::workloads::queries::per_course_count();
    let db = cqshap::workloads::report_benchmark_db(32);
    let agg = AggregateFunction::Count;
    let opts = ShapleyOptions::default();
    let report = aggregate_session_report(&db, &q, &agg, &opts);
    assert!(report.efficiency_holds());
    for entry in report.entries.iter().take(8) {
        let v = aggregate_shapley_per_fact(&db, &q, &agg, entry.fact, &opts).unwrap();
        assert_eq!(entry.value, v, "{}", entry.rendered);
    }
}

/// The Shapley values of the numeric game `S ↦ agg(S ∪ Dx)` by
/// enumerating all `|Dn|!` orders — an oracle that shares no code with
/// the aggregate plan, its candidates or its counting terms.
fn aggregate_game_shapley(
    db: &Database,
    q: &ConjunctiveQuery,
    agg: &AggregateFunction,
) -> Vec<BigRational> {
    let facts = db.endo_facts().to_vec();
    let m = facts.len();
    assert!(m <= 6, "the oracle enumerates m! orders");
    let mut totals = vec![BigRational::zero(); m];
    let mut order: Vec<usize> = (0..m).collect();
    let mut orders = 0i64;
    loop {
        let mut world = World::empty(db);
        let mut before = aggregate_value(db, &world, q, agg).unwrap();
        for &i in &order {
            world.insert(db, facts[i]);
            let after = aggregate_value(db, &world, q, agg).unwrap();
            totals[i] += &(&after - &before);
            before = after;
        }
        orders += 1;
        if !next_permutation(&mut order) {
            break;
        }
    }
    let count = BigRational::from(orders);
    totals.into_iter().map(|t| t / count.clone()).collect()
}

/// Advances `order` to the next lexicographic permutation; `false`
/// after the last one.
fn next_permutation(order: &mut [usize]) -> bool {
    let Some(i) = (1..order.len()).rev().find(|&i| order[i - 1] < order[i]) else {
        return false;
    };
    let j = (i..order.len())
        .rev()
        .find(|&j| order[j] > order[i - 1])
        .unwrap();
    order.swap(i - 1, j);
    order[i..].reverse();
    true
}

/// The session's aggregate report equals the permutation oracle per
/// fact, on every route a candidate shape can take, for Count and Sum
/// (with weights beyond 2^64), and `aggregate_shapley_per_fact` agrees.
#[test]
fn aggregate_report_matches_the_permutation_oracle() {
    // Hierarchical candidates, with a weight above 2^64.
    let hierarchical = "exo Stud(a)\nexo Stud(b)\nendo TA(a)\nendo TA(b)\n\
         endo Reg(a, 36893488147419103232)\nendo Reg(a, -3)\nendo Reg(b, -3)\n\
         endo Reg(b, 7)\n";
    // Non-hierarchical, but R is exogenous: no non-hierarchical path,
    // so every candidate is rewritten by ExoShap.
    let exoshap = "exorel R\nexo R(a)\nexo R(b)\nendo S(a, y1)\nendo S(b, y2)\n\
         endo S(a, y2)\nendo T(y1)\nendo T(y2)\n\
         exo W(y1, 18446744073709551621)\nexo W(y2, -7)\nexo W(y2, 3)\n";
    // A self-join: Auto enumerates every candidate.
    let self_join = "exo P(x0, 12345678901234567890123)\nexo P(x1, 5)\nexo P(x2, -4)\n\
         endo Q(x0, x1)\nendo Q(x1, x0)\nendo Q(x2, x2)\nendo Q(x1, x2)\nexo Q(x2, x0)\n";
    let sum = || AggregateFunction::Sum {
        weight_var: "w".into(),
    };
    let cases = [
        (
            hierarchical,
            "qc(w) :- Stud(x), !TA(x), Reg(x, w)",
            AggregateFunction::Count,
            Strategy::Auto,
            ResolvedStrategy::Hierarchical,
        ),
        (
            hierarchical,
            "qs(w) :- Stud(x), !TA(x), Reg(x, w)",
            sum(),
            Strategy::Auto,
            ResolvedStrategy::Hierarchical,
        ),
        (
            exoshap,
            "qc(w) :- R(x), S(x, y), T(y), W(y, w)",
            AggregateFunction::Count,
            Strategy::Auto,
            ResolvedStrategy::ExoShap,
        ),
        (
            exoshap,
            "qs(w) :- R(x), S(x, y), T(y), W(y, w)",
            sum(),
            Strategy::Auto,
            ResolvedStrategy::ExoShap,
        ),
        (
            self_join,
            "qc(w) :- P(x, w), Q(x, z), !Q(z, x)",
            AggregateFunction::Count,
            Strategy::Auto,
            ResolvedStrategy::BruteForce,
        ),
        (
            self_join,
            "qs(w) :- P(x, w), Q(x, z), !Q(z, x)",
            sum(),
            Strategy::Auto,
            ResolvedStrategy::BruteForce,
        ),
        (
            self_join,
            "qs(w) :- P(x, w), Q(x, z), !Q(z, x)",
            sum(),
            Strategy::BruteForcePermutations,
            ResolvedStrategy::Permutations,
        ),
    ];
    for (text, query, agg, strategy, route) in cases {
        let db = Database::parse(text).unwrap();
        let q = parse_cq(query).unwrap();
        let opts = ShapleyOptions::with_strategy(strategy);
        let session = ShapleySession::prepare_aggregate(&db, &q, agg.clone(), &opts).unwrap();
        assert_eq!(session.strategy(), Some(route), "{query}");
        let report = session.report().unwrap();
        assert!(report.efficiency_holds(), "{query}");
        let oracle = aggregate_game_shapley(&db, &q, &agg);
        for (&f, want) in db.endo_facts().iter().zip(&oracle) {
            let entry = report.entry(f).unwrap();
            assert_eq!(&entry.value, want, "{query}: {}", entry.rendered);
            let single = aggregate_shapley_per_fact(&db, &q, &agg, f, &opts).unwrap();
            assert_eq!(&single, want, "{query}: {}", entry.rendered);
        }
        assert!(
            oracle.iter().any(|v| !v.is_zero()),
            "{query}: a vacuous case"
        );
    }
}
