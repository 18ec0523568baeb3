//! Integration tests for the anytime answer tier: deadlines on the
//! exact engines, the degradation ladder, the anytime sampler's
//! interval guarantees, and the WSMS floor.
//!
//! The #P-hard regime of the paper (non-hierarchical CQ¬s, Theorem 3.1)
//! is exactly where these paths matter: exact computation cannot be
//! fast, so it must be *interruptible*, and the session must still
//! produce a principled answer.

use cqshap::prelude::*;

/// A non-hierarchical instance (path `x–y` between `R(x)` and `T(y)`)
/// with `pairs` R/S pairs plus one `T` fact: `2·pairs + 1` endogenous
/// facts, rejected by the hierarchical and `ExoShap` strategies.
fn hard_instance(pairs: usize) -> Database {
    let mut db = Database::new();
    for i in 0..pairs {
        db.add_endo("R", &[&format!("a{i}")]).unwrap();
        db.add_endo("S", &[&format!("a{i}"), "u"]).unwrap();
    }
    db.add_endo("T", &["u"]).unwrap();
    db
}

fn hard_query() -> ConjunctiveQuery {
    parse_cq("q() :- R(x), S(x, y), T(y)").unwrap()
}

#[test]
fn hard_instance_under_deadline_returns_deadline_exceeded() {
    // m = 25 routes Auto to brute force (2^25 worlds per root — hours
    // of work); a 50 ms budget must surface DeadlineExceeded promptly
    // instead of hanging.
    let db = hard_instance(12);
    let q = hard_query();
    let options = ShapleyOptions::auto().budget(Budget::wall_ms(50));
    let session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &options).unwrap();
    let t0 = Stopwatch::start();
    let err = session.report().unwrap_err();
    assert!(
        matches!(err, CoreError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got: {err}"
    );
    // Prompt means the same order of magnitude as the deadline, not the
    // hours the full enumeration would take.
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "deadline took {:?} to surface",
        t0.elapsed()
    );
    // A tripped read leaves the session serving: the next (degraded)
    // read answers, one minimal support per R/S pair.
    let wsms = session.wsms(WsmsWeight::Uniform).unwrap();
    assert_eq!(wsms.minimal_supports, 12);
}

#[test]
fn ladder_degrades_instead_of_erroring_under_a_deadline() {
    let db = hard_instance(12);
    let q = hard_query();
    let options = ShapleyOptions::auto().budget(Budget::wall_ms(50));
    let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &options).unwrap();
    let answer = session.report_tiered(&TierPolicy::default()).unwrap();
    assert!(
        !matches!(answer, TieredAnswer::Exact(_)),
        "the exact tier cannot finish 2^25 worlds in 50 ms"
    );
}

#[test]
fn ladder_survives_prepare_time_rejection() {
    // m = 31 exceeds the brute-force limit: every exact strategy
    // rejects the instance at *prepare* time. The fallback constructor
    // still yields a session, and the ladder answers through the
    // degraded tiers.
    let db = hard_instance(15);
    let q = hard_query();
    let options = ShapleyOptions::auto();
    assert!(ShapleySession::prepare(&db, AnyQuery::Cq(&q), &options).is_err());
    let mut session =
        ShapleySession::prepare_with_fallback(&db, AnyQuery::Cq(&q), &options).unwrap();
    assert!(session.is_exact_unavailable());
    let policy = TierPolicy {
        epsilon: 0.2,
        ..TierPolicy::default()
    };
    match session.report_tiered(&policy).unwrap() {
        TieredAnswer::Exact(_) => panic!("no exact engine exists for this session"),
        TieredAnswer::Sampled(report) => {
            assert_eq!(report.entries.len(), db.endo_count());
            assert!(report.converged);
        }
        TieredAnswer::Wsms(report) => assert!(report.minimal_supports > 0),
    }
}

#[test]
fn anytime_intervals_contain_exact_values_on_tractable_instances() {
    // Cross-check against the exact engine on the paper's running
    // example. δ = 0.002 leaves real headroom for the sequential
    // stopping rule's coverage erosion.
    let db = cqshap::workloads::figure_1_database();
    let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
    let exact = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::default())
        .unwrap()
        .report()
        .unwrap();
    let mut state = None;
    let report = shapley_anytime(
        &db,
        AnyQuery::Cq(&q1),
        &AnytimeParams {
            epsilon: 0.04,
            delta: 0.002,
            ..AnytimeParams::default()
        },
        None,
        &mut state,
    )
    .unwrap();
    assert!(report.converged);
    for est in &report.entries {
        let truth = exact.entry(est.fact).unwrap().value.to_f64();
        assert!(
            (est.estimate - truth).abs() <= est.half_width,
            "{}: exact {truth:.4} outside {:.4} ± {:.4}",
            est.rendered,
            est.estimate,
            est.half_width
        );
    }
}

#[test]
fn wsms_floor_matches_the_minimal_support_definition() {
    // q() :- R(x) over two endogenous R facts: the minimal supports are
    // exactly {R(a)} and {R(b)}, each of size 1, so both weightings
    // score each fact 1.
    let mut db = Database::new();
    let a = db.add_endo("R", &["a"]).unwrap();
    let b = db.add_endo("R", &["b"]).unwrap();
    let q = parse_cq("q() :- R(x)").unwrap();
    for weight in [WsmsWeight::Uniform, WsmsWeight::SizeInverse] {
        let report = wsms_report(&db, AnyQuery::Cq(&q), weight, None).unwrap();
        assert_eq!(report.minimal_supports, 2);
        for f in [a, b] {
            let entry = report.entry(f).unwrap();
            assert_eq!(entry.supports, 1);
            assert_eq!(entry.score, BigRational::from_i64_ratio(1, 1));
        }
    }

    // The hard query's instance: the minimal supports are the triples
    // {R(ai), S(ai, u), T(u)} — one per pair, each of size 3.
    let db = hard_instance(4);
    let report = wsms_report(
        &db,
        AnyQuery::Cq(&hard_query()),
        WsmsWeight::SizeInverse,
        None,
    )
    .unwrap();
    assert_eq!(report.minimal_supports, 4);
    let t = db.find_fact("T", &["u"]).unwrap();
    // T(u) is in every minimal support; each contributes 1/3.
    let entry = report.entry(t).unwrap();
    assert_eq!(entry.supports, 4);
    assert_eq!(entry.score, BigRational::from_i64_ratio(4, 3));
}

#[test]
fn sampled_estimates_propagate_errors_instead_of_panicking() {
    // ε, δ outside (0, 1) are input errors, not assertion failures.
    assert!(required_samples(0.0, 0.01).is_err());
    assert!(required_samples(0.05, 1.0).is_err());
    assert!(required_samples(-0.2, 0.5).is_err());
    assert!(required_samples(0.05, 0.01).is_ok());
}

#[test]
fn a_deadline_during_prepare_is_retried_not_reported_as_intractable() {
    // q1 is hierarchical: the work cap trips while compiling it, and
    // nothing about the query is out of reach. Every exact read
    // re-prepares under its own re-armed budget and trips again.
    let db = cqshap::workloads::report_benchmark_db(1024);
    let q1 = cqshap::workloads::queries::q1();
    let options = ShapleyOptions::auto().budget(Budget::work_units(1));
    let session = ShapleySession::prepare_with_fallback(&db, AnyQuery::Cq(&q1), &options).unwrap();
    assert!(session.is_exact_unavailable());
    let f = db.endo_facts()[0];
    for err in [
        session.report().unwrap_err(),
        session.value(f).unwrap_err(),
        session.values(&[f]).unwrap_err(),
    ] {
        assert!(
            matches!(err, CoreError::DeadlineExceeded { .. }),
            "expected DeadlineExceeded, got: {err}"
        );
    }

    // q_RS¬T is non-hierarchical, and past the brute-force limit no
    // exact strategy takes it: the stored rejection answers every
    // exact read as is, without a fresh prepare.
    let db = rst_instance(3, 2);
    let q = parse_cq(Q_RST).unwrap();
    let options = ShapleyOptions::auto()
        .brute_force_limit(8)
        .budget(Budget::work_units(1));
    let session = ShapleySession::prepare_with_fallback(&db, AnyQuery::Cq(&q), &options).unwrap();
    assert!(session.is_exact_unavailable());
    let err = session.report().unwrap_err();
    assert!(
        matches!(&err, CoreError::Unsupported(reason) if reason.contains("no exact engine")),
        "expected the stored intractability reason, got: {err}"
    );
}

/// `q_RS¬T` over `n` constants per side: `R(xi)`, `T(yi)` and `d ≤ n`
/// edges `S(xi, y((i + j) mod n))` per `xi`, all endogenous.
fn rst_instance(n: usize, d: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.add_endo("R", &[&format!("x{i}")]).unwrap();
    }
    for i in 0..n {
        for j in 0..d {
            let y = (i + j) % n;
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

/// The pooled rate at which the sampler's intervals miss the exact
/// value, over every fact of `runs` seeded runs.
fn miss_rate(db: &Database, q: AnyQuery<'_>, exact: &ShapleyReport, runs: u64) -> f64 {
    let params = AnytimeParams {
        epsilon: 0.1,
        delta: 0.05,
        ..AnytimeParams::default()
    };
    let mut misses = 0;
    let mut intervals = 0;
    for seed in 0..runs {
        let params = AnytimeParams { seed, ..params };
        let report = shapley_anytime(db, q, &params, None, &mut None).unwrap();
        misses += count_misses(&report, exact);
        intervals += report.entries.len();
    }
    misses as f64 / intervals as f64
}

/// How many of a converged report's intervals miss the exact value.
fn count_misses(report: &AnytimeReport, exact: &ShapleyReport) -> usize {
    assert!(report.converged);
    report
        .entries
        .iter()
        .filter(|e| (e.estimate - exact.entry(e.fact).unwrap().value.to_f64()).abs() > e.half_width)
        .count()
}

#[test]
fn anytime_intervals_miss_at_most_delta_of_the_time() {
    // 3 R, 3 T and 2 S edges per x: m = 12, small enough for the exact
    // values by subset enumeration.
    let db = rst_instance(3, 2);
    assert_eq!(db.endo_count(), 12);
    let subsets = ShapleyOptions::default().strategy(Strategy::BruteForceSubsets);
    let q = parse_cq(Q_RST).unwrap();
    let exact = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &subsets)
        .unwrap()
        .report()
        .unwrap();
    let rate = miss_rate(&db, AnyQuery::Cq(&q), &exact, 200);
    assert!(rate <= 0.05, "q_RS¬T: pooled miss rate {rate}");
    let u = parse_ucq(U_MIXED).unwrap();
    let exact = ShapleySession::prepare(&db, AnyQuery::Union(&u), &subsets)
        .unwrap()
        .report()
        .unwrap();
    let rate = miss_rate(&db, AnyQuery::Union(&u), &exact, 200);
    assert!(rate <= 0.05, "U_MIXED: pooled miss rate {rate}");
}

/// A resumed state keeps the coverage of a fresh run, whether the
/// first call was cut short by its budget or converged at a wider ε.
#[test]
fn resumed_anytime_intervals_miss_at_most_delta_of_the_time() {
    let db = rst_instance(3, 2);
    let subsets = ShapleyOptions::default().strategy(Strategy::BruteForceSubsets);
    let q = parse_cq(Q_RST).unwrap();
    let exact = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &subsets)
        .unwrap()
        .report()
        .unwrap();
    let q = AnyQuery::Cq(&q);
    let at = |epsilon, seed| AnytimeParams {
        epsilon,
        delta: 0.05,
        seed,
    };
    let (mut misses, mut intervals) = (0, 0);
    for seed in 0..200 {
        // Each walk charges m = 12 units: the budget stops the first
        // call after 10 walks, well short of ±0.1.
        let mut state = None;
        let budget = Budget::work_units(120).token();
        let cut = shapley_anytime(&db, q, &at(0.1, seed), Some(&budget), &mut state).unwrap();
        assert!(cut.deadline_hit);
        let resumed = shapley_anytime(&db, q, &at(0.1, seed), None, &mut state).unwrap();
        // A run converged at ±0.2, resumed to ±0.1.
        let mut state = None;
        assert!(
            shapley_anytime(&db, q, &at(0.2, seed), None, &mut state)
                .unwrap()
                .converged
        );
        let halved = shapley_anytime(&db, q, &at(0.1, seed), None, &mut state).unwrap();
        for report in [&resumed, &halved] {
            misses += count_misses(report, &exact);
            intervals += report.entries.len();
        }
    }
    let rate = misses as f64 / intervals as f64;
    assert!(rate <= 0.05, "resumed runs: pooled miss rate {rate}");
}
