//! End-to-end observability: the trace recorder installed once for the
//! whole process, sessions running under it, and the contract that a
//! deadline trip's phase label and the trace vocabulary are the same
//! strings.
//!
//! All tests share one process-wide trace window (installation is
//! permanent), so every assertion here is monotone — "at least", "is
//! present" — and no test clears the window.

use cqshap::obs;
use cqshap::prelude::*;
use cqshap::workloads::{self, queries};

fn trace() -> &'static obs::TraceRecorder {
    obs::install_trace().expect("only the trace recorder is installed in this binary")
}

/// Satellite contract: `budget::check` phase labels ARE obs phase keys,
/// so the phase named by a `DeadlineExceeded` error can be looked up
/// verbatim among the trace's `deadline.trip` events.
#[test]
fn deadline_trip_phase_appears_in_trace() {
    let t = trace();
    let db = workloads::report_benchmark_db(64);
    let q1 = queries::q1();
    let options = ShapleyOptions::auto().budget(Budget::wall_ms(0));
    let err = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &options)
        .and_then(|s| s.report())
        .expect_err("a zero budget must trip at the first checkpoint");
    let CoreError::DeadlineExceeded { phase, .. } = err else {
        panic!("expected DeadlineExceeded, got {err}");
    };
    // The error's label is drawn from the shared vocabulary…
    let known = [
        obs::phase::COMPILE,
        obs::phase::UPDATE,
        obs::phase::RECOUNT,
        obs::phase::UNION_COMPILE,
        obs::phase::UNION_TERMS,
        obs::phase::AGGREGATE,
        obs::phase::AGGREGATE_PREPARE,
        obs::phase::EVALUATE,
        obs::phase::PERMUTATIONS,
        obs::phase::BRUTE_FORCE,
        obs::phase::WSMS,
    ];
    assert!(
        known.contains(&phase.as_str()),
        "deadline phase {phase:?} is not an obs phase key"
    );
    // …and the trip itself was recorded under that exact label.
    assert!(
        t.has_event(obs::phase::EV_DEADLINE_TRIP, &phase),
        "no deadline.trip event with detail {phase:?} in the trace"
    );
}

/// The tentpole coverage check: one prepared session driven through
/// report, update, and re-report leaves prepare sub-phases, engine
/// spans, and cache counters in the window, and the serialized window
/// matches the documented schema.
#[test]
fn traced_session_covers_the_documented_vocabulary() {
    let t = trace();
    let db = workloads::figure_1_database();
    let q1 = queries::q1();
    let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto())
        .expect("hierarchical");
    assert!(session.report().expect("hierarchical").efficiency_holds());
    let f = session
        .database()
        .find_fact("TA", &["Adam"])
        .expect("exists");
    session.set_exogenous(f, true).expect("live fact");
    assert!(session.report().expect("hierarchical").efficiency_holds());

    for phase in [
        obs::phase::PREPARE,
        obs::phase::PREPARE_CLASSIFY,
        obs::phase::PREPARE_RESOLVE_STRATEGY,
        obs::phase::PREPARE_COMPILE,
        obs::phase::REPORT,
        obs::phase::COMPILE,
        obs::phase::RECOUNT,
        obs::phase::UPDATE,
    ] {
        assert!(t.span_count(phase) >= 1, "no {phase:?} span in the trace");
    }
    assert!(
        t.counter_value(obs::phase::CTR_RECOUNT_CACHE_MISS) >= 1,
        "recounts must miss the cache at least once"
    );

    let meta = obs::TraceMeta {
        host_cores: cqshap::numeric::poly::resolve_threads(0),
        thread_cap: cqshap::numeric::poly::resolve_threads(0),
    };
    let json = t.to_json(&meta);
    for needle in [
        "\"cqshap-trace/v1\"",
        "\"host_cores\"",
        "\"thread_cap\"",
        "\"spans\"",
    ] {
        assert!(json.contains(needle), "trace JSON lacks {needle}");
    }
}

/// Satellite contract: `ShapleyReport::stats` is now a view over obs
/// counters — the local values the report carries and the global trace
/// aggregation must agree (this is the only test in the binary driving
/// the aggregate counters).
#[test]
fn aggregate_stats_view_matches_trace_counters() {
    let t = trace();
    let db = workloads::report_benchmark_db(64);
    let q = queries::per_course_count();
    let report = aggregate_report(&db, &q, &AggregateFunction::Count, &ShapleyOptions::auto())
        .expect("tractable aggregate");
    assert!(report.stats.aggregate_candidates > 0, "no candidates found");
    assert_eq!(
        t.counter_value(obs::phase::CTR_AGG_CANDIDATES) as usize,
        report.stats.aggregate_candidates,
        "trace counter and ReportStats view disagree on candidates"
    );
    assert_eq!(
        t.counter_value(obs::phase::CTR_AGG_PRUNED) as usize,
        report.stats.pruned_candidates,
        "trace counter and ReportStats view disagree on pruned"
    );
}

/// The sampler's evaluation counters are exact: every draw needs the
/// query on the coalition with and without the drawn fact, and each of
/// those two evaluations is either run or skipped (this is the only
/// test in the binary driving the samplers).
#[test]
fn sampler_evaluation_counters_add_up_to_two_per_draw() {
    let t = trace();
    let db = Database::parse(
        "endo R(a)\nendo R(b)\nendo S(a, c)\nendo S(b, c)\nendo S(b, d)\n\
         endo T(c)\nendo T(d)\nendo U(a)\n",
    )
    .expect("valid db");
    let q = parse_cq("q() :- R(x), S(x, y), !T(y)").expect("valid query");
    let params = AnytimeParams {
        epsilon: 0.2,
        ..AnytimeParams::default()
    };
    let report =
        shapley_anytime(&db, AnyQuery::Cq(&q), &params, None, &mut None).expect("valid params");
    let t_fact = db.find_fact("T", &["c"]).expect("exists");
    let sampled = shapley_sampled(&db, AnyQuery::Cq(&q), t_fact, 500, 1, 2).expect("endogenous");
    let draws = report.spent_samples + sampled.samples;
    let evals = t.counter_value(obs::phase::CTR_APPROX_EVALS);
    let skipped = t.counter_value(obs::phase::CTR_APPROX_EVALS_SKIPPED);
    assert_eq!(evals + skipped, 2 * draws);
    // R and S occur only positively, T only negatively, U not at all:
    // every relation here lets some evaluations be skipped.
    assert!(evals > 0 && skipped > 0, "{evals} run, {skipped} skipped");
}
