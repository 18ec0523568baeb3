//! End-to-end observability: the trace recorder installed once for the
//! whole process, sessions running under it, and the contract that a
//! deadline trip's phase label and the trace vocabulary are the same
//! strings.
//!
//! All tests share one process-wide trace window (installation is
//! permanent), and no test clears it. Each test holds the window for
//! its whole run, so a test may compare the window before and after
//! its own calls; the other assertions are monotone — "at least", "is
//! present".

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Mutex, MutexGuard};

use cqshap::obs;
use cqshap::prelude::*;
use cqshap::workloads::{self, queries};

/// The trace recorder, held by one test at a time.
struct Traced {
    recorder: &'static obs::TraceRecorder,
    _held: MutexGuard<'static, ()>,
}

impl Deref for Traced {
    type Target = obs::TraceRecorder;
    fn deref(&self) -> &obs::TraceRecorder {
        self.recorder
    }
}

fn trace() -> Traced {
    static HELD: Mutex<()> = Mutex::new(());
    Traced {
        _held: HELD.lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
        recorder: obs::install_trace()
            .expect("only the trace recorder is installed in this binary"),
    }
}

/// Closed-span counts by `(phase, parent)`, read back from the window's
/// `cqshap-trace/v1` JSON.
fn span_counts(t: &obs::TraceRecorder) -> BTreeMap<(String, Option<String>), u64> {
    let meta = obs::TraceMeta {
        host_cores: 1,
        thread_cap: 1,
    };
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.split(&format!("\"{key}\": ")).nth(1)?;
        let value = rest.split([',', '}']).next()?.trim();
        Some(value.trim_matches('"').to_string())
    };
    t.to_json(&meta)
        .lines()
        .filter(|line| line.contains("\"phase\": "))
        .filter_map(|line| {
            let phase = field(line, "phase")?;
            let parent = field(line, "parent").filter(|p| p != "null");
            let count = field(line, "count")?.parse().ok()?;
            Some(((phase, parent), count))
        })
        .collect()
}

/// The spans recorded between two [`span_counts`] snapshots.
fn spans_since(
    before: &BTreeMap<(String, Option<String>), u64>,
    after: BTreeMap<(String, Option<String>), u64>,
) -> BTreeMap<(String, Option<String>), u64> {
    after
        .into_iter()
        .map(|(key, n)| {
            let earlier = before.get(&key).copied().unwrap_or(0);
            (key, n - earlier)
        })
        .filter(|(_, n)| *n > 0)
        .collect()
}

/// Satellite contract: `budget::check` phase labels ARE obs phase keys,
/// so the phase named by a `DeadlineExceeded` error can be looked up
/// verbatim among the trace's `deadline.trip` events.
#[test]
fn deadline_trip_phase_appears_in_trace() {
    let t = trace();
    let options = ShapleyOptions::auto().budget(Budget::wall_ms(0));
    let db = workloads::report_benchmark_db(64);
    let q1 = queries::q1();
    let report = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &options).and_then(|s| s.report());
    // A non-hierarchical CQ¬: only world enumeration serves its
    // probability.
    let small = Database::parse("endo R(a)\nendo S(a, b)\nendo T(b)\n").expect("valid db");
    let hard = parse_cq("q() :- R(x), S(x, y), !T(y)").expect("valid query");
    let probability = ShapleySession::prepare(&small, AnyQuery::Cq(&hard), &options)
        .and_then(|mut s| s.probability());
    for (read, result) in [
        ("report", report.map(drop)),
        ("probability", probability.map(drop)),
    ] {
        let err = result.expect_err("a zero budget must trip at the first checkpoint");
        let CoreError::DeadlineExceeded { phase, .. } = err else {
            panic!("{read}: expected DeadlineExceeded, got {err}");
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
            obs::phase::PROBABILITY,
            obs::phase::WSMS,
        ];
        assert!(
            known.contains(&phase.as_str()),
            "{read}: deadline phase {phase:?} is not an obs phase key"
        );
        // …and the trip itself was recorded under that exact label.
        assert!(
            t.has_event(obs::phase::EV_DEADLINE_TRIP, &phase),
            "{read}: no deadline.trip event with detail {phase:?} in the trace"
        );
    }
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
    let report = ShapleySession::prepare_aggregate(
        &db,
        &q,
        AggregateFunction::Count,
        &ShapleyOptions::auto(),
    )
    .and_then(|session| session.report())
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

/// The sampler's evaluation counters are exact: a single-fact draw
/// needs the query on the coalition with and without the drawn fact,
/// a walk step only with it (the walk carries the answer without it),
/// and each of those evaluations is either run or skipped. The walks
/// here are answered from the query's lineage, so every step is
/// skipped (this is the only test in the binary driving the samplers).
#[test]
fn sampler_evaluation_counters_account_for_every_marginal() {
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
    let walks = t.counter_value(obs::phase::CTR_APPROX_WALKS);
    assert_eq!(report.spent_samples, walks * db.endo_count() as u64);
    assert_eq!(t.counter_value(obs::phase::CTR_APPROX_EVALS), 0);
    assert_eq!(
        t.counter_value(obs::phase::CTR_APPROX_EVALS_SKIPPED),
        report.spent_samples
    );
    // One match per S fact: its R fact and itself, blocked by its T fact.
    assert_eq!(t.counter_value(obs::phase::CTR_APPROX_LINEAGE_MATCHES), 3);
    assert_eq!(t.span_count(obs::phase::ANYTIME_LINEAGE), 1);
    let t_fact = db.find_fact("T", &["c"]).expect("exists");
    let sampled = shapley_sampled(&db, AnyQuery::Cq(&q), t_fact, 500, 1, 2).expect("endogenous");
    let evals = t.counter_value(obs::phase::CTR_APPROX_EVALS);
    let skipped = t.counter_value(obs::phase::CTR_APPROX_EVALS_SKIPPED);
    assert_eq!(evals + skipped, report.spent_samples + 2 * sampled.samples);
    // The single-fact draws evaluate. T occurs only negatively, so a
    // coalition that fails q settles T(c)'s marginal at 0 unevaluated.
    assert!(
        evals > 0 && skipped > report.spent_samples,
        "{evals} run, {skipped} skipped"
    );
}

/// A probability read attributes all its work: after a traced prepare,
/// `probability()` records every compile span under a parent, and the
/// counting domain (the only writer of `compile.weights`) is never
/// built.
#[test]
fn probability_reads_have_a_root_and_skip_the_counting_domain() {
    let t = trace();
    let db = workloads::report_benchmark_db(64);
    let q1 = queries::q1();
    let before = span_counts(&t);
    let mut session =
        ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto().threads(1))
            .expect("hierarchical");
    session
        .set_default_probability(BigRational::from_i64_ratio(3, 10))
        .expect("a probability");
    session.probability().expect("hierarchical");
    let f = db.endo_facts()[0];
    session.expected_shapley(f).expect("endogenous");
    let spans = spans_since(&before, span_counts(&t));
    let tops = [
        obs::phase::PREPARE,
        obs::phase::PROBABILITY,
        obs::phase::EXPECTED,
    ];
    let parentless: Vec<_> = spans
        .keys()
        .filter(|(phase, parent)| parent.is_none() && !tops.contains(&phase.as_str()))
        .collect();
    assert!(parentless.is_empty(), "parentless spans {parentless:?}");
    for phase in tops {
        assert!(
            spans.contains_key(&(phase.to_string(), None)),
            "no top-level {phase:?} span in {spans:?}"
        );
    }
    assert!(
        spans.keys().any(|(phase, _)| phase == obs::phase::COMPILE),
        "the probability domain compiled nothing: {spans:?}"
    );
    let weights: u64 = spans
        .iter()
        .filter(|((phase, _), _)| phase == obs::phase::WEIGHTS)
        .map(|(_, n)| n)
        .sum();
    assert_eq!(weights, 0, "a probability read built the counting domain");
}

/// `&self` exact reads keep the counting terms they compile: value,
/// values and report on one unbudgeted session compile exactly once.
#[test]
fn exact_reads_keep_the_counting_terms_they_compile() {
    let t = trace();
    let db = workloads::report_benchmark_db(64);
    let q1 = queries::q1();
    let session = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto())
        .expect("hierarchical");
    let before = t.span_count(obs::phase::PREPARE_COMPILE);
    let f = db.endo_facts()[0];
    let value = session.value(f).expect("endogenous");
    let values = session.values(db.endo_facts()).expect("endogenous");
    let report = session.report().expect("hierarchical");
    assert_eq!(t.span_count(obs::phase::PREPARE_COMPILE) - before, 1);
    assert_eq!(values.first(), Some(&value));
    assert_eq!(report.entry(f).map(|e| &e.value), Some(&value));
}

/// `report.contract` times contractions only. On a query whose
/// disconnected `Lab(z)` atom gives the `Stud` component a non-unit
/// environment, each weight class's product `genv ⊛ env` is recorded
/// under `report.class-env`, so the contraction spans equal the
/// numerator-memo misses of a single-threaded report.
#[test]
fn contraction_spans_equal_numerator_memo_misses() {
    let t = trace();
    // The pinned students of `tests/numerator_contraction.rs`: 1–5
    // `Reg` facts and an endogenous `TA` each, plus two labs and a flag.
    let mut db = Database::new();
    for s in 0..5 {
        let name = format!("s{s}");
        db.add_exo("Stud", &[&name]).unwrap();
        db.add_endo("TA", &[&name]).unwrap();
        for c in 0..=s {
            db.add_endo("Reg", &[&name, &format!("c{}", (s + c) % 7)])
                .unwrap();
        }
    }
    for lab in ["l0", "l1"] {
        db.add_endo("Lab", &[lab]).unwrap();
    }
    db.add_endo("Flag", &["on"]).unwrap();
    let q = parse_cq("q() :- Stud(x), !TA(x), Reg(x, y), Lab(z), Flag('on')").unwrap();
    let spans = |phase| t.span_count(phase);
    let misses = || t.counter_value(obs::phase::CTR_NUMERATOR_MEMO_MISS);
    let before = (
        spans(obs::phase::CONTRACT),
        spans(obs::phase::CLASS_ENV),
        misses(),
    );
    let options = ShapleyOptions::auto().threads(1);
    let session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &options).expect("hierarchical");
    assert!(session.report().expect("hierarchical").efficiency_holds());
    let contractions = spans(obs::phase::CONTRACT) - before.0;
    let class_envs = spans(obs::phase::CLASS_ENV) - before.1;
    let missed = misses() - before.2;
    assert!(
        missed >= 5,
        "five group shapes give at least five numerators"
    );
    assert_eq!(contractions, missed);
    // Each class derives `genv` and then multiplies in the non-unit env.
    assert!(class_envs >= 2 * 5, "{class_envs} class-env spans");
}
