//! The experiment harness: regenerates every experiment table of
//! `DESIGN.md` (E1–E14), printing Markdown to stdout.
//!
//! ```sh
//! cargo run -p cqshap-bench --release --bin harness            # all
//! cargo run -p cqshap-bench --release --bin harness -- e5 e6   # subset
//! ```
//!
//! The `bench-report` subcommand instead times the batched all-facts
//! Shapley report against the seed per-fact path on generated
//! hierarchical workloads (`m ∈ {64, 256, 1024}` endogenous facts) and
//! writes criterion-style medians to `BENCH_report.json`, so CI tracks
//! the perf trajectory of the hot path:
//!
//! ```sh
//! cargo run -p cqshap-bench --release --bin harness -- bench-report [--quick] [--out FILE]
//! ```
//!
//! `bench-report --session` measures the `ShapleySession` incremental
//! maintenance path (in-place update + re-report) against the full
//! recompile path (fresh prepare + report after the same update) and
//! writes `BENCH_session.json`.
//!
//! `bench-report --poly` measures the `cqshap-numeric::poly` subsystem
//! directly: the compile-stage leave-one-out product tree over
//! root-group-shaped polynomials at `m ∈ {256, 1024, 4096}`, schoolbook
//! vs Karatsuba vs NTT sequentially plus thread-scaling rows for the
//! parallel tree, written to `BENCH_poly.json`.
//!
//! `bench-report --probdb` measures a session's probability reads — the
//! compiled engine instantiated at the tuple-independent probability
//! domain, maintained incrementally across updates — against the seed
//! lifted-inference traversal re-run from scratch per answer, and
//! writes `BENCH_probdb.json`.
//!
//! `bench-report --anytime` measures the anytime tier and the
//! degradation ladder: time-to-±ε of the stratified sampler at
//! `m ∈ {256, 1024}`, the deadline-hit rate of the exact report under
//! wall-clock budgets of ¼× and 4× its unbudgeted median (exiting
//! nonzero when the ¼× budget never trips), and the tier
//! `report_tiered` settles on per query class, written to
//! `BENCH_anytime.json`.
//!
//! `bench-report --trace` installs the `cqshap-obs` trace recorder and
//! runs an instrumented pass per `m ∈ {64, 256, 1024}` — the batched
//! report, one incremental update + re-report, and the degradation
//! ladder on a non-hierarchical instance — writing one
//! `cqshap-trace/v1` window per size into `TRACE_report.json`.
//!
//! Every emitted JSON header carries `host_cores` (the parallelism the
//! host exposes) and `thread_cap` (the effective cap this run used), so
//! perf artifacts from different machines stay comparable.

#![expect(
    clippy::disallowed_methods,
    reason = "experiment harness binary: its whole job is timing"
)]

use std::collections::HashSet;
use std::time::{Duration, Instant};

use cqshap_bench::Table;
use cqshap_core::aggregates::{
    aggregate_report, aggregate_shapley, aggregate_value, AggregateFunction,
};
use cqshap_core::approx::{required_samples, shapley_sampled, AnytimeParams};
use cqshap_core::budget::Budget;
use cqshap_core::gap::section_5_1_example;
use cqshap_core::reference::{shapley_report_per_fact, shapley_report_union_per_fact};
use cqshap_core::relevance::{
    brute_force_relevance, is_negatively_relevant, is_positively_relevant,
};
use cqshap_core::{
    rewrite, shapley_by_permutations, shapley_report, shapley_report_union, shapley_value,
    shapley_via_counts, AnyQuery, BruteForceCounter, CoreError, ResolvedStrategy, ShapleyOptions,
    ShapleySession, Strategy, TierPolicy, TieredAnswer,
};
use cqshap_db::{Database, World};
use cqshap_gadgets::coloring::{coloring_to_3p2n, to_224};
use cqshap_gadgets::{embed, prop55, prop58, reduction_rst};
use cqshap_numeric::BigRational;
use cqshap_query::{classify_with_exo, parse_cq};
use cqshap_workloads::academic::AcademicConfig;
use cqshap_workloads::exports::ExportsConfig;
use cqshap_workloads::university::UniversityConfig;
use cqshap_workloads::{figure_1_database, formulas, graphs, queries};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench-report") {
        bench_report(&args[1..]);
        return;
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);
    let experiments: &[(&str, &str, fn())] = &[
        (
            "e1",
            "Example 2.3: exact Shapley values on the running example",
            e1,
        ),
        (
            "e2",
            "Theorems 3.1/4.3: dichotomy classification catalog",
            e2,
        ),
        (
            "e3",
            "Theorem 3.1 (positive side): polynomial vs exponential scaling",
            e3,
        ),
        (
            "e4",
            "Theorem 4.3 / Algorithm 1: ExoShap correctness and scaling",
            e4,
        ),
        (
            "e5",
            "Theorem 5.1: the gap property fails under negation",
            e5,
        ),
        (
            "e6",
            "Section 5.1: additive FPRAS vs multiplicative failure",
            e6,
        ),
        (
            "e7",
            "Proposition 5.5 + Lemma D.1: SAT ⟺ relevance for q_RST¬R",
            e7,
        ),
        ("e8", "Proposition 5.7: polynomial relevance scaling", e8),
        (
            "e9",
            "Proposition 5.8: SAT ⟺ relevance for the union q_SAT",
            e9,
        ),
        (
            "e10",
            "Lemma B.3: counting independent sets via a Shapley oracle",
            e10,
        ),
        (
            "e11",
            "Lemma B.4 / Appendix C: Shapley-preserving embeddings",
            e11,
        ),
        (
            "e12",
            "Theorem 4.10: probabilistic evaluation with deterministic relations",
            e12,
        ),
        ("e13", "Section 3 remarks: aggregate attribution", e13),
        (
            "e14",
            "Example 5.3: relevant facts with zero Shapley value",
            e14,
        ),
    ];
    for (name, title, run) in experiments {
        if want(name) {
            println!("\n## {} — {}\n", name.to_uppercase(), title);
            let t0 = Instant::now();
            run();
            println!("\n[{} completed in {:?}]", name, t0.elapsed());
        }
    }
}

fn opts() -> ShapleyOptions {
    ShapleyOptions::default()
}

fn ms(d: std::time::Duration) -> String {
    format!("{:.3} ms", d.as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------
// bench-report: the all-facts report perf tracker
// ---------------------------------------------------------------------

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

fn time_ms(mut run: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    run();
    t0.elapsed().as_secs_f64() * 1e3
}

/// The hardware-context fragment every `BENCH_*.json` header carries:
/// `host_cores` is the parallelism the host exposes, `thread_cap` the
/// effective cap this run used (the harness always runs with the
/// automatic cap — benches take no `--threads` flag).
fn host_meta_json() -> String {
    let host_cores = cqshap_numeric::poly::resolve_threads(0);
    format!("\"host_cores\": {host_cores},\n  \"thread_cap\": {host_cores}")
}

/// Times the batched [`shapley_report`] against the seed per-fact path
/// ([`shapley_report_per_fact`]) on the deterministic university
/// workload at `m ∈ {64, 256, 1024, 4096}` endogenous facts, and
/// writes the medians as JSON. `--quick` lowers the sample count and
/// skips the (slow) per-fact baseline at `m = 1024`; the baseline at
/// `m = 4096` is always skipped (it would run for the better part of a
/// day). `--out FILE` overrides the default `BENCH_report.json`.
fn bench_report(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let ucq = args.iter().any(|a| a == "--ucq");
    let aggregate = args.iter().any(|a| a == "--aggregate");
    let poly = args.iter().any(|a| a == "--poly");
    let probdb = args.iter().any(|a| a == "--probdb");
    let anytime = args.iter().any(|a| a == "--anytime");
    let traced = args.iter().any(|a| a == "--trace");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if args.iter().any(|a| a == "--session") {
                "BENCH_session.json".to_string()
            } else if poly {
                "BENCH_poly.json".to_string()
            } else if probdb {
                "BENCH_probdb.json".to_string()
            } else if anytime {
                "BENCH_anytime.json".to_string()
            } else if traced {
                "TRACE_report.json".to_string()
            } else if ucq || aggregate {
                "BENCH_ucq.json".to_string()
            } else {
                "BENCH_report.json".to_string()
            }
        });
    let session = args.iter().any(|a| a == "--session");
    let samples = if quick { 3 } else { 5 };
    if traced {
        bench_trace(&out_path);
        return;
    }
    if poly {
        bench_poly(quick, &out_path);
        return;
    }
    if probdb {
        bench_probdb(quick, &out_path);
        return;
    }
    if anytime {
        bench_anytime(quick, &out_path);
        return;
    }
    if session {
        bench_session(quick, &out_path);
        return;
    }
    if ucq || aggregate {
        bench_union_aggregate(ucq, aggregate, quick, samples, &out_path);
        return;
    }
    let q1 = queries::q1();
    let options = opts();

    // Correctness guard before timing anything: the batched engine must
    // be bit-identical to the seed path.
    {
        let db = cqshap_workloads::report_benchmark_db(64);
        let batched = shapley_report(&db, &q1, &options).expect("hierarchical");
        let per_fact = shapley_report_per_fact(&db, &q1, &options).expect("hierarchical");
        assert!(batched.efficiency_holds(), "efficiency axiom violated");
        for (a, b) in batched.entries.iter().zip(&per_fact.entries) {
            assert_eq!(a.value, b.value, "batched vs per-fact at {}", a.rendered);
        }
    }

    let mut rows = Vec::new();
    for &m in &[64usize, 256, 1024, 4096] {
        let db = cqshap_workloads::report_benchmark_db(m);
        assert_eq!(db.endo_count(), m);
        let batched = median(
            (0..samples)
                .map(|_| {
                    time_ms(|| {
                        let r = shapley_report(&db, &q1, &options).expect("hierarchical");
                        assert!(r.efficiency_holds());
                    })
                })
                .collect(),
        );
        // The seed path at m = 1024 costs minutes of CPU; quick mode
        // (CI) skips it, full mode measures a single sample. At
        // m = 4096 it is out of reach outright.
        let per_fact = if m >= 4096 || (quick && m >= 1024) {
            None
        } else {
            let n = if m >= 1024 { 1 } else { samples };
            Some(median(
                (0..n)
                    .map(|_| {
                        time_ms(|| {
                            let r =
                                shapley_report_per_fact(&db, &q1, &options).expect("hierarchical");
                            assert!(r.efficiency_holds());
                        })
                    })
                    .collect(),
            ))
        };
        let speedup = per_fact.map(|p| p / batched);
        eprintln!(
            "m = {m:>5}: batched {batched:>10.3} ms | per-fact {} | speedup {}",
            per_fact.map_or("skipped".to_string(), |p| format!("{p:.3} ms")),
            speedup.map_or("—".to_string(), |s| format!("{s:.1}×")),
        );
        rows.push((m, batched, per_fact, speedup));
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|(m, batched, per_fact, speedup)| {
            format!(
                "    {{\"m\": {m}, \"batched_median_ms\": {batched:.3}, \
                 \"per_fact_median_ms\": {}, \"speedup\": {}}}",
                per_fact.map_or("null".to_string(), |p| format!("{p:.3}")),
                speedup.map_or("null".to_string(), |s| format!("{s:.2}")),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"cqshap-bench-report/v1\",\n  \"query\": \"{}\",\n  \
         \"workload\": \"report_benchmark_db\",\n  \"mode\": \"{}\",\n  \
         \"samples\": {},\n  {},\n  \"results\": [\n{}\n  ]\n}}\n",
        q1,
        if quick { "quick" } else { "full" },
        samples,
        host_meta_json(),
        json_rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write bench report");
    println!("wrote {out_path}");
}

/// A non-hierarchical instance (path `x–y` between `R(x)` and `T(y)`)
/// with `m` endogenous facts: every exact tier rejects it, so only the
/// degraded tiers of the ladder answer.
fn hard_benchmark_db(m: usize) -> Database {
    assert!(m >= 3 && m % 2 == 1, "needs an odd m ≥ 3, got {m}");
    let mut db = Database::new();
    for i in 0..m / 2 {
        db.add_endo("R", &[&format!("a{i}")]).expect("distinct");
        db.add_endo("S", &[&format!("a{i}"), "u"])
            .expect("distinct");
    }
    db.add_endo("T", &["u"]).expect("distinct");
    db
}

/// The `--trace` mode of `bench-report`: one instrumented pass per
/// `m ∈ {64, 256, 1024}`, each collected into its own `cqshap-trace/v1`
/// window. Every pass exercises the full vocabulary the trace schema
/// documents: the batched report on the hierarchical workload (prepare
/// sub-phases, per-root-group compile/recount spans, poly backend
/// dispatch, cache hit/miss counters), one provenance flip plus
/// re-report (update spans, recount-cache reuse), and the degradation
/// ladder on a non-hierarchical instance under a wall-clock budget
/// (anytime sampler strata histograms, tier answer/demote events).
fn bench_trace(out_path: &str) {
    let trace = cqshap_obs::install_trace().expect("no recorder installed before bench_trace");
    let host_cores = cqshap_numeric::poly::resolve_threads(0);
    let meta = cqshap_obs::TraceMeta {
        host_cores,
        thread_cap: host_cores,
    };
    let q1 = queries::q1();
    let hard_q = parse_cq("q() :- R(x), S(x, y), T(y)").expect("parses");
    let mut runs: Vec<String> = Vec::new();
    for &m in &[64usize, 256, 1024] {
        trace.clear();
        let db = cqshap_workloads::report_benchmark_db(m);
        let options = opts();
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &options).expect("hierarchical");
        let r = session.report().expect("hierarchical");
        assert!(r.efficiency_holds());
        // One provenance flip + re-report, so incremental update spans
        // and recount-cache reuse land in the window too.
        let f = db.endo_facts()[0];
        session.set_exogenous(f, true).expect("live fact");
        let r = session.report().expect("hierarchical");
        assert!(r.efficiency_holds());
        // The degradation ladder on a non-hierarchical instance: the
        // exact tier demotes, the sampler records its strata, and the
        // answering tier emits its event.
        let hard_db = hard_benchmark_db(m + 1);
        let budget = opts().budget(Budget::wall_ms(2_000));
        let mut hard =
            ShapleySession::prepare_with_fallback(&hard_db, AnyQuery::Cq(&hard_q), &budget)
                .expect("fallback prepare always yields a session here");
        let policy = TierPolicy {
            epsilon: 0.2,
            ..TierPolicy::default()
        };
        hard.report_tiered(&policy).expect("ladder answers");
        let window = trace.to_json(&meta);
        eprintln!("trace m = {m:>5}: {} bytes of trace window", window.len());
        runs.push(format!("    {{\"m\": {m}, \"trace\": {window}}}"));
    }
    let json = format!(
        "{{\n  \"schema\": \"cqshap-trace-report/v1\",\n  \"query\": \"{}\",\n  \
         \"workloads\": [\"report_benchmark_db\", \"hard_benchmark_db\"],\n  \
         {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        q1,
        host_meta_json(),
        runs.join(",\n"),
    );
    std::fs::write(out_path, &json).expect("write trace report");
    println!("wrote {out_path}");
}

/// The `--anytime` mode of `bench-report`: the anytime tier and the
/// degradation ladder. Three measurements per `m ∈ {256, 1024}`:
///
/// 1. time-to-±ε of the anytime sampler (per-fact CLT intervals) on a
///    hierarchical and a non-hierarchical workload, with draw counts,
///    convergence, and the widest interval actually achieved;
/// 2. deadline-hit rate of the *exact* report under wall-clock budgets
///    of ¼× and 4× the same m's unbudgeted report median (how often
///    `DeadlineExceeded` surfaces instead of a hang; any other error
///    fails the run, and so does a ¼× row that never hits);
/// 3. the tier `report_tiered` settles on per query class — exact for
///    the hierarchical query, sampled for the intractable one, WSMS
///    when the budget is too tight for sampling to converge.
fn bench_anytime(quick: bool, out_path: &str) {
    let q1 = queries::q1();
    let hard_q = parse_cq("q() :- R(x), S(x, y), T(y)").expect("parses");
    let epsilon = if quick { 0.15 } else { 0.05 };
    let delta = 0.05;
    let budget_ms: u64 = if quick { 2_000 } else { 10_000 };

    // 1. The anytime sampler: wall-clock to ±ε (or to the budget).
    let mut anytime_rows: Vec<String> = Vec::new();
    for &m in &[256usize, 1024] {
        let classes: [(&str, Database, &cqshap_query::ConjunctiveQuery); 2] = [
            (
                "hierarchical",
                cqshap_workloads::report_benchmark_db(m),
                &q1,
            ),
            ("non-hierarchical", hard_benchmark_db(m + 1), &hard_q),
        ];
        for (class, db, q) in classes {
            let options = opts().budget(Budget::wall_ms(budget_ms));
            let mut session = ShapleySession::prepare_with_fallback(&db, AnyQuery::Cq(q), &options)
                .expect("fallback prepare always yields a session here");
            let params = AnytimeParams {
                epsilon,
                delta,
                ..AnytimeParams::default()
            };
            let report = session.anytime(&params).expect("anytime runs");
            let widest = report
                .entries
                .iter()
                .map(|e| e.half_width)
                .fold(0.0f64, f64::max);
            eprintln!(
                "anytime m = {m:>5} {class:<17}: {:>9.1} ms, {:>8} draws, converged {}, \
                 deadline_hit {}, widest ±{widest:.4}",
                report.elapsed.as_secs_f64() * 1e3,
                report.spent_samples,
                report.converged,
                report.deadline_hit,
            );
            anytime_rows.push(format!(
                "    {{\"m\": {m}, \"class\": \"{class}\", \"facts\": {}, \
                 \"time_to_eps_ms\": {:.3}, \"draws\": {}, \"converged\": {}, \
                 \"deadline_hit\": {}, \"widest_half_width\": {widest:.5}}}",
                db.endo_count(),
                report.elapsed.as_secs_f64() * 1e3,
                report.spent_samples,
                report.converged,
                report.deadline_hit,
            ));
        }
    }

    // 2. Deadline-hit rate of the exact report under budgets scaled
    //    from the same m's unbudgeted report median: ¼× must trip the
    //    deadline, 4× should not.
    let mut deadline_rows: Vec<String> = Vec::new();
    let mut quarter_never_hit: Vec<usize> = Vec::new();
    let trials = if quick { 3 } else { 5 };
    for &m in &[256usize, 1024] {
        let db = cqshap_workloads::report_benchmark_db(m);
        let report_ms = |options: &ShapleyOptions, hits: &mut usize| {
            let session = ShapleySession::prepare_with_fallback(&db, AnyQuery::Cq(&q1), options)
                .expect("fallback prepare always yields a session here");
            time_ms(|| match session.report() {
                Ok(_) => {}
                Err(CoreError::DeadlineExceeded { .. }) => *hits += 1,
                Err(e) => panic!("unexpected exact-report error: {e}"),
            })
        };
        let mut no_hits = 0usize;
        let unbudgeted = median(
            (0..trials)
                .map(|_| report_ms(&opts(), &mut no_hits))
                .collect(),
        );
        for (label, factor) in [("1/4", 0.25), ("4", 4.0)] {
            let deadline_ms = unbudgeted * factor;
            let options = opts().budget(Budget {
                wall: Some(Duration::from_secs_f64(deadline_ms / 1e3)),
                ..Budget::UNLIMITED
            });
            let mut hits = 0usize;
            let elapsed: Vec<f64> = (0..trials)
                .map(|_| report_ms(&options, &mut hits))
                .collect();
            let rate = hits as f64 / trials as f64;
            if factor < 1.0 && hits == 0 {
                quarter_never_hit.push(m);
            }
            eprintln!(
                "deadline m = {m:>5}, {label:>3}× of {unbudgeted:.3} ms = {deadline_ms:.3} ms: \
                 hit rate {rate:.2} (median return {:.3} ms)",
                median(elapsed.clone()),
            );
            deadline_rows.push(format!(
                "    {{\"m\": {m}, \"factor\": \"{label}\", \"unbudgeted_median_ms\": {unbudgeted:.3}, \
                 \"deadline_ms\": {deadline_ms:.3}, \"trials\": {trials}, \
                 \"hit_rate\": {rate:.2}, \"median_return_ms\": {:.3}}}",
                median(elapsed),
            ));
        }
    }

    // 3. The ladder: which tier answers each query class.
    let mut ladder_rows: Vec<String> = Vec::new();
    let m = 256usize;
    let ladder_cases: [(
        &str,
        Database,
        &cqshap_query::ConjunctiveQuery,
        TierPolicy,
        u64,
    ); 3] = [
        (
            "hierarchical",
            cqshap_workloads::report_benchmark_db(m),
            &q1,
            TierPolicy {
                epsilon,
                ..TierPolicy::default()
            },
            budget_ms,
        ),
        (
            "non-hierarchical",
            hard_benchmark_db(m + 1),
            &hard_q,
            TierPolicy {
                epsilon,
                ..TierPolicy::default()
            },
            budget_ms,
        ),
        // ε far below what the budget can refine to: the sampled tier
        // returns unconverged and the ladder lands on WSMS.
        (
            "non-hierarchical, starved",
            hard_benchmark_db(m + 1),
            &hard_q,
            TierPolicy {
                epsilon: 0.001,
                ..TierPolicy::default()
            },
            250,
        ),
    ];
    for (class, db, q, policy, ms) in ladder_cases {
        let options = opts().budget(Budget::wall_ms(ms));
        let mut session = ShapleySession::prepare_with_fallback(&db, AnyQuery::Cq(q), &options)
            .expect("fallback prepare always yields a session here");
        let t = Instant::now();
        let answer = session.report_tiered(&policy).expect("ladder answers");
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        let tier = match &answer {
            TieredAnswer::Exact(_) => "exact",
            TieredAnswer::Sampled(_) => "sampled",
            TieredAnswer::Wsms(_) => "wsms",
        };
        eprintln!("ladder m = {m:>5} {class:<26}: {tier} in {elapsed:.1} ms");
        ladder_rows.push(format!(
            "    {{\"m\": {m}, \"class\": \"{class}\", \"budget_ms\": {ms}, \
             \"tier\": \"{tier}\", \"elapsed_ms\": {elapsed:.3}}}"
        ));
    }

    let json = format!(
        "{{\n  \"schema\": \"cqshap-bench-anytime/v1\",\n  \"mode\": \"{}\",\n  \
         \"epsilon\": {epsilon},\n  \"delta\": {delta},\n  \"budget_ms\": {budget_ms},\n  {},\n  \
         \"anytime\": [\n{}\n  ],\n  \"deadline\": [\n{}\n  ],\n  \"ladder\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        host_meta_json(),
        anytime_rows.join(",\n"),
        deadline_rows.join(",\n"),
        ladder_rows.join(",\n"),
    );
    std::fs::write(out_path, &json).expect("write anytime bench");
    println!("wrote {out_path}");
    if !quarter_never_hit.is_empty() {
        eprintln!(
            "error: a budget of 1/4 the unbudgeted report median never tripped the deadline \
             (m = {quarter_never_hit:?}): the deadline rows exercise no deadline"
        );
        std::process::exit(1);
    }
}

/// The `--session` mode of `bench-report`: amortized per-update cost
/// of the `ShapleySession` incremental maintenance path (in-place
/// exogenous flips on the report workload, each followed by a full
/// re-report) against the recompile path (the same flip applied to a
/// plain database, followed by a fresh `prepare` + report) at
/// `m ∈ {64, 256, 1024}`. Quick mode (CI) skips the recompile baseline
/// at `m = 1024` (it costs several seconds per update).
fn bench_session(quick: bool, out_path: &str) {
    use cqshap_db::Provenance;
    let q1 = queries::q1();
    let options = opts();
    let mut rows: Vec<String> = Vec::new();
    for &m in &[64usize, 256, 1024] {
        let db = cqshap_workloads::report_benchmark_db(m);
        assert_eq!(db.endo_count(), m);
        let updates: usize = if m >= 1024 {
            if quick {
                2
            } else {
                4
            }
        } else {
            8
        };
        let targets: Vec<cqshap_db::FactId> = db
            .endo_facts()
            .iter()
            .copied()
            .take(updates.div_ceil(2))
            .collect();

        // Incremental path: prepare once, then update + re-report.
        let t0 = Instant::now();
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &options).expect("hierarchical");
        let prepare_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        for u in 0..updates {
            // Flip one grouped fact out of Dn, then back in: every op
            // is a real provenance change touching one root group.
            let f = targets[u / 2];
            session.set_exogenous(f, u % 2 == 0).expect("live fact");
            let r = session.report().expect("hierarchical");
            assert!(r.efficiency_holds(), "efficiency after update {u}");
        }
        let incremental = t1.elapsed().as_secs_f64() * 1e3 / updates as f64;
        assert_eq!(
            session.stats().incremental_updates,
            updates,
            "every flip must be maintained incrementally"
        );

        // Correctness guard: the maintained session is bit-identical to
        // a fresh prepare on the updated database.
        {
            let fresh = ShapleySession::prepare(session.database(), AnyQuery::Cq(&q1), &options)
                .expect("hierarchical");
            let (a, b) = (
                session.report().expect("hierarchical"),
                fresh.report().expect("hierarchical"),
            );
            for (x, y) in a.entries.iter().zip(&b.entries) {
                assert_eq!(x.value, y.value, "maintained vs fresh at {}", x.rendered);
            }
        }

        // Recompile path: the same updates against a plain database,
        // paying a fresh prepare + report each time.
        let recompile = if quick && m >= 1024 {
            None
        } else {
            let mut plain = db.clone();
            let t2 = Instant::now();
            for u in 0..updates {
                let f = targets[u / 2];
                let p = if u % 2 == 0 {
                    Provenance::Exogenous
                } else {
                    Provenance::Endogenous
                };
                plain.set_fact_provenance(f, p).expect("live fact");
                let fresh = ShapleySession::prepare(&plain, AnyQuery::Cq(&q1), &options)
                    .expect("hierarchical");
                let r = fresh.report().expect("hierarchical");
                assert!(r.efficiency_holds());
            }
            Some(t2.elapsed().as_secs_f64() * 1e3 / updates as f64)
        };
        let speedup = recompile.map(|r| r / incremental);
        eprintln!(
            "session m = {m:>5}: prepare {prepare_ms:>10.3} ms | update+report {incremental:>10.3} ms \
             | recompile+report {} | speedup {}",
            recompile.map_or("skipped".to_string(), |r| format!("{r:.3} ms")),
            speedup.map_or("—".to_string(), |x| format!("{x:.1}×")),
        );
        rows.push(format!(
            "    {{\"m\": {m}, \"updates\": {updates}, \"prepare_ms\": {prepare_ms:.3}, \
             \"incremental_ms_per_update\": {incremental:.3}, \
             \"recompile_ms_per_update\": {}, \"speedup\": {}}}",
            recompile.map_or("null".to_string(), |r| format!("{r:.3}")),
            speedup.map_or("null".to_string(), |x| format!("{x:.2}")),
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"cqshap-bench-session/v1\",\n  \"query\": \"{}\",\n  \
         \"workload\": \"report_benchmark_db\",\n  \
         \"update\": \"set_exogenous flip on one grouped fact\",\n  \
         \"mode\": \"{}\",\n  {},\n  \"results\": [\n{}\n  ]\n}}\n",
        q1,
        if quick { "quick" } else { "full" },
        host_meta_json(),
        rows.join(",\n"),
    );
    std::fs::write(out_path, &json).expect("write session bench");
    println!("wrote {out_path}");
}

/// The `--probdb` mode of `bench-report`: a session's probability reads
/// against the seed lifted-inference traversal, on the probabilistic
/// analogue of the all-facts report — `Pr[D ⊨ q]` plus the expected
/// marginal `Pr[q | f present] − Pr[q | f absent]` of every endogenous
/// fact. The unified sample's first read compiles the session's plan at
/// the probability domain, and every marginal is served from its cached
/// leave-one-out environments (compile included in the timed total); the seed sample
/// answers the same report by re-running the `oracle_probability`
/// traversal from scratch per conditioning — `2m + 1` full traversals,
/// forcing a fact by pinning its probability to 1 or 0. Probabilities
/// are exact dyadic rationals cycled over `Dn`, so every measured
/// answer doubles as a correctness check: wherever both paths run,
/// their `BigRational` results must be bit-identical.
///
/// The seed path is always skipped at `m = 4096` (2m + 1 traversals
/// cost minutes there — exactly the regime the unified path opens) and
/// in quick mode at `m = 1024`; quick mode (CI) drops the `m = 4096`
/// row entirely (its unified report alone costs ~40 s).
fn bench_probdb(quick: bool, out_path: &str) {
    use cqshap_core::probability_by_enumeration;
    use cqshap_core::reference::oracle_probability;

    const DYADIC: &[(i64, i64)] = &[(1, 2), (1, 4), (3, 4), (1, 8), (5, 8), (7, 8)];
    /// A session on `db` with the dyadic probabilities cycled over `Dn`.
    fn session_for(db: &Database, q: &cqshap_query::ConjunctiveQuery) -> ShapleySession {
        let mut session = ShapleySession::prepare(db, AnyQuery::Cq(q), &ShapleyOptions::auto())
            .expect("hierarchical");
        for (i, &f) in db.endo_facts().iter().enumerate() {
            let (n, d) = DYADIC[i % DYADIC.len()];
            session
                .set_probability(f, BigRational::from_i64_ratio(n, d))
                .expect("endogenous");
        }
        session
    }

    let q1 = queries::q1();

    // Correctness guard before timing anything: on the running example
    // (small enough to enumerate worlds), the session, the seed oracle,
    // and brute-force enumeration agree bit for bit.
    {
        let db = figure_1_database();
        let mut session = session_for(&db, &q1);
        let pr = session.probability().expect("hierarchical");
        let probs = session.probabilities();
        let oracle = oracle_probability(&db, probs, &q1).expect("hierarchical");
        assert_eq!(pr, oracle, "unified vs seed oracle");
        let enumerated = probability_by_enumeration(&db, AnyQuery::Cq(&q1), probs, None, 20)
            .expect("small enough");
        assert_eq!(pr, enumerated, "unified vs enumeration");
    }

    let mut rows: Vec<String> = Vec::new();
    let sizes: &[usize] = if quick {
        &[64, 256, 1024]
    } else {
        &[64, 256, 1024, 4096]
    };
    for &m in sizes {
        let db = cqshap_workloads::report_benchmark_db(m);
        assert_eq!(db.endo_count(), m);

        // Unified path: the first read compiles, then every answer comes
        // from the cached environments. The incremental-maintenance
        // contract is checked with one provenance flip and its inverse
        // before timing.
        {
            let mut session = session_for(&db, &q1);
            session.probability().expect("hierarchical");
            let f = db.endo_facts()[0];
            session.set_exogenous(f, true).expect("live fact");
            session.set_exogenous(f, false).expect("live fact");
            assert_eq!(
                session.stats().incremental_updates,
                2,
                "provenance flips must be maintained in place"
            );
            assert_eq!(
                session.probability().expect("hierarchical"),
                oracle_probability(&db, session.probabilities(), &q1).expect("hierarchical"),
                "maintained session vs seed oracle after flip round-trip"
            );
        }
        let mut session = session_for(&db, &q1);
        let probs = session.probabilities().clone();
        let mut marginals: Vec<BigRational> = Vec::with_capacity(m);
        let t0 = Instant::now();
        let total = session.probability().expect("hierarchical");
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        for &f in db.endo_facts() {
            marginals.push(session.expected_shapley(f).expect("endogenous"));
        }
        let answers_ms = t1.elapsed().as_secs_f64() * 1e3;
        let unified = compile_ms + answers_ms;

        // Seed path: the same report, every conditioning a fresh full
        // traversal (forced presence/absence = probability pinned 1/0).
        let seed = if m >= 4096 || (quick && m >= 1024) {
            None
        } else {
            let t2 = Instant::now();
            let pr = oracle_probability(&db, &probs, &q1).expect("hierarchical");
            assert_eq!(pr, total, "seed vs unified Pr[D ⊨ q]");
            for (i, &f) in db.endo_facts().iter().enumerate() {
                let mut forced = probs.clone();
                forced.set(f, BigRational::one());
                let present = oracle_probability(&db, &forced, &q1).expect("hierarchical");
                forced.set(f, BigRational::zero());
                let absent = oracle_probability(&db, &forced, &q1).expect("hierarchical");
                assert_eq!(
                    present - absent,
                    marginals[i],
                    "seed vs unified marginal of fact {i}"
                );
            }
            Some(t2.elapsed().as_secs_f64() * 1e3)
        };
        let speedup = seed.map(|s| s / unified);
        eprintln!(
            "probdb m = {m:>5}: compile {compile_ms:>10.3} ms | unified report {unified:>10.3} ms \
             | seed report {} | speedup {}",
            seed.map_or("skipped".to_string(), |s| format!("{s:.3} ms")),
            speedup.map_or("—".to_string(), |x| format!("{x:.1}×")),
        );
        rows.push(format!(
            "    {{\"m\": {m}, \"compile_ms\": {compile_ms:.3}, \
             \"unified_report_ms\": {unified:.3}, \"seed_report_ms\": {}, \
             \"speedup\": {}}}",
            seed.map_or("null".to_string(), |s| format!("{s:.3}")),
            speedup.map_or("null".to_string(), |x| format!("{x:.2}")),
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"cqshap-bench-probdb/v1\",\n  \"query\": \"{}\",\n  \
         \"workload\": \"report_benchmark_db\",\n  \
         \"probabilities\": \"dyadic cycle {:?} over Dn\",\n  \
         \"report\": \"Pr[D \\u22a8 q] plus expected marginal of every endogenous fact\",\n  \
         \"seed_path\": \"cqshap_core::reference::oracle_probability, 2m + 1 traversals\",\n  \
         \"mode\": \"{}\",\n  {},\n  \"results\": [\n{}\n  ]\n}}\n",
        q1,
        DYADIC,
        if quick { "quick" } else { "full" },
        host_meta_json(),
        rows.join(",\n"),
    );
    std::fs::write(out_path, &json).expect("write probdb bench");
    println!("wrote {out_path}");
}

/// The `--poly` mode of `bench-report`: the `cqshap-numeric::poly`
/// convolution subsystem in isolation. The workload is the compile
/// stage's dominant kernel — the leave-one-out environments over one
/// unsatisfying-count polynomial per root group (degree 4, small
/// coefficients: the shape `report_benchmark_db` produces) — at
/// `m ∈ {256, 1024, 4096}` total endogenous facts. Rows compare:
///
/// * `schoolbook_descent` — an exact replica of the pre-subsystem
///   engine code (sequential fold products + prefix/suffix descent,
///   schoolbook convolution): the baseline;
/// * `karatsuba_descent` / `ntt_descent` — the same descent with the
///   forced backend (balanced subproduct trees), isolating what a
///   convolution backend alone buys on the old algorithm;
/// * `subsystem` — the shipped `poly::leave_one_out_products`: one
///   backend-dispatched total-product tree plus one exact division per
///   distinct factor.
///
/// The scaling rows run the shipped subsystem under explicit thread
/// caps (on a single-core host those rows are expectedly flat — the
/// JSON records `host_cores` so readers can tell). Quick mode (CI)
/// skips the multi-second descent rows at `m = 4096` and measures
/// single samples; the forced-NTT descent at `m = 4096` is always
/// skipped (the old algorithm's accumulator products make it pay full
/// big-coefficient transforms thousands of times — several minutes —
/// which is exactly why the subsystem replaced the descent).
fn bench_poly(quick: bool, out_path: &str) {
    use cqshap_numeric::poly::{self, Backend};
    use cqshap_numeric::BigUint;

    /// One degree-4 unsatisfying-count polynomial per 4-fact root
    /// group: `unsat[0] = 1` (the empty subset never satisfies) and
    /// `unsat[k] ≤ C(4, k)`, varied by a deterministic xorshift.
    fn group_polys(m: usize) -> Vec<Vec<BigUint>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ m as u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let binom4 = [1u64, 4, 6, 4, 1];
        (0..m / 4)
            .map(|_| {
                binom4
                    .iter()
                    .enumerate()
                    .map(|(k, &c)| BigUint::from_u64(if k == 0 { 1 } else { next() % (c + 1) }))
                    .collect()
            })
            .collect()
    }

    /// The pre-subsystem engine algorithm: subproducts by `fold_products`
    /// (the seed's sequential `product()`) or a balanced tree for the
    /// forced fast backends, then the prefix/suffix descent.
    fn fold_products(polys: &[&[BigUint]], backend: Backend) -> Vec<BigUint> {
        polys.iter().fold(vec![BigUint::one()], |acc, p| {
            poly::mul_with(&acc, p, backend)
        })
    }

    fn descent(
        polys: &[&[BigUint]],
        acc: Vec<BigUint>,
        backend: Backend,
        fold: bool,
        out: &mut Vec<Vec<BigUint>>,
    ) {
        match polys {
            [] => {}
            [_] => out.push(acc),
            _ => {
                let (left, right) = polys.split_at(polys.len() / 2);
                let (lp, rp) = if fold {
                    (fold_products(left, backend), fold_products(right, backend))
                } else {
                    (
                        poly::product_tree_with(left, 1, backend),
                        poly::product_tree_with(right, 1, backend),
                    )
                };
                descent(left, poly::mul_with(&acc, &rp, backend), backend, fold, out);
                descent(
                    right,
                    poly::mul_with(&acc, &lp, backend),
                    backend,
                    fold,
                    out,
                );
            }
        }
    }

    fn descent_ms(polys: &[Vec<BigUint>], backend: Backend, fold: bool) -> f64 {
        let refs: Vec<&[BigUint]> = polys.iter().map(|p| p.as_slice()).collect();
        time_ms(|| {
            let mut out = Vec::with_capacity(refs.len());
            descent(&refs, vec![BigUint::one()], backend, fold, &mut out);
            assert_eq!(out.len(), refs.len());
        })
    }

    fn subsystem_ms(polys: &[Vec<BigUint>], threads: usize) -> f64 {
        let refs: Vec<&[BigUint]> = polys.iter().map(|p| p.as_slice()).collect();
        time_ms(|| {
            let envs = poly::leave_one_out_products(&refs, &[BigUint::one()], threads, None)
                .expect("no token, no cancellation");
            assert_eq!(envs.len(), refs.len());
        })
    }

    // Correctness guard before timing anything: the shipped subsystem
    // must be bit-identical to the pre-subsystem descent, across
    // backends and thread caps.
    {
        let polys = group_polys(256);
        let refs: Vec<&[BigUint]> = polys.iter().map(|p| p.as_slice()).collect();
        let mut want = Vec::new();
        descent(
            &refs,
            vec![BigUint::one()],
            Backend::Schoolbook,
            true,
            &mut want,
        );
        for backend in [Backend::Karatsuba, Backend::Ntt] {
            let mut got = Vec::new();
            descent(&refs, vec![BigUint::one()], backend, false, &mut got);
            assert_eq!(got, want, "{backend:?} descent");
        }
        for threads in [1usize, 4] {
            assert_eq!(
                poly::leave_one_out_products(&refs, &[BigUint::one()], threads, None).as_ref(),
                Ok(&want),
                "subsystem with {threads} threads"
            );
        }
    }

    let samples = if quick { 1 } else { 3 };
    let mut rows: Vec<String> = Vec::new();
    for &m in &[256usize, 1024, 4096] {
        let polys = group_polys(m);
        let mut baseline = None;
        for algorithm in [
            "schoolbook_descent",
            "karatsuba_descent",
            "ntt_descent",
            "subsystem",
        ] {
            let skip = match algorithm {
                // The old algorithm's rows cost tens of seconds at
                // m = 4096 (forced NTT: minutes — always skipped).
                "schoolbook_descent" | "karatsuba_descent" => quick && m >= 4096,
                "ntt_descent" => m >= 4096,
                _ => false,
            };
            let med = if skip {
                None
            } else {
                let n = if m >= 4096 { 1 } else { samples };
                let run = || match algorithm {
                    "schoolbook_descent" => descent_ms(&polys, Backend::Schoolbook, true),
                    "karatsuba_descent" => descent_ms(&polys, Backend::Karatsuba, false),
                    "ntt_descent" => descent_ms(&polys, Backend::Ntt, false),
                    _ => subsystem_ms(&polys, 1),
                };
                Some(median((0..n).map(|_| run()).collect()))
            };
            if algorithm == "schoolbook_descent" {
                baseline = med;
            }
            let speedup = match (baseline, med) {
                (Some(b), Some(x)) => Some(b / x),
                _ => None,
            };
            eprintln!(
                "poly m = {m:>5} {algorithm:>20}: {} | vs baseline {}",
                med.map_or("skipped".to_string(), |x| format!("{x:>10.3} ms")),
                speedup.map_or("—".to_string(), |s| format!("{s:.1}×")),
            );
            rows.push(format!(
                "    {{\"m\": {m}, \"n_polys\": {}, \"algorithm\": \"{algorithm}\", \
                 \"sequential_median_ms\": {}, \"speedup_vs_schoolbook_descent\": {}}}",
                m / 4,
                med.map_or("null".to_string(), |x| format!("{x:.3}")),
                speedup.map_or("null".to_string(), |s| format!("{s:.2}")),
            ));
        }
    }

    let mut scaling_rows: Vec<String> = Vec::new();
    let scaling_ms: &[usize] = if quick { &[1024] } else { &[1024, 4096] };
    let thread_caps: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    for &m in scaling_ms {
        let polys = group_polys(m);
        let mut base = None;
        for &threads in thread_caps {
            let med = median(
                (0..samples)
                    .map(|_| subsystem_ms(&polys, threads))
                    .collect(),
            );
            let base_ms = *base.get_or_insert(med);
            eprintln!(
                "poly m = {m:>5} threads = {threads}: {med:>10.3} ms | speedup vs 1 thread {:.2}×",
                base_ms / med
            );
            scaling_rows.push(format!(
                "    {{\"m\": {m}, \"threads\": {threads}, \"median_ms\": {med:.3}, \
                 \"speedup_vs_one_thread\": {:.2}}}",
                base_ms / med
            ));
        }
    }

    let json = format!(
        "{{\n  \"schema\": \"cqshap-bench-poly/v1\",\n  \
         \"workload\": \"leave-one-out environments over m/4 degree-4 unsat polynomials\",\n  \
         \"baseline\": \"schoolbook_descent (pre-subsystem engine algorithm)\",\n  \
         \"mode\": \"{}\",\n  \"samples\": {samples},\n  {},\n  \
         \"results\": [\n{}\n  ],\n  \"thread_scaling\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        host_meta_json(),
        rows.join(",\n"),
        scaling_rows.join(",\n"),
    );
    std::fs::write(out_path, &json).expect("write poly bench");
    println!("wrote {out_path}");
}

/// The `--ucq` / `--aggregate` modes of `bench-report`: the batched
/// inclusion–exclusion union report and the aggregate report over its
/// weighted term list, each against its per-fact seed path (every fact re-running
/// the full counting pipeline with no compiled sharing), at
/// `m ∈ {64, 256}`. Results land in `BENCH_ucq.json`.
///
/// The per-fact baselines are measured with a single sample at `m = 256`
/// (they cost tens of seconds); quick mode (CI) additionally skips the
/// aggregate baseline there.
fn bench_union_aggregate(ucq: bool, aggregate: bool, quick: bool, samples: usize, out_path: &str) {
    let options = opts();
    let mut rows: Vec<String> = Vec::new();
    let row = |mode: &str, m: usize, batched: f64, per_fact: Option<f64>| {
        let speedup = per_fact.map(|p| p / batched);
        eprintln!(
            "{mode} m = {m:>4}: batched {batched:>10.3} ms | per-fact {} | speedup {}",
            per_fact.map_or("skipped".to_string(), |p| format!("{p:.3} ms")),
            speedup.map_or("—".to_string(), |s| format!("{s:.1}×")),
        );
        format!(
            "    {{\"mode\": \"{mode}\", \"m\": {m}, \"batched_median_ms\": {batched:.3}, \
             \"per_fact_median_ms\": {}, \"speedup\": {}}}",
            per_fact.map_or("null".to_string(), |p| format!("{p:.3}")),
            speedup.map_or("null".to_string(), |s| format!("{s:.2}")),
        )
    };

    if ucq {
        let u = queries::union_benchmark();
        // Correctness guard before timing anything: the batched union
        // engine must be bit-identical to the per-fact path.
        {
            let db = cqshap_workloads::union_benchmark_db(64);
            let batched = shapley_report_union(&db, &u, &options).expect("tractable union");
            let per_fact =
                shapley_report_union_per_fact(&db, &u, &options).expect("tractable union");
            assert!(batched.efficiency_holds(), "union efficiency violated");
            for (a, b) in batched.entries.iter().zip(&per_fact.entries) {
                assert_eq!(
                    a.value, b.value,
                    "union batched vs per-fact at {}",
                    a.rendered
                );
            }
        }
        for &m in &[64usize, 256] {
            let db = cqshap_workloads::union_benchmark_db(m);
            assert_eq!(db.endo_count(), m);
            let batched = median(
                (0..samples)
                    .map(|_| {
                        time_ms(|| {
                            let r = shapley_report_union(&db, &u, &options).expect("tractable");
                            assert!(r.efficiency_holds());
                        })
                    })
                    .collect(),
            );
            let n = if m >= 256 { 1 } else { samples };
            let per_fact = Some(median(
                (0..n)
                    .map(|_| {
                        time_ms(|| {
                            let r = shapley_report_union_per_fact(&db, &u, &options)
                                .expect("tractable");
                            assert!(r.efficiency_holds());
                        })
                    })
                    .collect(),
            ));
            rows.push(row("ucq", m, batched, per_fact));
        }
    }

    if aggregate {
        let q = queries::per_course_count();
        let agg = AggregateFunction::Count;
        // Correctness guard: the compiled report must agree with
        // the per-fact aggregate decomposition.
        {
            let db = cqshap_workloads::report_benchmark_db(64);
            let report = aggregate_report(&db, &q, &agg, &options).expect("tractable aggregate");
            assert!(report.efficiency_holds(), "aggregate efficiency violated");
            for entry in &report.entries {
                let v = aggregate_shapley(&db, &q, &agg, entry.fact, &options).expect("tractable");
                assert_eq!(
                    entry.value, v,
                    "aggregate report vs per-fact at {}",
                    entry.rendered
                );
            }
        }
        for &m in &[64usize, 256] {
            let db = cqshap_workloads::report_benchmark_db(m);
            let batched = median(
                (0..samples)
                    .map(|_| {
                        time_ms(|| {
                            let r = aggregate_report(&db, &q, &agg, &options).expect("tractable");
                            assert!(r.efficiency_holds());
                        })
                    })
                    .collect(),
            );
            // The per-fact seed loop at m = 256 costs minutes; quick
            // mode (CI) skips it, full mode measures a single sample.
            let per_fact = if quick && m >= 256 {
                None
            } else {
                let n = if m >= 256 { 1 } else { samples };
                Some(median(
                    (0..n)
                        .map(|_| {
                            time_ms(|| {
                                for &f in db.endo_facts() {
                                    aggregate_shapley(&db, &q, &agg, f, &options)
                                        .expect("tractable");
                                }
                            })
                        })
                        .collect(),
                ))
            };
            rows.push(row("aggregate", m, batched, per_fact));
        }
    }

    let json = format!(
        "{{\n  \"schema\": \"cqshap-bench-ucq/v1\",\n  \
         \"union_query\": \"{}\",\n  \"aggregate_query\": \"{}\",\n  \
         \"workloads\": [\"union_benchmark_db\", \"report_benchmark_db\"],\n  \
         \"mode\": \"{}\",\n  \"samples\": {},\n  {},\n  \"results\": [\n{}\n  ]\n}}\n",
        queries::union_benchmark().to_string().replace('\n', "; "),
        queries::per_course_count(),
        if quick { "quick" } else { "full" },
        samples,
        host_meta_json(),
        rows.join(",\n"),
    );
    std::fs::write(out_path, &json).expect("write bench report");
    println!("wrote {out_path}");
}

// ---------------------------------------------------------------------

fn e1() {
    let db = figure_1_database();
    let q1 = queries::q1();
    let report = shapley_report(&db, &q1, &opts()).expect("hierarchical");
    let paper = [
        ("TA(Adam)", "-3/28"),
        ("TA(Ben)", "-2/35"),
        ("TA(David)", "0"),
        ("Reg(Adam, OS)", "37/210"),
        ("Reg(Adam, AI)", "37/210"),
        ("Reg(Ben, OS)", "27/140"),
        ("Reg(Caroline, DB)", "13/42"),
        ("Reg(Caroline, IC)", "13/42"),
    ];
    let mut t = Table::new(&["fact", "paper (Ex. 2.3)", "computed", "match"]);
    for ((fact, want), entry) in paper.iter().zip(&report.entries) {
        assert_eq!(*fact, entry.rendered);
        let got = entry.value.to_string();
        let ok = if got == *want { "✓" } else { "✗" };
        t.row(&[fact.to_string(), want.to_string(), got, ok.to_string()]);
    }
    print!("{t}");
    println!(
        "\nefficiency: Σ = {} vs q(D) − q(Dx) = {} → {}",
        report.total,
        report.expected_total,
        if report.efficiency_holds() {
            "holds"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "note: the appendix's expansion for f_r1 misses the subset {{f_t2, f_t3}}; \
         the main text's 37/210 is correct and reproduced here."
    );
}

fn e2() {
    let mut t = Table::new(&["query", "X", "verdict"]);
    let none: HashSet<String> = HashSet::new();
    let row = |t: &mut Table, q: &cqshap_query::ConjunctiveQuery, x: &HashSet<String>| {
        let mut names: Vec<&str> = x.iter().map(|s| s.as_str()).collect();
        names.sort();
        t.row(&[
            q.to_string(),
            format!("{{{}}}", names.join(",")),
            classify_with_exo(q, x).to_string(),
        ]);
    };
    row(&mut t, &queries::q1(), &none);
    row(&mut t, &queries::q2(), &none);
    let x2: HashSet<String> = ["Stud", "Course"].iter().map(|s| s.to_string()).collect();
    row(&mut t, &queries::q2(), &x2);
    row(&mut t, &queries::q3(), &none);
    row(&mut t, &queries::q4(), &none);
    for q in [
        queries::qrst(),
        queries::qnrsnt(),
        queries::qrnst(),
        queries::qrsnt(),
    ] {
        row(&mut t, &q, &none);
    }
    let xs: HashSet<String> = ["S"].iter().map(|s| s.to_string()).collect();
    row(&mut t, &queries::qrnst(), &xs);
    row(&mut t, &queries::citations(), &none);
    let xc: HashSet<String> = ["Pub", "Citations"].iter().map(|s| s.to_string()).collect();
    row(&mut t, &queries::citations(), &xc);
    let xcit: HashSet<String> = ["Citations"].iter().map(|s| s.to_string()).collect();
    row(&mut t, &queries::citations(), &xcit);
    let x41: HashSet<String> = ["S", "P"].iter().map(|s| s.to_string()).collect();
    row(&mut t, &queries::section_4_1_tractable(), &x41);
    row(&mut t, &queries::section_4_1_hard(), &x41);
    let x42: HashSet<String> = ["Q", "S", "U", "P"].iter().map(|s| s.to_string()).collect();
    row(&mut t, &queries::example_4_2_q(), &x42);
    let x42p: HashSet<String> = ["R", "S", "O", "P", "V"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    row(&mut t, &queries::example_4_2_qprime(), &x42p);
    row(&mut t, &queries::unemployed_couple(), &none);
    row(&mut t, &queries::non_citizen_couple(), &none);
    row(&mut t, &queries::farmer_exports(), &none);
    print!("{t}");
}

fn e3() {
    let q1 = queries::q1();
    let mut t = Table::new(&[
        "students",
        "|Dn|",
        "CntSat (all facts)",
        "brute force (one fact)",
    ]);
    for students in [4usize, 8, 16, 32, 64, 128] {
        let db = UniversityConfig {
            students,
            courses: (students / 2).max(2),
            declare_exogenous: false,
            seed: 42,
            ..Default::default()
        }
        .generate();
        let t0 = Instant::now();
        let report = shapley_report(&db, &q1, &opts()).expect("hierarchical");
        let fast = t0.elapsed();
        assert!(report.efficiency_holds());
        let brute = if db.endo_count() <= 22 {
            let f = db.endo_facts()[0];
            let t1 = Instant::now();
            let v = shapley_via_counts(&db, AnyQuery::Cq(&q1), f, &BruteForceCounter::default())
                .expect("small enough");
            assert_eq!(v, report.entries[0].value);
            ms(t1.elapsed())
        } else {
            format!("2^{} worlds — skipped", db.endo_count())
        };
        t.row(&[
            students.to_string(),
            db.endo_count().to_string(),
            ms(fast),
            brute,
        ]);
    }
    print!("{t}");
    println!("\n(CntSat grows polynomially; enumeration doubles per added fact.)");
}

fn e4() {
    // Correctness on the running example (vs brute force).
    let mut db = figure_1_database();
    for name in ["Stud", "Course", "Adv"] {
        let rel = db.schema().id(name).expect("exists");
        db.declare_exogenous_relation(rel).expect("exogenous-safe");
    }
    let q2 = queries::q2();
    let exo_opts = ShapleyOptions::with_strategy(Strategy::ExoShap);
    let bf_opts = ShapleyOptions::with_strategy(Strategy::BruteForceSubsets);
    let mut t = Table::new(&["fact", "ExoShap", "brute force", "match"]);
    for &f in db.endo_facts() {
        let a = shapley_value(&db, &q2, f, &exo_opts).expect("rewritable");
        let b = shapley_value(&db, &q2, f, &bf_opts).expect("small");
        let ok = if a == b { "✓" } else { "✗" };
        t.row(&[
            db.render_fact(f),
            a.to_string(),
            b.to_string(),
            ok.to_string(),
        ]);
    }
    print!("{t}");

    // Rewriting trace (Figure 3 analogue).
    let outcome = rewrite(&db, &q2, 10_000_000).expect("rewritable");
    println!("\nrewriting stages for q2:");
    for s in &outcome.stages {
        println!("  {s}");
    }

    // Scaling on the academic scenario.
    let q = queries::citations();
    let mut t2 = Table::new(&["authors", "|Dn|", "ExoShap report (all facts)"]);
    for authors in [8usize, 16, 32, 64] {
        let adb = AcademicConfig {
            authors,
            seed: 9,
            ..Default::default()
        }
        .generate();
        let t0 = Instant::now();
        let report = shapley_report(&adb, &q, &exo_opts).expect("rewritable");
        assert!(report.efficiency_holds());
        t2.row(&[
            authors.to_string(),
            adb.endo_count().to_string(),
            ms(t0.elapsed()),
        ]);
    }
    println!();
    print!("{t2}");
}

fn e5() {
    let mut t = Table::new(&[
        "n",
        "|D_n| endo",
        "Shapley(D_n, q, f0)",
        "as float",
        "2^-n bound",
    ]);
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let (q, inst) = section_5_1_example(n);
        let value = if n <= 4 {
            // Verify the closed form against the actual computation.
            let v = shapley_via_counts(
                &inst.db,
                AnyQuery::Cq(&q),
                inst.f0,
                &BruteForceCounter::default(),
            )
            .expect("small");
            assert_eq!(v.abs(), inst.expected_abs);
            v.abs()
        } else {
            inst.expected_abs.clone()
        };
        t.row(&[
            n.to_string(),
            (2 * n + 1).to_string(),
            value.to_string(),
            format!("{:.3e}", value.to_f64()),
            format!("{:.3e}", 2f64.powi(-(n as i32))),
        ]);
    }
    print!("{t}");
    println!("\n(values ≤ 2^-n yet provably nonzero: the gap property fails — Theorem 5.1)");
}

fn e6() {
    let db = figure_1_database();
    let q1 = queries::q1();
    let exact = shapley_report(&db, &q1, &opts()).expect("hierarchical");
    let mut t = Table::new(&[
        "ε",
        "δ",
        "samples",
        "max additive error (8 facts)",
        "within ε",
    ]);
    for (eps, delta) in [(0.2, 0.05), (0.1, 0.05), (0.05, 0.01), (0.02, 0.01)] {
        let samples = required_samples(eps, delta).expect("ε, δ in range");
        let mut max_err = 0f64;
        for entry in &exact.entries {
            let est = shapley_sampled(&db, AnyQuery::Cq(&q1), entry.fact, samples, 31337, 0)
                .expect("endogenous");
            max_err = max_err.max((est.estimate - entry.value.to_f64()).abs());
        }
        t.row(&[
            eps.to_string(),
            delta.to_string(),
            samples.to_string(),
            format!("{max_err:.5}"),
            (max_err <= eps).to_string(),
        ]);
    }
    print!("{t}");

    // Multiplicative failure on the gap family.
    println!("\nmultiplicative failure on the Theorem 5.1 family (ε = 0.05, δ = 0.01):");
    let samples = required_samples(0.05, 0.01).expect("ε, δ in range");
    let mut t2 = Table::new(&["n", "true value", "estimate", "relative error"]);
    for n in [2usize, 6, 10, 14] {
        let (q, inst) = section_5_1_example(n);
        let est = shapley_sampled(&inst.db, AnyQuery::Cq(&q), inst.f0, samples, 7, 0)
            .expect("endogenous");
        let truth = inst.expected_abs.to_f64();
        let rel = if est.estimate == 0.0 {
            "∞ (estimate is 0)".to_string()
        } else {
            format!("{:.2}", (est.estimate - truth).abs() / truth)
        };
        t2.row(&[
            n.to_string(),
            format!("{truth:.3e}"),
            format!("{:.3e}", est.estimate),
            rel,
        ]);
    }
    print!("{t2}");
}

fn e7() {
    let q = prop55::qrst_nr_query();
    println!("query: {q}\n");
    let mut t = Table::new(&["formula", "DPLL sat", "T(c) relevant", "agree"]);
    for seed in 0..8u64 {
        let f = formulas::random_224(4, 6, seed);
        let (db, fact) = prop55::build_relevance_instance(&f).expect("in shape");
        let (pos, _) = brute_force_relevance(&db, AnyQuery::Cq(&q), fact, 24).expect("small");
        let sat = f.is_satisfiable();
        t.row(&[
            f.to_string(),
            sat.to_string(),
            pos.to_string(),
            if sat == pos { "✓" } else { "✗" }.to_string(),
        ]);
    }
    print!("{t}");
    println!("\nLemma D.1 chain (3-colorability → (3+,2−)-SAT → (2+,2−,4+−)-SAT):");
    let mut t2 = Table::new(&["graph", "3-colorable", "reduced formula sat", "agree"]);
    for (name, g) in [
        (
            "triangle",
            cqshap_gadgets::Graph::new(3, vec![(0, 1), (1, 2), (0, 2)]),
        ),
        (
            "K4",
            cqshap_gadgets::Graph::new(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        ),
        (
            "C5",
            cqshap_gadgets::Graph::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        ),
        ("random(5, .7)", graphs::random_graph(5, 0.7, 3)),
    ] {
        let sat = to_224(&coloring_to_3p2n(&g)).is_satisfiable();
        let col = g.is_three_colorable();
        t2.row(&[
            name.to_string(),
            col.to_string(),
            sat.to_string(),
            if sat == col { "✓" } else { "✗" }.to_string(),
        ]);
    }
    print!("{t2}");
}

fn e8() {
    let q1 = queries::q1();
    let mut t = Table::new(&[
        "students",
        "|Dn|",
        "IsPos+IsNeg (all facts)",
        "brute force (all facts)",
        "agreements",
    ]);
    for students in [4usize, 8, 12, 16, 32, 64] {
        let db = UniversityConfig {
            students,
            courses: (students / 2).max(2),
            declare_exogenous: false,
            seed: 13,
            ..Default::default()
        }
        .generate();
        let t0 = Instant::now();
        let mut fast: Vec<(bool, bool)> = Vec::new();
        for &f in db.endo_facts() {
            fast.push((
                is_positively_relevant(&db, AnyQuery::Cq(&q1), f).expect("consistent"),
                is_negatively_relevant(&db, AnyQuery::Cq(&q1), f).expect("consistent"),
            ));
        }
        let fast_time = t0.elapsed();
        let (brute_cell, agree_cell) = if db.endo_count() <= 16 {
            let t1 = Instant::now();
            let mut agree = 0usize;
            for (i, &f) in db.endo_facts().iter().enumerate() {
                let bf = brute_force_relevance(&db, AnyQuery::Cq(&q1), f, 24).expect("small");
                if bf == fast[i] {
                    agree += 1;
                }
            }
            (ms(t1.elapsed()), format!("{agree}/{}", db.endo_count()))
        } else {
            ("skipped".to_string(), "—".to_string())
        };
        t.row(&[
            students.to_string(),
            db.endo_count().to_string(),
            ms(fast_time),
            brute_cell,
            agree_cell,
        ]);
    }
    print!("{t}");
}

fn e9() {
    let u = prop58::qsat_query();
    println!("union:");
    for d in u.disjuncts() {
        println!("  {d}");
    }
    println!();
    let mut t = Table::new(&["3CNF formula", "DPLL sat", "R(0) relevant", "agree"]);
    let check = |t: &mut Table, f3: &cqshap_gadgets::CnfFormula| {
        let (db, r0) = prop58::build_relevance_instance(f3).expect("3CNF");
        let (pos, _) = brute_force_relevance(&db, AnyQuery::Union(&u), r0, 24).expect("small");
        let sat = f3.is_satisfiable();
        t.row(&[
            f3.to_string(),
            sat.to_string(),
            pos.to_string(),
            if sat == pos { "✓" } else { "✗" }.to_string(),
        ]);
    };
    for seed in 0..5u64 {
        check(&mut t, &formulas::random_3sat(3, 8, seed));
    }
    // Random short formulas over 3 variables are almost always
    // satisfiable; pin the UNSAT side with all eight sign patterns.
    use cqshap_gadgets::{Clause, CnfFormula, Literal};
    let unsat = CnfFormula::new(
        3,
        (0u8..8)
            .map(|mask| {
                Clause(
                    (0..3)
                        .map(|i| Literal {
                            var: i,
                            positive: mask & (1 << i) != 0,
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    check(&mut t, &unsat);
    print!("{t}");
}

fn e10() {
    println!("query: {}\n", reduction_rst::qrsnt_query());
    let mut t = Table::new(&[
        "bipartite graph",
        "|IS| direct",
        "|IS| via Shapley oracle",
        "match",
        "time",
    ]);
    for (l, r, p, seed) in [
        (2usize, 2usize, 0.5f64, 1u64),
        (3, 2, 0.4, 2),
        (2, 3, 0.6, 3),
        (3, 3, 0.5, 4),
    ] {
        let g = graphs::random_bipartite(l, r, p, seed);
        let truth = g.independent_set_count();
        let t0 = Instant::now();
        let (rec, _) = reduction_rst::recover_is_count(&g, &reduction_rst::brute_force_oracle)
            .expect("reduction");
        let dt = t0.elapsed();
        t.row(&[
            format!("{l}x{r}, {} edges", g.edges().len()),
            truth.to_string(),
            rec.to_string(),
            if truth == rec { "✓" } else { "✗" }.to_string(),
            ms(dt),
        ]);
    }
    print!("{t}");
}

fn e11() {
    let oracle = BruteForceCounter::default();
    let mut base = Database::new();
    base.add_relation("S", 2).expect("fresh");
    base.add_endo("R", &["a0"]).expect("fresh");
    base.add_endo("R", &["a1"]).expect("fresh");
    base.add_endo("T", &["b0"]).expect("fresh");
    base.add_endo("T", &["b1"]).expect("fresh");
    for (a, b) in [("a0", "b0"), ("a0", "b1"), ("a1", "b1")] {
        base.add_exo("S", &[a, b]).expect("fresh");
    }
    let targets = [
        "q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')",
        "q() :- Farmer(m), Export(m, p, c), !Grows(c, p)",
        "q() :- A(x), B(x, y, z), C(y), D(z, w)",
        "q() :- !A(x), P(x), B(x, y), !C(y), Q(y)",
        "q() :- A(x), !B(x, y), C(y)",
    ];
    let mut t = Table::new(&["target query", "base", "facts checked", "Shapley preserved"]);
    for text in targets {
        let q = parse_cq(text).expect("parses");
        let emb = embed::embed_triplet(&q, &base).expect("embeds");
        let mut ok = true;
        for (&bf, &ef) in &emb.fact_map {
            let a = shapley_via_counts(&base, AnyQuery::Cq(&emb.base), bf, &oracle).expect("ok");
            let b = shapley_via_counts(&emb.db, AnyQuery::Cq(&q), ef, &oracle).expect("ok");
            ok &= a == b;
        }
        t.row(&[
            text.to_string(),
            emb.base.name().to_string(),
            emb.fact_map.len().to_string(),
            if ok { "✓" } else { "✗" }.to_string(),
        ]);
    }
    print!("{t}");

    // Path version (Theorem 4.3 hardness side).
    let q = queries::section_4_1_hard();
    let exo: HashSet<String> = ["S", "P"].iter().map(|s| s.to_string()).collect();
    let emb = embed::embed_path(&q, &exo, &base, 1_000_000).expect("embeds");
    let mut ok = true;
    for (&bf, &ef) in &emb.fact_map {
        let a = shapley_via_counts(&base, AnyQuery::Cq(&emb.base), bf, &oracle).expect("ok");
        let b = shapley_via_counts(&emb.db, AnyQuery::Cq(&q), ef, &oracle).expect("ok");
        ok &= a == b;
    }
    println!(
        "\npath embedding into {q} (X = {{S,P}}): base {}, {} facts, preserved: {}",
        emb.base.name(),
        emb.fact_map.len(),
        if ok { "✓" } else { "✗" }
    );
}

fn e12() {
    let q = queries::citations();
    println!("query: {q} with deterministic Pub, Citations\n");
    let mut t = Table::new(&[
        "authors",
        "Pr (lifted+rewrite)",
        "Pr (enumeration)",
        "time (lifted)",
    ]);
    // Every endogenous fact present with probability `p`: the session
    // routes the query through the ExoShap rewriting (Theorem 4.10).
    let probability = |db: &Database, p: (i64, i64)| {
        let options = ShapleyOptions::auto().tuple_budget(10_000_000);
        let mut session =
            ShapleySession::prepare(db, AnyQuery::Cq(&q), &options).expect("rewritable");
        assert_eq!(session.strategy(), Some(ResolvedStrategy::ExoShap));
        session
            .set_default_probability(BigRational::from_i64_ratio(p.0, p.1))
            .expect("a probability");
        let pr = session.probability().expect("rewritable");
        (pr, session)
    };
    for authors in [6usize, 10, 14] {
        let adb = AcademicConfig {
            authors,
            seed: 77,
            ..Default::default()
        }
        .generate();
        let t0 = Instant::now();
        let (fast, session) = probability(&adb, (7, 20));
        let dt = t0.elapsed();
        let slow = cqshap_core::probability_by_enumeration(
            &adb,
            AnyQuery::Cq(&q),
            session.probabilities(),
            None,
            20,
        )
        .expect("small");
        assert_eq!(fast, slow);
        t.row(&[
            authors.to_string(),
            format!("{:.6}", fast.to_f64()),
            format!("{:.6}", slow.to_f64()),
            ms(dt),
        ]);
    }
    print!("{t}");
    let mut t2 = Table::new(&["authors", "Pr (lifted+rewrite)", "time"]);
    for authors in [50usize, 100, 200] {
        let adb = AcademicConfig {
            authors,
            cited_fraction: 0.2,
            seed: 77,
            ..Default::default()
        }
        .generate();
        let t0 = Instant::now();
        let (fast, _) = probability(&adb, (1, 20));
        t2.row(&[
            authors.to_string(),
            format!("{:.6}", fast.to_f64()),
            ms(t0.elapsed()),
        ]);
    }
    println!("\nscaling beyond enumeration reach (2^|Dn| worlds):");
    print!("{t2}");
}

fn e13() {
    let db = ExportsConfig {
        farmers: 4,
        products: 3,
        countries: 3,
        exports: 7,
        seed: 11,
        ..Default::default()
    }
    .generate();
    let q = cqshap_workloads::exports::exports_count_query();
    let agg = AggregateFunction::Count;
    let full = aggregate_value(&db, &World::full(&db), &q, &agg).expect("evaluates");
    let empty = aggregate_value(&db, &World::empty(&db), &q, &agg).expect("evaluates");
    println!("Count{{c | Farmer(m), Export(m,p,c), ¬Grows(c,p)}}: D → {full}, Dx → {empty}\n");
    let mut t = Table::new(&["fact", "aggregate Shapley value", "sign as predicted"]);
    let mut total = BigRational::zero();
    for &f in db.endo_facts() {
        let v = aggregate_shapley(&db, &q, &agg, f, &opts()).expect("small");
        let rel = db.schema().name(db.fact(f).rel).to_string();
        let sign_ok = match rel.as_str() {
            "Farmer" => !v.is_negative(),
            "Grows" => !v.is_positive(),
            _ => false,
        };
        total += &v;
        t.row(&[
            db.render_fact(f),
            v.to_string(),
            if sign_ok { "✓" } else { "✗" }.to_string(),
        ]);
    }
    print!("{t}");
    println!(
        "\nefficiency: Σ = {total} equals count(D) − count(Dx) = {} → {}",
        &full - &empty,
        if total == &full - &empty {
            "holds"
        } else {
            "VIOLATED"
        }
    );
}

fn e14() {
    let db = Database::parse("endo R(1, 2)\nendo R(2, 1)\n").expect("parses");
    let q = queries::example_5_3();
    println!("query: {q} over {{R(1,2), R(2,1)}} (both endogenous)\n");
    let mut t = Table::new(&["fact", "pos. relevant", "neg. relevant", "Shapley"]);
    for &f in db.endo_facts() {
        let (pos, neg) = brute_force_relevance(&db, AnyQuery::Cq(&q), f, 24).expect("small");
        let v = shapley_by_permutations(&db, AnyQuery::Cq(&q), f, 9, None).expect("small");
        t.row(&[
            db.render_fact(f),
            pos.to_string(),
            neg.to_string(),
            v.to_string(),
        ]);
        assert!(pos && neg && v.is_zero());
    }
    print!("{t}");
    println!("\n(relevance does not imply a nonzero value once a relation is polarity-mixed)");
}
