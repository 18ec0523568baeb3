//! The repository benchmark: cold CLI reports over a query mix, session
//! churn, and the hard-query sampler. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <cold-report|session-churn|hard-anytime|all>
//!           --seed N --seconds S --trace 0|1 --cqshap <path to cqshap>
//! ```
//!
//! Prints every figure as `name value unit (note)`, then, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`)
//! that `BENCHMARK.json` declares.

// A benchmark: reading the clock and spawning threads is its job, so the
// repository's `disallowed_methods` discipline (clippy.toml) is waived.
#![allow(clippy::disallowed_methods)]

mod check;
mod churn;
mod cold;
mod common;
mod gen;
mod hard;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Ctx;
use stats::Outcome;

const WORKLOADS: [&str; 3] = ["cold-report", "session-churn", "hard-anytime"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cqshap: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        cqshap: get("--cqshap")?.clone(),
    })
}

/// The checkout's git revision, read from `.git` directly so nothing
/// outside the checkout is consulted.
fn revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("{r} (unresolved)")),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

/// The metric names `BENCHMARK.json` declares for this mode: the
/// `"name"` entries between `"end_to_end"` and `"per_layer"`, or after
/// `"per_layer"`, sorted.
fn declared_names(trace: bool) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let (e2e, layers) = text
        .split_once("\"end_to_end\"")
        .and_then(|(_, rest)| rest.split_once("\"per_layer\""))
        .ok_or("BENCHMARK.json lacks end_to_end or per_layer")?;
    let section = if trace { layers } else { e2e };
    let mut names: Vec<String> = section
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split_once('"').map(|(name, _)| name.to_string()))
        .collect();
    names.sort();
    Ok(names)
}

/// Runs every workload in turn, each in its own process (a traced
/// process stays traced for good).
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for w in WORKLOADS {
        let mut args = argv.clone();
        if let Some(i) = args.iter().position(|a| a == "--workload") {
            args[i + 1] = w.to_string();
        }
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(s) if s.success() => {}
            _ => return ExitCode::FAILURE,
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {WORKLOADS:?} or all",
            args.workload
        );
        return ExitCode::from(2);
    }
    let declared = match declared_names(args.trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let work =
        PathBuf::from(".perfbench_work").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).expect("the checkout is writable");
    // The traced pass runs single-threaded: worker-thread spans then
    // nest under their phase, and the work counters repeat exactly (two
    // workers can both miss the recount cache on one key, so with more
    // threads its hit/miss split varies between identical requests).
    let threads = if args.trace { 1 } else { host_cores.min(2) };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        cqshap: args.cqshap.clone(),
        work,
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  host_cores={host_cores} thread_cap={} revision={} load=closed loop, 1 client",
        ctx.threads,
        revision()
    );

    let mut out = Outcome::default();
    match (args.workload.as_str(), args.trace) {
        ("cold-report", false) => {
            check::cold(&ctx, &mut out);
            cold::run(&ctx, &mut out);
        }
        ("cold-report", true) => cold::run_traced(&ctx, &mut out),
        ("session-churn", false) => {
            check::churn(&ctx, &mut out);
            churn::run(&ctx, &mut out);
        }
        ("session-churn", true) => churn::run_traced(&ctx, &mut out),
        ("hard-anytime", false) => {
            check::hard(&ctx, &mut out);
            hard::run(&ctx, &mut out);
        }
        _ => hard::run_traced(&ctx, &mut out),
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(".perfbench_work");

    if out.attempted == 0 {
        out.problem("benchmark bug: no operation was attempted".into());
    }
    out.show(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "",
        &format!("{} failed of {} attempted", out.failed, out.attempted),
    );
    let emitted = out.names();
    if emitted != declared {
        eprintln!(
            "perfbench: benchmark bug: emitted metrics {emitted:?} differ from BENCHMARK.json's {declared:?}"
        );
        return ExitCode::from(3);
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
