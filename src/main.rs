//! `cqshap` — command-line front end.
//!
//! ```text
//! cqshap classify  "q() :- R(x), S(x, y), !T(y)" [--exo S,T]
//! cqshap shapley   <db-file> "<query>" [--fact "Reg(Adam, OS)"] [--strategy auto|hierarchical|exoshap|brute|permutations]
//! cqshap relevance <db-file> "<query>" --fact "TA(Adam)"
//! cqshap prob      <db-file> "<query>" [--default-p 0.5] [--fact "R(a, b)"] [--threads N]
//! cqshap satcount  <db-file> "<query>"
//! ```
//!
//! Databases use the line format of `cqshap-db` (`endo R(a, b)`,
//! `exo S(c)`, `exorel Pub`); queries use the datalog syntax of
//! `cqshap-query`. See `README.md`.

// Binary front end: user-facing timing output is exempt from the
// `no-wall-clock` discipline (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::collections::{HashMap, HashSet};
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use cqshap::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let result = run(&args, &mut out);
    // Flush after a failed command too: what it printed precedes the
    // error.
    let flushed = out.flush().map_err(CliError::Write);
    match result.and(flushed) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`cqshap report … | head`): nobody is
        // left to tell.
        Err(CliError::Write(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(CliError::Write(e)) => {
            eprintln!("error: writing output: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Message(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command failed: bad input or a failed computation (reported
/// with the usage text), or a failed write to stdout. A bare
/// `io::Error` converts to `Write`, so other I/O (reading the db,
/// writing the trace) must map its error to a message first.
enum CliError {
    Message(String),
    Write(io::Error),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Message(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Message(msg.to_string())
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Write(e)
    }
}

const USAGE: &str = "usage:
  cqshap classify  \"<query>\" [--exo R1,R2]
  cqshap shapley   <db-file> \"<query>\" [--fact \"R(a, b)\"] [--strategy auto|hierarchical|exoshap|brute|permutations]
                   [--threads N] [--deadline-ms N]
  cqshap report    <db-file> \"<query>\" [--strategy ...] [--agg count|sum:VAR] [--threads N]
                   [--deadline-ms N] [--tier] [--epsilon E] [--trace [--trace-out FILE]]
                   (the query may be a UCQ: rules separated by `;` or newlines;
                    with --agg it must project the aggregate's head variables;
                    --deadline-ms bounds the exact computation, failing with
                    `deadline exceeded` instead of hanging; --tier degrades to
                    an anytime sampling estimate (target ±E, default 0.05) or
                    a minimal-supports attribution when exact answering is
                    refused or over budget)
  cqshap relevance <db-file> \"<query>\" --fact \"R(a, b)\"
  cqshap prob      <db-file> \"<query>\" [--default-p 0.5] [--fact \"R(a, b)\"] [--threads N]
                   [--trace [--trace-out FILE]]
                   (exact tuple-independent probability from the session's
                    compiled engine; --fact prints the expected marginal;
                    the query may be a UCQ)
  cqshap satcount  <db-file> \"<query>\"

  --trace collects per-phase spans, counters, and histograms during the
  command (report, shapley, and prob) and writes a cqshap-trace/v1 JSON
  document afterwards; --trace-out picks the path (default
  TRACE_report.json) and implies --trace.";

/// Parsed `--flag value` options after the positional arguments.
struct Options {
    positional: Vec<String>,
    exo: Option<String>,
    fact: Option<String>,
    strategy: Option<String>,
    default_p: Option<String>,
    agg: Option<String>,
    threads: Option<String>,
    deadline_ms: Option<String>,
    tier: bool,
    epsilon: Option<String>,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut out = Options {
        positional: Vec::new(),
        exo: None,
        fact: None,
        strategy: None,
        default_p: None,
        agg: None,
        threads: None,
        deadline_ms: None,
        tier: false,
        epsilon: None,
        trace: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--exo" => out.exo = Some(grab("--exo")?),
            "--fact" => out.fact = Some(grab("--fact")?),
            "--strategy" => out.strategy = Some(grab("--strategy")?),
            "--default-p" => out.default_p = Some(grab("--default-p")?),
            "--agg" => out.agg = Some(grab("--agg")?),
            "--threads" => out.threads = Some(grab("--threads")?),
            "--deadline-ms" => out.deadline_ms = Some(grab("--deadline-ms")?),
            "--tier" => out.tier = true,
            "--epsilon" => out.epsilon = Some(grab("--epsilon")?),
            "--trace" => out.trace = true,
            "--trace-out" => out.trace_out = Some(grab("--trace-out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => out.positional.push(a.clone()),
        }
    }
    Ok(out)
}

/// Parses `--deadline-ms N` into a [`Budget`] (unlimited by default).
fn parse_budget(spec: Option<&str>) -> Result<Budget, String> {
    match spec {
        None => Ok(Budget::UNLIMITED),
        Some(s) => s
            .parse()
            .map(Budget::wall_ms)
            .map_err(|_| format!("--deadline-ms must be a nonnegative integer, got {s:?}")),
    }
}

/// Parses `--epsilon E` (target half-width of the sampling tier).
fn parse_epsilon(spec: Option<&str>) -> Result<f64, String> {
    match spec {
        None => Ok(0.05),
        Some(s) => match s.parse::<f64>() {
            Ok(e) if e > 0.0 && e < 1.0 => Ok(e),
            _ => Err(format!("--epsilon must lie in (0, 1), got {s:?}")),
        },
    }
}

/// Parses `count` or `sum:VAR` into an aggregate function.
fn parse_aggregate(spec: &str) -> Result<AggregateFunction, String> {
    match spec {
        "count" => Ok(AggregateFunction::Count),
        other => match other.strip_prefix("sum:") {
            Some(var) if !var.is_empty() => Ok(AggregateFunction::Sum {
                weight_var: var.to_string(),
            }),
            _ => Err(format!(
                "bad aggregate spec {spec:?} (expected `count` or `sum:VAR`)"
            )),
        },
    }
}

/// Parses `--threads N` (`0` = all available cores, the default).
fn parse_threads(spec: Option<&str>) -> Result<usize, String> {
    match spec {
        None => Ok(0),
        Some(s) => s
            .parse()
            .map_err(|_| format!("--threads must be a nonnegative integer, got {s:?}")),
    }
}

fn parse_strategy(name: &str) -> Result<Strategy, String> {
    Ok(match name {
        "auto" => Strategy::Auto,
        "hierarchical" => Strategy::Hierarchical,
        "exoshap" => Strategy::ExoShap,
        "brute" => Strategy::BruteForceSubsets,
        "permutations" => Strategy::BruteForcePermutations,
        other => return Err(format!("unknown strategy {other:?}")),
    })
}

/// Parses `"R(a, b)"` into a fact lookup.
fn find_fact(db: &Database, spec: &str) -> Result<FactId, String> {
    let open = spec
        .find('(')
        .ok_or_else(|| format!("bad fact syntax {spec:?}"))?;
    if !spec.ends_with(')') {
        return Err(format!("bad fact syntax {spec:?}"));
    }
    let rel = spec[..open].trim();
    let inner = &spec[open + 1..spec.len() - 1];
    let args: Vec<&str> = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner.split(',').map(str::trim).collect()
    };
    db.find_fact(rel, &args)
        .ok_or_else(|| format!("fact {spec} not found in the database"))
}

fn load_db(path: &str) -> Result<Database, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Database::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let opts = parse_options(rest)?;
    // Install the trace recorder before any engine work so the prepare
    // sub-phases land in the window; write the report only on success.
    let trace = if opts.trace || opts.trace_out.is_some() {
        Some(cqshap::obs::install_trace().map_err(|e| e.to_string())?)
    } else {
        None
    };
    let result = match command.as_str() {
        "classify" => cmd_classify(&opts, out),
        "shapley" => cmd_shapley(&opts, out),
        "report" => cmd_report(&opts, out),
        "relevance" => cmd_relevance(&opts, out),
        "prob" => cmd_prob(&opts, out),
        "satcount" => cmd_satcount(&opts, out),
        other => Err(format!("unknown command {other:?}").into()),
    };
    match trace {
        Some(recorder) => {
            result?;
            write_trace(recorder, &opts, out)
        }
        None => result,
    }
}

/// Serializes the collected trace window to `--trace-out` (default
/// `TRACE_report.json`), stamped with the host-core and thread-cap
/// metadata the run actually used.
fn write_trace(
    trace: &cqshap::obs::TraceRecorder,
    opts: &Options,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let host_cores = cqshap::numeric::poly::resolve_threads(0);
    let thread_cap =
        cqshap::numeric::poly::resolve_threads(parse_threads(opts.threads.as_deref())?);
    let meta = cqshap::obs::TraceMeta {
        host_cores,
        thread_cap,
    };
    let path = opts.trace_out.as_deref().unwrap_or("TRACE_report.json");
    std::fs::write(path, trace.to_json(&meta)).map_err(|e| format!("writing {path}: {e}"))?;
    writeln!(out, "trace written to {path}")?;
    Ok(())
}

fn cmd_classify(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let [query] = opts.positional.as_slice() else {
        return Err("classify needs exactly one query".into());
    };
    let q = parse_cq(query).map_err(|e| e.to_string())?;
    let exo: HashSet<String> = opts
        .exo
        .as_deref()
        .unwrap_or("")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    writeln!(out, "query:        {q}")?;
    writeln!(out, "hierarchical: {}", is_hierarchical(&q))?;
    writeln!(out, "polarity-consistent: {}", is_polarity_consistent(&q))?;
    if exo.is_empty() {
        writeln!(out, "verdict (Thm 3.1): {}", classify(&q))?;
    } else {
        let mut names: Vec<&str> = exo.iter().map(|s| s.as_str()).collect();
        names.sort();
        writeln!(out, "X = {{{}}}", names.join(", "))?;
        writeln!(out, "verdict (Thm 4.3): {}", classify_with_exo(&q, &exo))?;
    }
    Ok(())
}

fn cmd_shapley(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let [db_path, query] = opts.positional.as_slice() else {
        return Err("shapley needs a database file and a query".into());
    };
    let db = load_db(db_path)?;
    let q = parse_cq(query).map_err(|e| e.to_string())?;
    let strategy = parse_strategy(opts.strategy.as_deref().unwrap_or("auto"))?;
    let options = ShapleyOptions::with_strategy(strategy)
        .threads(parse_threads(opts.threads.as_deref())?)
        .budget(parse_budget(opts.deadline_ms.as_deref())?);
    // One prepared session serves both the single-fact and the
    // all-facts form, so they can never route differently.
    let session =
        ShapleySession::prepare(&db, AnyQuery::Cq(&q), &options).map_err(|e| e.to_string())?;
    match &opts.fact {
        Some(spec) => {
            let f = find_fact(&db, spec)?;
            let v = session.value(f).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "Shapley(D, {}, {}) = {} ≈ {:.6}",
                q.name(),
                db.render_fact(f),
                v,
                v.to_f64()
            )?;
        }
        None => {
            let report = session.report().map_err(|e| e.to_string())?;
            print_report(out, &report)?;
        }
    }
    Ok(())
}

/// Prints a report's entries plus the efficiency line. Facts of
/// isomorphic root groups share their value, so each distinct value is
/// formatted once.
fn print_report(out: &mut dyn Write, report: &ShapleyReport) -> io::Result<()> {
    let mut formatted: HashMap<&BigRational, (String, f64)> = HashMap::new();
    for entry in &report.entries {
        let (exact, approx) = formatted
            .entry(&entry.value)
            .or_insert_with(|| (entry.value.to_string(), entry.value.to_f64()));
        writeln!(out, "{:<32} {exact:>16} ≈ {approx:+.6}", entry.rendered)?;
    }
    writeln!(
        out,
        "Σ = {} ({}: q(D) − q(Dx) = {})",
        report.total,
        if report.efficiency_holds() {
            "efficiency holds"
        } else {
            "EFFICIENCY VIOLATED"
        },
        report.expected_total,
    )
}

/// The batched all-facts report: compile the query (CQ¬, UCQ¬, or
/// aggregate) once, recount incrementally per fact, print every value
/// plus timing and the efficiency check.
///
/// Multi-rule queries (`;`- or newline-separated) route through the
/// inclusion–exclusion union engine; `--agg count|sum:VAR` routes a
/// head-projecting query through the aggregate decomposition.
fn cmd_report(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let [db_path, query] = opts.positional.as_slice() else {
        return Err("report needs a database file and a query".into());
    };
    let db = load_db(db_path)?;
    let strategy = parse_strategy(opts.strategy.as_deref().unwrap_or("auto"))?;
    let options = ShapleyOptions::with_strategy(strategy)
        .threads(parse_threads(opts.threads.as_deref())?)
        .budget(parse_budget(opts.deadline_ms.as_deref())?);
    let t0 = std::time::Instant::now();
    let session = if let Some(spec) = &opts.agg {
        let agg = parse_aggregate(spec)?;
        let q = parse_cq(query).map_err(|e| e.to_string())?;
        ShapleySession::prepare_aggregate(&db, &q, agg, &options).map_err(|e| e.to_string())?
    } else {
        // A UCQ¬ parse also accepts single Boolean rules; queries with a
        // head (which unions reject) fall back to the single-CQ¬ path.
        // With --tier, a query the exact engines reject at prepare time
        // still gets a session: the degraded tiers serve it.
        let prepare = |db: &Database, q: AnyQuery<'_>, options: &ShapleyOptions| {
            if opts.tier {
                ShapleySession::prepare_with_fallback(db, q, options)
            } else {
                ShapleySession::prepare(db, q, options)
            }
        };
        let prepared = match parse_ucq(query) {
            Ok(u) if u.disjuncts().len() > 1 => prepare(&db, AnyQuery::Union(&u), &options),
            Ok(u) => prepare(&db, AnyQuery::Cq(&u.disjuncts()[0]), &options),
            Err(_) => {
                let q = parse_cq(query).map_err(|e| e.to_string())?;
                prepare(&db, AnyQuery::Cq(&q), &options)
            }
        };
        prepared.map_err(|e| e.to_string())?
    };
    let prepared_ms = t0.elapsed().as_secs_f64() * 1e3;
    if opts.tier {
        let mut session = session;
        let policy = TierPolicy {
            epsilon: parse_epsilon(opts.epsilon.as_deref())?,
            ..TierPolicy::default()
        };
        let answer = session.report_tiered(&policy).map_err(|e| e.to_string())?;
        let elapsed = t0.elapsed();
        match &answer {
            TieredAnswer::Exact(report) => {
                print_report(out, report)?;
                writeln!(out, "tier: exact")?;
            }
            TieredAnswer::Sampled(report) => {
                print_anytime(out, report)?;
                writeln!(
                    out,
                    "tier: sampled (target ±{}, δ = {})",
                    policy.epsilon, policy.delta
                )?;
            }
            TieredAnswer::Wsms(report) => {
                print_wsms(out, report)?;
                writeln!(out, "tier: minimal supports (not a Shapley estimate)")?;
            }
        }
        writeln!(
            out,
            "answered in {:.3} ms (prepare {prepared_ms:.3} ms)",
            elapsed.as_secs_f64() * 1e3
        )?;
        return Ok(());
    }
    let report = session.report().map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    print_report(out, &report)?;
    if report.stats.aggregate_candidates > 0 {
        writeln!(
            out,
            "candidates: {} ({} pruned as provably zero)",
            report.stats.aggregate_candidates, report.stats.pruned_candidates
        )?;
    }
    if let Some(resolved) = session.strategy() {
        writeln!(out, "strategy: {resolved:?}")?;
    }
    writeln!(
        out,
        "{} facts in {:.3} ms (prepare {prepared_ms:.3} ms)",
        report.entries.len(),
        elapsed.as_secs_f64() * 1e3
    )?;
    Ok(())
}

/// Prints an anytime sampling report: estimates with their confidence
/// intervals, plus convergence and budget diagnostics.
fn print_anytime(out: &mut dyn Write, report: &AnytimeReport) -> io::Result<()> {
    for entry in &report.entries {
        writeln!(
            out,
            "{:<32} {:+.6} ± {:.6}{}",
            entry.rendered,
            entry.estimate,
            entry.half_width,
            if entry.converged { "" } else { "  (wide)" }
        )?;
    }
    writeln!(
        out,
        "{} draws this call; {}{}",
        report.spent_samples,
        if report.converged {
            "all intervals within ±ε"
        } else {
            "some intervals wider than ±ε"
        },
        if report.deadline_hit {
            " — budget tripped"
        } else {
            ""
        },
    )
}

/// Prints a WSMS report: per-fact minimal-support scores.
fn print_wsms(out: &mut dyn Write, report: &WsmsReport) -> io::Result<()> {
    for entry in &report.entries {
        writeln!(
            out,
            "{:<32} {:>12} ≈ {:+.6}  ({} minimal supports)",
            entry.rendered,
            entry.score.to_string(),
            entry.score.to_f64(),
            entry.supports
        )?;
    }
    writeln!(out, "{} minimal supports in total", report.minimal_supports)
}

fn cmd_relevance(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let [db_path, query] = opts.positional.as_slice() else {
        return Err("relevance needs a database file and a query".into());
    };
    let spec = opts.fact.as_deref().ok_or("relevance needs --fact")?;
    let db = load_db(db_path)?;
    let q = parse_cq(query).map_err(|e| e.to_string())?;
    let f = find_fact(&db, spec)?;
    let pos = is_positively_relevant(&db, AnyQuery::Cq(&q), f).map_err(|e| e.to_string())?;
    let neg = is_negatively_relevant(&db, AnyQuery::Cq(&q), f).map_err(|e| e.to_string())?;
    writeln!(out, "fact:                {}", db.render_fact(f))?;
    writeln!(out, "positively relevant: {pos}")?;
    writeln!(out, "negatively relevant: {neg}")?;
    writeln!(out, "Shapley value zero:  {}", !(pos || neg))?;
    Ok(())
}

/// Exact tuple-independent probability (and expected Shapley marginals)
/// served from a prepared session's compiled engine — the same compile
/// that answers Shapley values and satisfaction counts.
fn cmd_prob(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let [db_path, query] = opts.positional.as_slice() else {
        return Err("prob needs a database file and a query".into());
    };
    let p: f64 = opts
        .default_p
        .as_deref()
        .unwrap_or("0.5")
        .parse()
        .map_err(|_| "--default-p must be a number".to_string())?;
    let p = BigRational::from_f64(p)
        .filter(FactProbabilities::is_valid)
        .ok_or("--default-p must lie in [0, 1]")?;
    let db = load_db(db_path)?;
    let options = ShapleyOptions::auto()
        .threads(parse_threads(opts.threads.as_deref())?)
        .budget(parse_budget(opts.deadline_ms.as_deref())?);
    // Same UCQ-with-fallback idiom as `report`: multi-rule queries route
    // through inclusion–exclusion, headed rules through the CQ¬ path.
    let mut session = match parse_ucq(query) {
        Ok(u) if u.disjuncts().len() > 1 => {
            ShapleySession::prepare(&db, AnyQuery::Union(&u), &options)
        }
        Ok(u) => ShapleySession::prepare(&db, AnyQuery::Cq(&u.disjuncts()[0]), &options),
        Err(_) => {
            let q = parse_cq(query).map_err(|e| e.to_string())?;
            ShapleySession::prepare(&db, AnyQuery::Cq(&q), &options)
        }
    }
    .map_err(|e| e.to_string())?;
    session
        .set_default_probability(p.clone())
        .map_err(|e| e.to_string())?;
    match &opts.fact {
        Some(spec) => {
            let f = find_fact(&db, spec)?;
            let v = session.expected_shapley(f).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "E[marginal of {}] = {} ≈ {:+.9}",
                db.render_fact(f),
                v,
                v.to_f64()
            )?;
        }
        None => {
            let pr = session.probability().map_err(|e| e.to_string())?;
            writeln!(
                out,
                "Pr[D ⊨ q] = {} ≈ {:.9}  (endogenous facts present with p = {} by default)",
                pr,
                pr.to_f64(),
                p
            )?;
        }
    }
    Ok(())
}

fn cmd_satcount(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let [db_path, query] = opts.positional.as_slice() else {
        return Err("satcount needs a database file and a query".into());
    };
    let db = load_db(db_path)?;
    let q = parse_cq(query).map_err(|e| e.to_string())?;
    let counts = cqshap::core::count_sat_hierarchical(&db, &q).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "|Sat(D, {}, k)| for k = 0..={}:",
        q.name(),
        counts.len() - 1
    )?;
    for (k, c) in counts.iter().enumerate() {
        writeln!(out, "  k = {k:<4} {c}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn option_parsing() {
        let o = parse_options(&strs(&[
            "db.txt",
            "q() :- R(x)",
            "--fact",
            "R(a)",
            "--strategy",
            "auto",
        ]))
        .unwrap();
        assert_eq!(o.positional, vec!["db.txt", "q() :- R(x)"]);
        assert_eq!(o.fact.as_deref(), Some("R(a)"));
        assert_eq!(o.strategy.as_deref(), Some("auto"));
        assert!(parse_options(&strs(&["--bogus"])).is_err());
        assert!(parse_options(&strs(&["--fact"])).is_err());
    }

    #[test]
    fn aggregate_spec_parsing() {
        assert!(matches!(
            parse_aggregate("count").unwrap(),
            AggregateFunction::Count
        ));
        match parse_aggregate("sum:r").unwrap() {
            AggregateFunction::Sum { weight_var } => assert_eq!(weight_var, "r"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_aggregate("sum:").is_err());
        assert!(parse_aggregate("avg").is_err());
    }

    #[test]
    fn strategy_parsing() {
        assert_eq!(parse_strategy("auto").unwrap(), Strategy::Auto);
        assert_eq!(parse_strategy("exoshap").unwrap(), Strategy::ExoShap);
        assert!(parse_strategy("wat").is_err());
    }

    #[test]
    fn threads_parsing() {
        assert_eq!(parse_threads(None).unwrap(), 0);
        assert_eq!(parse_threads(Some("0")).unwrap(), 0);
        assert_eq!(parse_threads(Some("8")).unwrap(), 8);
        assert!(parse_threads(Some("many")).is_err());
        assert!(parse_threads(Some("-1")).is_err());
        let o = parse_options(&strs(&["db.txt", "q() :- R(x)", "--threads", "4"])).unwrap();
        assert_eq!(o.threads.as_deref(), Some("4"));
    }

    #[test]
    fn budget_and_epsilon_parsing() {
        assert!(parse_budget(None).unwrap().is_unlimited());
        assert!(!parse_budget(Some("50")).unwrap().is_unlimited());
        assert!(parse_budget(Some("soon")).is_err());
        assert_eq!(parse_epsilon(None).unwrap(), 0.05);
        assert_eq!(parse_epsilon(Some("0.1")).unwrap(), 0.1);
        assert!(parse_epsilon(Some("0")).is_err());
        assert!(parse_epsilon(Some("1.5")).is_err());
        let o = parse_options(&strs(&[
            "db.txt",
            "q() :- R(x)",
            "--deadline-ms",
            "50",
            "--tier",
            "--epsilon",
            "0.1",
        ]))
        .unwrap();
        assert_eq!(o.deadline_ms.as_deref(), Some("50"));
        assert!(o.tier);
        assert_eq!(o.epsilon.as_deref(), Some("0.1"));
    }

    #[test]
    fn trace_parsing() {
        let o = parse_options(&strs(&["db.txt", "q() :- R(x)", "--trace"])).unwrap();
        assert!(o.trace);
        assert!(o.trace_out.is_none());
        let o = parse_options(&strs(&["db.txt", "q() :- R(x)", "--trace-out", "t.json"])).unwrap();
        assert!(!o.trace);
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert!(parse_options(&strs(&["--trace-out"])).is_err());
    }

    #[test]
    fn fact_lookup() {
        let db = Database::parse("endo R(a, b)\nendo Flag()\n").unwrap();
        assert!(find_fact(&db, "R(a, b)").is_ok());
        assert!(find_fact(&db, "R( a , b )").is_ok());
        assert!(find_fact(&db, "Flag()").is_ok());
        assert!(find_fact(&db, "R(a)").is_err());
        assert!(find_fact(&db, "nope").is_err());
    }

    #[test]
    fn classify_command_runs() {
        let opts = parse_options(&strs(&["q() :- R(x), S(x, y), !T(y)", "--exo", "S"])).unwrap();
        let mut out = Vec::new();
        assert!(cmd_classify(&opts, &mut out).is_ok());
        assert!(String::from_utf8_lossy(&out).contains("verdict (Thm 4.3)"));
        assert!(run(&strs(&["classify", "q() :- R(x)"]), &mut io::sink()).is_ok());
        assert!(run(&strs(&["frobnicate"]), &mut io::sink()).is_err());
        assert!(run(&[], &mut io::sink()).is_err());
    }
}
