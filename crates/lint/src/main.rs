//! The `cqshap-lint` binary: lint the workspace through the
//! interprocedural pipeline, print findings, write `LINT_report.json`
//! plus the call-graph artifacts (`GRAPH_report.json`, `GRAPH.dot`),
//! enforce the suppression ratchet, and exit nonzero on violations.
//!
//! ```text
//! cargo run -p cqshap-lint [-- --root DIR] [--json PATH] [--graph-json PATH]
//!                          [--dot PATH] [--baseline PATH] [--quiet]
//!                          [--rule NAME --explain]
//! ```
//!
//! The binary owns every clock read (per-rule timings) and filesystem
//! write — the library stays pure and never reads the clock.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cqshap_lint::{lint_workspace_timed, LintError};

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cqshap-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, LintError> {
    let mut root = PathBuf::from(".");
    let mut json: Option<PathBuf> = None;
    let mut graph_json: Option<PathBuf> = None;
    let mut dot: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut quiet = false;
    let mut explain = false;
    let mut rule_filter: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                if let Some(v) = args.next() {
                    root = PathBuf::from(v);
                }
            }
            "--json" => json = args.next().map(PathBuf::from),
            "--graph-json" => graph_json = args.next().map(PathBuf::from),
            "--dot" => dot = args.next().map(PathBuf::from),
            "--baseline" => baseline_path = args.next().map(PathBuf::from),
            "--rule" => rule_filter = args.next(),
            "--explain" => explain = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "cqshap-lint: workspace invariant checker\n\n\
                     USAGE: cqshap-lint [--root DIR] [--json PATH] [--graph-json PATH]\n\
                     \x20                 [--dot PATH] [--baseline PATH] [--quiet]\n\
                     \x20                 [--rule NAME --explain]\n\n\
                     Lexical rules (per file): error-hygiene, panic-lint-set.\n\
                     Graph rules (workspace call graph): transitive-no-panic,\n\
                     cancellation-reachability, lock-order, suppression-debt.\n\
                     Clippy enforces the per-file panic, thread and clock rules.\n\n\
                     Writes LINT_report.json (--json), GRAPH_report.json (--graph-json),\n\
                     and GRAPH.dot (--dot). The suppression count must not exceed the\n\
                     committed baseline (crates/lint/suppression-baseline.txt, --baseline).\n\
                     `--rule NAME --explain` prints the call-graph path behind each\n\
                     finding (live or suppressed) of that rule. Exits 1 on unsuppressed\n\
                     findings or a ratchet breach."
                );
                return Ok(ExitCode::SUCCESS);
            }
            other => {
                eprintln!("cqshap-lint: unknown argument `{other}` (see --help)");
                return Ok(ExitCode::from(2));
            }
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "binaries are outside the deadline contract; per-rule timings are printed for humans"
    )]
    let t0 = Instant::now();
    let mut clock = move || t0.elapsed().as_micros() as u64;
    let mut outcome = lint_workspace_timed(&root, &mut clock)?;

    // Suppression ratchet: the committed baseline is a ceiling.
    let baseline_path =
        baseline_path.unwrap_or_else(|| root.join("crates/lint/suppression-baseline.txt"));
    let baseline = std::fs::read_to_string(&baseline_path)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok());
    outcome.report.debt.baseline = baseline;

    let json_path = json.unwrap_or_else(|| root.join("LINT_report.json"));
    std::fs::write(&json_path, outcome.report.to_json()).map_err(|e| LintError::Io {
        path: json_path.clone(),
        source: e,
    })?;
    let graph_json_path = graph_json.unwrap_or_else(|| root.join("GRAPH_report.json"));
    std::fs::write(&graph_json_path, outcome.graph.to_json(&outcome.sections)).map_err(|e| {
        LintError::Io {
            path: graph_json_path.clone(),
            source: e,
        }
    })?;
    let dot_path = dot.unwrap_or_else(|| root.join("GRAPH.dot"));
    std::fs::write(&dot_path, outcome.graph.to_dot()).map_err(|e| LintError::Io {
        path: dot_path.clone(),
        source: e,
    })?;

    let report = &outcome.report;
    if let Some(rule) = &rule_filter {
        if explain {
            print_explanations(report, rule);
        }
    }

    let ratchet_breach = baseline.is_some_and(|b| report.debt.current > b);
    if !quiet {
        for f in &report.findings {
            println!("{f}");
        }
        if ratchet_breach {
            println!(
                "cqshap-lint: suppression ratchet breached: {} suppression(s) > committed baseline {} ({}) — remove pragmas or justify lowering the bar by updating the baseline",
                report.debt.current,
                report.debt.baseline.unwrap_or(0),
                baseline_path.display()
            );
        }
        let timings: Vec<String> = report
            .rule_timings
            .iter()
            .map(|(r, us)| format!("{r} {:.1}ms", *us as f64 / 1000.0))
            .collect();
        println!(
            "cqshap-lint: {} file(s), {} finding(s), {} suppressed ({} demoted by graph, {} redundant pragma(s)) (reports: {}, {}, {})",
            report.files.len(),
            report.findings.len(),
            report.suppressed.len(),
            report.debt.demoted,
            report.debt.redundant,
            json_path.display(),
            graph_json_path.display(),
            dot_path.display()
        );
        println!("cqshap-lint: rule timings: {}", timings.join(", "));
    }
    Ok(if report.is_clean() && !ratchet_breach {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--rule NAME --explain`: the call-graph path behind each finding of
/// `rule`, live or suppressed, so a suppression review can see *which
/// entry point* makes a site reachable instead of reconstructing it by
/// hand.
fn print_explanations(report: &cqshap_lint::Report, rule: &str) {
    let mut shown = 0usize;
    for ex in &report.explanations {
        if ex.rule != rule {
            continue;
        }
        let status = if report
            .findings
            .iter()
            .any(|f| f.file == ex.file && f.line == ex.line && f.rule == ex.rule)
        {
            "FINDING"
        } else if report
            .suppressed
            .iter()
            .any(|s| s.finding.file == ex.file && s.finding.line == ex.line)
        {
            "suppressed"
        } else {
            "info"
        };
        println!("{}:{} [{}] ({status})", ex.file, ex.line, ex.rule);
        for (i, step) in ex.path.iter().enumerate() {
            let lead = if i == 0 { "entry" } else { "  via" };
            println!("  {lead} → {step}");
        }
        shown += 1;
    }
    if shown == 0 {
        println!("cqshap-lint: no findings of rule `{rule}` carry a call-graph path");
    }
    for d in &report.demoted {
        if d.finding.rule == rule {
            println!(
                "{}:{} [{}] demoted — {}",
                d.finding.file, d.finding.line, d.finding.rule, d.why
            );
        }
    }
}
