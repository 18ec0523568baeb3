//! Workspace walking, rule scoping, and suppression application.
//!
//! This module owns the policy: which first-party files exist, which
//! rules apply where, and how pragmas silence findings. The scope table
//! mirrors the engine's architecture contracts — see the README's
//! "Static analysis" section for the same table in prose.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::graph::{Graph, GraphInput};
use crate::graph_rules::{self, ProvenSite};
use crate::lexer::{lex, TokenKind};
use crate::parser;
use crate::pragma::{self, Pragma, PragmaScope};
use crate::report::{
    rules_match, Demoted, Finding, Report, Suppressed, SuppressionDebt, KNOWN_RULES,
    RULE_UNUSED_SUPPRESSION,
};
use crate::rules::{self, FileCtx};
use crate::scanner::FileMap;
use crate::LintError;

/// Crates whose *library* code must be panic-free (`no-panic`).
const NO_PANIC_CRATES: &[&str] = &["core", "db", "numeric", "probdb"];

/// Files whose loops must poll cancellation (`cancellation-poll`).
const CANCEL_FILES: &[&str] = &[
    "crates/core/src/compiled.rs",
    "crates/core/src/plan.rs",
    "crates/core/src/domain.rs",
    "crates/core/src/aggregates.rs",
    "crates/numeric/src/poly.rs",
];

/// The sanctioned fan-out modules (`thread-discipline` exempt).
const THREAD_FILES: &[&str] = &["crates/core/src/parallel.rs", "crates/numeric/src/poly.rs"];

/// The deadline modules (`no-wall-clock` exempt). `obs::clock` is the
/// observability layer's sanctioned monotonic clock — every span
/// timestamp flows through it.
const CLOCK_FILES: &[&str] = &[
    "crates/numeric/src/cancel.rs",
    "crates/core/src/budget.rs",
    "crates/obs/src/clock.rs",
];

/// Crates whose library code may not read the wall clock elsewhere.
/// `bench` and `workloads` are measurement/generator code and binaries
/// print timings to humans — both are outside the deadline contract.
const CLOCK_CRATES: &[&str] = &[
    "core", "db", "numeric", "obs", "probdb", "query", "engine", "gadgets", "lint",
];

/// One discovered source file.
struct SourceFile {
    /// Absolute path on disk.
    abs: PathBuf,
    /// Workspace-relative path with forward slashes.
    rel: String,
    /// Short crate directory name (`core`, `db`, …; `""` for the root
    /// `cqshap` package).
    krate: String,
    /// Binary target (`main.rs` or under `src/bin/`)?
    is_binary: bool,
}

/// One in-memory file for [`lint_files`] — the unit the graph pipeline
/// (and its golden tests) consumes.
pub struct FileSpec {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Short crate directory name (`""` for the root package).
    pub krate: String,
    /// Binary target?
    pub is_binary: bool,
    /// The file's source text.
    pub src: String,
}

/// The full pipeline's outcome: the report plus the call graph and the
/// per-rule sections destined for `GRAPH_report.json`.
pub struct WorkspaceOutcome {
    /// Findings, suppressions, demotions, debt, timings.
    pub report: Report,
    /// The workspace call graph (for `GRAPH_report.json` / DOT).
    pub graph: Graph,
    /// Per-rule `GRAPH_report.json` sections.
    pub sections: Vec<(&'static str, String)>,
}

/// Lints the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`) through the full graph pipeline, without
/// timing (the library never reads the clock; pass a monotonic-micros
/// closure to [`lint_workspace_timed`] for per-rule timings).
pub fn lint_workspace(root: &Path) -> Result<Report, LintError> {
    lint_workspace_timed(root, &mut || 0).map(|o| o.report)
}

/// [`lint_workspace`] with per-rule timing and the graph artifacts.
/// `clock` must return monotonic microseconds; the binary supplies an
/// `Instant`-based closure (binaries are exempt from `no-wall-clock`).
pub fn lint_workspace_timed(
    root: &Path,
    clock: &mut dyn FnMut() -> u64,
) -> Result<WorkspaceOutcome, LintError> {
    if !root.join("Cargo.toml").is_file() {
        return Err(LintError::NotAWorkspace {
            root: root.to_path_buf(),
        });
    }
    let mut files = Vec::new();
    collect_rs(&root.join("src"), root, "", &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| LintError::io(&crates_dir, e))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            if entry.is_dir() {
                let name = entry
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                collect_rs(&entry.join("src"), root, &name, &mut files)?;
            }
        }
    }
    let mut specs = Vec::with_capacity(files.len());
    for file in files {
        let src = fs::read_to_string(&file.abs).map_err(|e| LintError::io(&file.abs, e))?;
        specs.push(FileSpec {
            rel: file.rel,
            krate: file.krate,
            is_binary: file.is_binary,
            src,
        });
    }
    Ok(lint_files(&specs, clock))
}

/// The whole interprocedural pipeline over in-memory files:
///
/// 1. **Lexical pass** — per file: lex, scan, parse items, run the
///    per-file rules (everything except `cancellation-poll`, whose job
///    the graph rule now does), collect pragmas.
/// 2. **Graph pass** — build the workspace call graph, run
///    `transitive-no-panic`, `cancellation-reachability`, and
///    `lock-order`; *demote* raw findings at graph-proven sites.
/// 3. **Suppression pass** — match pragmas against the surviving
///    findings (`cancellation-poll` aliases the reachability rule);
///    unused pragmas become `unused-suppression` findings, with a
///    `suppression-debt` message when the graph proof is what made
///    them redundant.
pub fn lint_files(files: &[FileSpec], clock: &mut dyn FnMut() -> u64) -> WorkspaceOutcome {
    let mut acc: BTreeMap<&'static str, u64> = BTreeMap::new();
    let timed = |acc: &mut BTreeMap<&'static str, u64>,
                 key: &'static str,
                 clock: &mut dyn FnMut() -> u64,
                 start: u64| {
        *acc.entry(key).or_insert(0) += clock().saturating_sub(start);
    };

    let mut raw: Vec<Finding> = Vec::new();
    let mut meta: Vec<Finding> = Vec::new();
    let mut pragmas_by_file: BTreeMap<String, Vec<Pragma>> = BTreeMap::new();
    let mut inputs: Vec<GraphInput> = Vec::new();
    let mut report = Report::default();

    for file in files {
        report.files.push(file.rel.clone());
        let t = clock();
        let map = FileMap::build(&file.src, lex(&file.src));
        let parsed = parser::parse(&file.src, &map);
        timed(&mut acc, "parse", clock, t);
        let sig: Vec<usize> = map
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let ctx = FileCtx {
            src: &file.src,
            path: &file.rel,
            map: &map,
            sig: &sig,
        };
        if NO_PANIC_CRATES.contains(&file.krate.as_str()) && !file.is_binary {
            let t = clock();
            raw.extend(rules::no_panic(&ctx));
            timed(&mut acc, "no-panic", clock, t);
        }
        if !THREAD_FILES.contains(&file.rel.as_str()) {
            let t = clock();
            raw.extend(rules::thread_discipline(&ctx));
            timed(&mut acc, "thread-discipline", clock, t);
        }
        if CLOCK_CRATES.contains(&file.krate.as_str())
            && !file.is_binary
            && !CLOCK_FILES.contains(&file.rel.as_str())
        {
            let t = clock();
            raw.extend(rules::no_wall_clock(&ctx));
            timed(&mut acc, "no-wall-clock", clock, t);
        }
        if !file.is_binary {
            let t = clock();
            raw.extend(rules::error_hygiene(&ctx));
            timed(&mut acc, "error-hygiene", clock, t);
        }
        let (pragmas, bad) = pragma::collect(&file.src, &map.tokens, &file.rel, KNOWN_RULES);
        meta.extend(bad);
        pragmas_by_file.insert(file.rel.clone(), pragmas);
        inputs.push(GraphInput {
            rel: file.rel.clone(),
            krate: file.krate.clone(),
            is_binary: file.is_binary,
            parsed,
        });
    }

    let t = clock();
    let graph = Graph::build(inputs);
    timed(&mut acc, "graph-build", clock, t);

    let t = clock();
    let tnp = graph_rules::transitive_no_panic(&graph, &raw, NO_PANIC_CRATES);
    timed(&mut acc, "transitive-no-panic", clock, t);
    let t = clock();
    let cr = graph_rules::cancellation_reachability(&graph);
    timed(&mut acc, "cancellation-reachability", clock, t);
    let t = clock();
    let lo = graph_rules::lock_order(&graph);
    timed(&mut acc, "lock-order", clock, t);

    let t = clock();
    // Demote raw findings at graph-proven sites.
    let proven: Vec<&ProvenSite> = tnp.proven.iter().chain(cr.proven.iter()).collect();
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let proof = proven.iter().find(|p| {
            p.file == f.file && p.line == f.line && p.rules.iter().any(|r| rules_match(&f.rule, r))
        });
        match proof {
            Some(p) => report.demoted.push(Demoted {
                finding: f,
                why: p.why.clone(),
            }),
            None => findings.push(f),
        }
    }
    findings.extend(tnp.findings);
    findings.extend(cr.findings);
    findings.extend(lo.findings);
    report.explanations.extend(tnp.explanations);
    report.explanations.extend(cr.explanations);
    report.explanations.extend(lo.explanations);

    // Suppression pass.
    let mut live: Vec<Finding> = meta;
    for f in findings {
        let reason = pragmas_by_file
            .get_mut(&f.file)
            .and_then(|ps| matching_pragma(ps, &f));
        match reason {
            Some(reason) => report.suppressed.push(Suppressed { finding: f, reason }),
            None => live.push(f),
        }
    }
    let mut redundant = 0usize;
    for (file, pragmas) in &pragmas_by_file {
        for p in pragmas {
            if p.used {
                continue;
            }
            let proof = proven.iter().find(|pr| {
                &pr.file == file
                    && p.rules
                        .iter()
                        .any(|r| pr.rules.iter().any(|r2| rules_match(r, r2)))
                    && (p.scope == PragmaScope::File || pr.line == p.line || pr.line == p.line + 1)
            });
            let message = match proof {
                Some(pr) => {
                    redundant += 1;
                    format!(
                        "suppression-debt: pragma allows `{}` but the call graph proves the site safe ({}) — delete the pragma",
                        p.rules.join(", "),
                        pr.why
                    )
                }
                None => format!(
                    "pragma allows `{}` but suppressed nothing — remove it",
                    p.rules.join(", ")
                ),
            };
            live.push(Finding {
                rule: RULE_UNUSED_SUPPRESSION.to_string(),
                file: file.clone(),
                line: p.line,
                message,
            });
        }
    }
    timed(&mut acc, "suppression-debt", clock, t);

    live.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report.findings = live;
    report.debt = SuppressionDebt {
        baseline: None,
        current: report.suppressed.len(),
        demoted: report.demoted.len(),
        redundant,
    };
    report.rule_timings = acc.into_iter().map(|(k, v)| (k.to_string(), v)).collect();

    WorkspaceOutcome {
        report,
        graph,
        sections: vec![tnp.section, cr.section, lo.section],
    }
}

/// Recursively collects `.rs` files under `dir` (sorted, deterministic).
fn collect_rs(
    dir: &Path,
    root: &Path,
    krate: &str,
    out: &mut Vec<SourceFile>,
) -> Result<(), LintError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| LintError::io(dir, e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, krate, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let is_binary = rel.ends_with("/main.rs") || rel.contains("/src/bin/");
            out.push(SourceFile {
                abs: path,
                rel,
                krate: krate.to_string(),
                is_binary,
            });
        }
    }
    Ok(())
}

/// The per-file lint outcome (findings already split by suppression).
pub struct FileOutcome {
    /// Live findings.
    pub findings: Vec<Finding>,
    /// Pragma-silenced findings with their reasons.
    pub suppressed: Vec<Suppressed>,
}

/// Lints one file's source text as if it lived at `rel` in crate
/// `krate` (short name, `""` for the root package). This is the
/// fixture-test entry point; [`lint_workspace`] calls it per file.
pub fn lint_source(rel: &str, krate: &str, is_binary: bool, src: &str) -> FileOutcome {
    let map = FileMap::build(src, lex(src));
    let sig: Vec<usize> = map
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .map(|(i, _)| i)
        .collect();
    let ctx = FileCtx {
        src,
        path: rel,
        map: &map,
        sig: &sig,
    };

    let mut raw: Vec<Finding> = Vec::new();
    if NO_PANIC_CRATES.contains(&krate) && !is_binary {
        raw.extend(rules::no_panic(&ctx));
    }
    if CANCEL_FILES.contains(&rel) {
        raw.extend(rules::cancellation_poll(&ctx));
    }
    if !THREAD_FILES.contains(&rel) {
        raw.extend(rules::thread_discipline(&ctx));
    }
    if CLOCK_CRATES.contains(&krate) && !is_binary && !CLOCK_FILES.contains(&rel) {
        raw.extend(rules::no_wall_clock(&ctx));
    }
    if !is_binary {
        raw.extend(rules::error_hygiene(&ctx));
    }

    let (mut pragmas, mut findings) = pragma::collect(src, &map.tokens, rel, KNOWN_RULES);
    let mut suppressed = Vec::new();
    for f in raw {
        match matching_pragma(&mut pragmas, &f) {
            Some(reason) => suppressed.push(Suppressed { finding: f, reason }),
            None => findings.push(f),
        }
    }
    for p in &pragmas {
        if !p.used {
            findings.push(Finding {
                rule: RULE_UNUSED_SUPPRESSION.to_string(),
                file: rel.to_string(),
                line: p.line,
                message: format!(
                    "pragma allows `{}` but suppressed nothing — remove it",
                    p.rules.join(", ")
                ),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    FileOutcome {
        findings,
        suppressed,
    }
}

/// Finds a pragma covering `f`, marks it used, and returns its reason.
/// Site pragmas (exact line or line above) win over file pragmas.
/// Rule names match via [`rules_match`], so `cancellation-poll`
/// pragmas cover `cancellation-reachability` findings.
fn matching_pragma(pragmas: &mut [Pragma], f: &Finding) -> Option<String> {
    let site = pragmas.iter_mut().find(|p| {
        p.scope == PragmaScope::Site
            && p.rules.iter().any(|r| rules_match(&f.rule, r))
            && (f.line == p.line || f.line == p.line + 1)
    });
    let p = match site {
        Some(p) => p,
        None => pragmas.iter_mut().find(|p| {
            p.scope == PragmaScope::File && p.rules.iter().any(|r| rules_match(&f.rule, r))
        })?,
    };
    p.used = true;
    Some(p.reason.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_pragma_suppresses_and_is_used() {
        let src = "fn f() {\n    // cqshap-lint: allow(no-panic) -- invariant: map key inserted above\n    let x = m.get(k).unwrap();\n}\n";
        let out = lint_source("crates/core/src/x.rs", "core", false, src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed.len(), 1);
        assert!(out.suppressed[0].reason.contains("invariant"));
    }

    #[test]
    fn trailing_pragma_suppresses_same_line() {
        let src = "fn f() { let x = v[i]; } // cqshap-lint: allow(no-panic-index) -- i < len by loop bound\n";
        let out = lint_source("crates/db/src/x.rs", "db", false, src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed.len(), 1);
    }

    #[test]
    fn file_pragma_suppresses_everywhere_and_unused_is_flagged() {
        let src = "// cqshap-lint: allow-file(no-panic-index) -- limb kernels are bounds-guarded\nfn f() { v[0]; }\nfn g() { w[1]; }\n";
        let out = lint_source("crates/numeric/src/x.rs", "numeric", false, src);
        assert!(out.findings.is_empty());
        assert_eq!(out.suppressed.len(), 2);

        let unused = "// cqshap-lint: allow-file(no-panic-index) -- nothing here\nfn f() {}\n";
        let out = lint_source("crates/numeric/src/x.rs", "numeric", false, unused);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, RULE_UNUSED_SUPPRESSION);
    }

    #[test]
    fn scoping_respects_crate_and_binary() {
        let panics = "fn f() { x.unwrap(); }";
        // Engine crate: flagged.
        assert_eq!(
            lint_source("crates/core/src/x.rs", "core", false, panics)
                .findings
                .len(),
            1
        );
        // Non-engine crate: no-panic does not apply.
        assert!(lint_source("crates/query/src/x.rs", "query", false, panics)
            .findings
            .is_empty());
        // Wall clock in a binary: exempt.
        let clock = "fn main() { let t = std::time::Instant::now(); }";
        assert!(lint_source("src/main.rs", "", true, clock)
            .findings
            .is_empty());
        // Wall clock in engine lib code: flagged.
        assert_eq!(
            lint_source("crates/engine/src/x.rs", "engine", false, clock)
                .findings
                .len(),
            1
        );
        // The deadline module itself: exempt.
        assert!(
            lint_source("crates/numeric/src/cancel.rs", "numeric", false, clock)
                .findings
                .is_empty()
        );
    }
}
