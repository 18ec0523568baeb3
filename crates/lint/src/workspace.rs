//! Workspace walking, rule scoping, and suppression application.
//!
//! This module owns the policy: which first-party files exist, which
//! rules apply where, and how pragmas silence findings. Its one scope
//! table, [`NO_PANIC_CRATES`], names the crates whose library code must
//! be panic-free; clippy enforces it site by site (each crate's
//! `lib.rs` denies the panic lint set, which `panic-lint-set` checks)
//! and `transitive-no-panic` certifies it per public API. See the
//! README's "Static analysis" section.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::graph::{CrateDeps, Graph, GraphInput};
use crate::graph_rules;
use crate::lexer::lex;
use crate::parser;
use crate::pragma::{self, Pragma};
use crate::report::{
    Demoted, Finding, Report, Suppressed, SuppressionDebt, KNOWN_RULES,
    RULE_CANCELLATION_REACHABILITY, RULE_UNUSED_SUPPRESSION,
};
use crate::rules::{self, FileCtx};
use crate::scanner::FileMap;
use crate::LintError;

/// Crates whose *library* code must be panic-free. Each one's `lib.rs`
/// denies clippy's panic lint set ([`rules::PANIC_LINTS`]).
pub const NO_PANIC_CRATES: &[&str] = &["core", "db", "numeric"];

/// Why a reachable panic site is counted rather than reported: clippy
/// has already held it to a reasoned `#[expect]`.
const PANIC_SITE_REASON: &str = "clippy denies the panic lint set in this crate, so the site carries an `#[expect(clippy::…, reason = \"…\")]`";

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
/// `Instant`-based closure (the library never reads the clock).
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
    let krates: BTreeSet<&str> = files.iter().map(|f| f.krate.as_str()).collect();
    let deps = read_crate_deps(root, &krates)?;
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
    Ok(lint_files(&specs, &deps, clock))
}

/// Reads each scanned crate's first-party dependencies from the
/// manifests: the root `Cargo.toml`'s `[workspace.dependencies]` maps
/// each package to its `crates/<dir>` path, and a crate's
/// `[dependencies]` names the packages it uses (`name.workspace = true`
/// or `name = { path = "…" }`). The root package's manifest is the root
/// `Cargo.toml`; a crate without a manifest gets no entry.
fn read_crate_deps(root: &Path, krates: &BTreeSet<&str>) -> Result<CrateDeps, LintError> {
    let read = |path: PathBuf| fs::read_to_string(&path).map_err(|e| LintError::io(&path, e));
    let root_manifest = read(root.join("Cargo.toml"))?;
    let crate_of_path = |path: &str| {
        path.trim_end_matches('/')
            .rsplit('/')
            .next()
            .map(str::to_string)
    };
    let dir_of: BTreeMap<&str, String> = manifest_section(&root_manifest, "workspace.dependencies")
        .filter_map(|(package, value)| {
            let path = path_value(value)?;
            path.starts_with("crates/")
                .then(|| crate_of_path(path))
                .flatten()
                .map(|dir| (package, dir))
        })
        .collect();
    let deps_of = |manifest: &str| -> BTreeSet<String> {
        manifest_section(manifest, "dependencies")
            .filter_map(|(package, value)| {
                dir_of
                    .get(package)
                    .cloned()
                    .or_else(|| path_value(value).and_then(crate_of_path))
            })
            .collect()
    };
    let mut direct = BTreeMap::new();
    for &krate in krates {
        let manifest = if krate.is_empty() {
            root_manifest.clone()
        } else {
            let path = root.join("crates").join(krate).join("Cargo.toml");
            if !path.is_file() {
                continue;
            }
            read(path)?
        };
        direct.insert(krate.to_string(), deps_of(&manifest));
    }
    Ok(CrateDeps::from_direct(&direct))
}

/// The `key = value` entries of one `[section]` of a manifest, with a
/// `.workspace` suffix stripped from the key. Enough TOML for the
/// workspace's own manifests: one entry per line, no multi-line values.
fn manifest_section<'a>(
    manifest: &'a str,
    section: &'a str,
) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
    let mut current = "";
    manifest.lines().filter_map(move |line| {
        let line = line.split('#').next().unwrap_or_default().trim();
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            current = header.trim();
            return None;
        }
        if current != section {
            return None;
        }
        let (key, value) = line.split_once('=')?;
        let key = key.trim();
        Some((key.strip_suffix(".workspace").unwrap_or(key), value.trim()))
    })
}

/// The `path = "…"` of an inline-table dependency value.
fn path_value(value: &str) -> Option<&str> {
    value.split_once("path")?.1.split('"').nth(1)
}

/// The whole interprocedural pipeline over in-memory files:
///
/// 1. **Lexical pass** — per file: lex, scan, parse items, find the
///    panic sites of the panic-free crates, run `error-hygiene`, check
///    each panic-free crate's `lib.rs` for the panic lint set, collect
///    pragmas.
/// 2. **Graph pass** — build the workspace call graph, run
///    `transitive-no-panic` over the panic sites,
///    `cancellation-reachability`, and `lock-order`. Panic sites the
///    graph proves unreachable are *demoted*; the rest are counted as
///    suppressed, since clippy holds each to an `#[expect]`.
/// 3. **Suppression pass** — match pragmas against the findings;
///    unused pragmas become `unused-suppression` findings, with a
///    `suppression-debt` message when the graph proof is what made
///    them redundant.
pub fn lint_files(
    files: &[FileSpec],
    deps: &CrateDeps,
    clock: &mut dyn FnMut() -> u64,
) -> WorkspaceOutcome {
    let mut acc: BTreeMap<&'static str, u64> = BTreeMap::new();
    let timed = |acc: &mut BTreeMap<&'static str, u64>,
                 key: &'static str,
                 clock: &mut dyn FnMut() -> u64,
                 start: u64| {
        *acc.entry(key).or_insert(0) += clock().saturating_sub(start);
    };

    let mut sites: Vec<Finding> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
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
        let ctx = FileCtx {
            src: &file.src,
            path: &file.rel,
            map: &map,
        };
        if NO_PANIC_CRATES.contains(&file.krate.as_str()) && !file.is_binary {
            let t = clock();
            sites.extend(rules::panic_sites(&ctx));
            if file.rel == format!("crates/{}/src/lib.rs", file.krate) {
                meta.extend(rules::panic_lint_set(&ctx, &file.krate));
            }
            timed(&mut acc, "panic-sites", clock, t);
        }
        if !file.is_binary {
            let t = clock();
            findings.extend(rules::error_hygiene(&ctx));
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
    let graph = Graph::build(inputs, deps);
    timed(&mut acc, "graph-build", clock, t);

    let t = clock();
    let tnp = graph_rules::transitive_no_panic(&graph, &sites, NO_PANIC_CRATES);
    timed(&mut acc, "transitive-no-panic", clock, t);
    let t = clock();
    let cr = graph_rules::cancellation_reachability(&graph);
    timed(&mut acc, "cancellation-reachability", clock, t);
    let t = clock();
    let lo = graph_rules::lock_order(&graph);
    timed(&mut acc, "lock-order", clock, t);

    let t = clock();
    // Demote panic sites the graph proves unreachable; count the rest.
    for site in sites {
        match tnp
            .proven
            .iter()
            .find(|p| p.file == site.file && p.line == site.line)
        {
            Some(p) => report.demoted.push(Demoted {
                finding: site,
                why: p.why.clone(),
            }),
            None => report.suppressed.push(Suppressed {
                finding: site,
                reason: PANIC_SITE_REASON.to_string(),
            }),
        }
    }
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
            // `cancellation-reachability` is the one pragma-taking rule
            // whose proofs can make a pragma redundant.
            let proof = cr.proven.iter().find(|pr| {
                &pr.file == file
                    && p.rules.iter().any(|r| r == RULE_CANCELLATION_REACHABILITY)
                    && (pr.line == p.line || pr.line == p.line + 1)
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

/// Finds a pragma covering `f` (same line or the line above), marks it
/// used, and returns its reason.
fn matching_pragma(pragmas: &mut [Pragma], f: &Finding) -> Option<String> {
    let p = pragmas
        .iter_mut()
        .find(|p| p.rules.contains(&f.rule) && (f.line == p.line || f.line == p.line + 1))?;
    p.used = true;
    Some(p.reason.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifests_give_each_crate_its_dependency_closure() {
        let root = "[workspace]\nmembers = [\"crates/a\"]\n\n[workspace.dependencies]\n\
                    cqshap-a = { path = \"crates/a\" } # comment\ncqshap-b = { path = \"crates/b\" }\n\
                    rand = { path = \"vendor/rand\" }\n\n[dependencies]\ncqshap-b.workspace = true\n";
        let dir_of: BTreeMap<&str, &str> = manifest_section(root, "workspace.dependencies")
            .filter_map(|(package, value)| Some((package, path_value(value)?)))
            .collect();
        assert_eq!(
            dir_of,
            BTreeMap::from([
                ("cqshap-a", "crates/a"),
                ("cqshap-b", "crates/b"),
                ("rand", "vendor/rand")
            ])
        );
        let deps: Vec<(&str, &str)> = manifest_section(root, "dependencies").collect();
        assert_eq!(deps, vec![("cqshap-b", "true")]);
        // The closure is transitive and includes the crate itself.
        let direct = BTreeMap::from([
            ("a".to_string(), BTreeSet::from(["b".to_string()])),
            ("b".to_string(), BTreeSet::from(["c".to_string()])),
        ]);
        let closure = CrateDeps::from_direct(&direct);
        assert!(closure.allows("a", "c") && closure.allows("a", "a"));
        assert!(!closure.allows("b", "a"));
        // A crate without a manifest may call any crate.
        assert!(closure.allows("c", "a"));
    }

    #[test]
    fn trailing_pragma_suppresses_its_own_line() {
        let spec = FileSpec {
            rel: "crates/query/src/x.rs".to_string(),
            krate: "query".to_string(),
            is_binary: false,
            src: "fn f() -> Result<(), String> { Err(format!(\"x\")) } // cqshap-lint: allow(error-hygiene) -- fixture\n".to_string(),
        };
        let r = lint_files(&[spec], &CrateDeps::default(), &mut || 0).report;
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 1);
    }
}
