//! Drives [`cqshap_lint::lint_files`] — the full interprocedural
//! pipeline — over the fixture corpus: for each rule a positive fixture
//! (the violation must be found, with a call-graph explanation for the
//! graph rules), a suppressed fixture (a reasoned pragma silences it
//! without `unused-suppression` residue), and a test-exempt fixture
//! (the same constructs inside `#[cfg(test)]` are ignored). The meta
//! rules (`bad-pragma`, `unused-suppression`) and the panic-lint-set
//! delegation check get their own cases. A golden test pins the
//! `GRAPH_report.json` rendering of a small fixture workspace byte for
//! byte.

use std::path::{Path, PathBuf};

use std::collections::{BTreeMap, BTreeSet};

use cqshap_lint::{lint_files, CrateDeps, FileSpec, WorkspaceOutcome};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/graph")
        .join(name)
}

fn fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs the whole pipeline over in-memory library fixture files, no
/// timing, with every crate free to call every other.
fn run(files: &[(&str, &str, &str)]) -> WorkspaceOutcome {
    run_with_deps(files, &CrateDeps::default())
}

/// [`run`] under a crate dependency graph.
fn run_with_deps(files: &[(&str, &str, &str)], deps: &CrateDeps) -> WorkspaceOutcome {
    let specs: Vec<FileSpec> = files
        .iter()
        .map(|(rel, krate, name)| FileSpec {
            rel: rel.to_string(),
            krate: krate.to_string(),
            is_binary: false,
            src: fixture(name),
        })
        .collect();
    lint_files(&specs, deps, &mut || 0)
}

/// One fixture as the core crate's binary target.
fn run_core_binary(name: &str) -> WorkspaceOutcome {
    let spec = FileSpec {
        rel: "crates/core/src/main.rs".to_string(),
        krate: "core".to_string(),
        is_binary: true,
        src: fixture(name),
    };
    lint_files(&[spec], &CrateDeps::default(), &mut || 0)
}

/// One core-crate library file at a generic path (all rules run).
fn run_core(name: &str) -> WorkspaceOutcome {
    run(&[("crates/core/src/fixture.rs", "core", name)])
}

/// One `workloads` library file: outside the panic-free crates, so only
/// `error-hygiene`, the graph rules and the meta rules run.
fn run_workloads(name: &str) -> WorkspaceOutcome {
    run(&[("crates/workloads/src/fixture.rs", "workloads", name)])
}

fn rules_of(out: &WorkspaceOutcome) -> Vec<&str> {
    out.report
        .findings
        .iter()
        .map(|f| f.rule.as_str())
        .collect()
}

// ---- cancellation-reachability ------------------------------------

#[test]
fn cancellation_positive_is_found_with_path() {
    let out = run_core("cancel_reach_positive.rs");
    let r = &out.report;
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.rule, "cancellation-reachability");
    // Anchored at the `fn hot` line, loop line in the message.
    assert_eq!(f.line, 5, "{f:?}");
    assert!(f.message.contains("`core::fixture::hot`"), "{f:?}");
    assert!(f.message.contains("entry"), "{f:?}");
    let ex = r
        .explanations
        .iter()
        .find(|e| e.rule == "cancellation-reachability")
        .expect("explanation");
    assert_eq!(ex.path, ["core::fixture::entry", "core::fixture::hot"]);
}

#[test]
fn cancellation_pragma_suppresses_without_residue() {
    let out = run_core("cancel_reach_suppressed.rs");
    let r = &out.report;
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
    assert_eq!(r.suppressed[0].finding.rule, "cancellation-reachability");
    assert!(r.suppressed[0].reason.contains("bounded"));
}

#[test]
fn cancellation_test_code_is_exempt() {
    let out = run_core("cancel_reach_test_exempt.rs");
    assert!(out.report.findings.is_empty(), "{:?}", out.report.findings);
}

#[test]
fn cancellation_partial_progress_pattern_is_proven() {
    // The batched-engine shape (poll between facts, surface completed
    // answers on the deadline error) is exactly what the rule wants:
    // its loop is covered, so the file lints clean with zero findings
    // and the section reports full coverage.
    let out = run_core("cancel_reach_partial_progress.rs");
    assert!(out.report.findings.is_empty(), "{:?}", out.report.findings);
    let (_, cr) = out
        .sections
        .iter()
        .find(|(k, _)| *k == "cancellation_reachability")
        .expect("section");
    assert!(cr.contains("\"uncovered_loops\": 0"), "{cr}");
    assert!(cr.contains("\"covered_loops\": 1"), "{cr}");
    assert!(cr.contains("\"entry_points\": 1"), "{cr}");
}

// ---- lock-order ---------------------------------------------------

#[test]
fn lock_cycle_is_found() {
    let out = run_core("lock_order_cycle.rs");
    let r = &out.report;
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "lock-order" && f.message.contains("cycle")),
        "{:?}",
        r.findings
    );
    let (_, lo) = out
        .sections
        .iter()
        .find(|(k, _)| *k == "lock_order")
        .expect("section");
    assert!(lo.contains("\"locks\": 2"), "{lo}");
    assert!(!lo.contains("\"cycles\": 0"), "{lo}");
}

#[test]
fn lock_held_across_fanout_is_found() {
    let out = run_core("lock_order_fanout_positive.rs");
    let f = out
        .report
        .findings
        .iter()
        .find(|f| f.rule == "lock-order")
        .unwrap_or_else(|| panic!("{:?}", out.report.findings));
    // Anchored at the acquisition line so a pragma there can cover it.
    assert_eq!(f.line, 7, "{f:?}");
    assert!(f.message.contains("fan-out"), "{f:?}");
}

#[test]
fn lock_fanout_pragma_suppresses_without_residue() {
    let out = run_core("lock_order_fanout_suppressed.rs");
    let r = &out.report;
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
    assert_eq!(r.suppressed[0].finding.rule, "lock-order");
}

#[test]
fn lock_sites_in_test_code_are_exempt() {
    let out = run_core("lock_order_test_exempt.rs");
    assert!(out.report.findings.is_empty(), "{:?}", out.report.findings);
}

// ---- transitive-no-panic ------------------------------------------

#[test]
fn unreachable_panic_site_is_demoted_not_counted() {
    let out = run_core("tnp_demoted.rs");
    let r = &out.report;
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert!(r.suppressed.is_empty(), "{:?}", r.suppressed);
    assert_eq!(r.demoted.len(), 1, "{:?}", r.demoted);
    assert_eq!(r.demoted[0].finding.rule, "transitive-no-panic");
    assert!(r.demoted[0].why.contains("unreachable"), "{:?}", r.demoted);
    assert_eq!(r.debt.demoted, 1);
    // Every public root certifies panic-free.
    let (_, tnp) = out
        .sections
        .iter()
        .find(|(k, _)| *k == "transitive_no_panic")
        .expect("section");
    assert!(tnp.contains("\"status\": \"panic-free\""), "{tnp}");
    assert!(!tnp.contains("modulo-pragmas"), "{tnp}");
}

#[test]
fn reachable_panic_site_is_counted_with_path() {
    // Clippy holds the site to an `#[expect]`; the lint counts it toward
    // the ratchet and explains which public API reaches it.
    let out = run_core("tnp_reachable.rs");
    let r = &out.report;
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
    assert_eq!(r.suppressed[0].finding.rule, "transitive-no-panic");
    assert!(
        r.suppressed[0].reason.contains("clippy"),
        "{:?}",
        r.suppressed
    );
    assert_eq!(r.debt.current, 1);
    let ex = r
        .explanations
        .iter()
        .find(|e| e.rule == "transitive-no-panic")
        .expect("explanation");
    assert_eq!(ex.path, ["core::fixture::api", "core::fixture::risky"]);
    let (_, tnp) = out
        .sections
        .iter()
        .find(|(k, _)| *k == "transitive_no_panic")
        .expect("section");
    assert!(tnp.contains("panic-free-modulo-pragmas"), "{tnp}");
}

#[test]
fn tuple_field_index_is_a_panic_site() {
    // `self.0[i]`: the token before `[` is a number literal after `.`.
    let out = run_core("tnp_tuple_index.rs");
    let r = &out.report;
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
    assert_eq!(r.suppressed[0].finding.rule, "transitive-no-panic");
    assert!(
        r.suppressed[0].finding.message.contains("index"),
        "{:?}",
        r.suppressed
    );
    assert_eq!(r.debt.current, 1);
}

#[test]
fn fields_and_bindings_are_not_fn_references() {
    // A panicking fn named `delta` beside a `delta` parameter, a
    // `delta` field read, a `delta:` struct-literal field and a `let
    // delta`: none of them reaches it, so its site stays unreachable.
    let out = run_core("tnp_binding_not_a_ref.rs");
    let g = &out.graph;
    let delta = g
        .fns
        .iter()
        .position(|f| f.item.name == "delta")
        .expect("fn delta");
    assert!(
        g.edges.iter().all(|e| e.to != delta),
        "{:?}",
        g.edges
            .iter()
            .filter(|e| e.to == delta)
            .map(|e| &g.fns[e.from].qualname)
            .collect::<Vec<_>>()
    );
    let r = &out.report;
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert!(r.suppressed.is_empty(), "{:?}", r.suppressed);
    assert_eq!(r.demoted.len(), 1, "{:?}", r.demoted);
    let (_, tnp) = out
        .sections
        .iter()
        .find(|(k, _)| *k == "transitive_no_panic")
        .expect("section");
    assert!(tnp.contains("\"status\": \"panic-free\""), "{tnp}");
    assert!(!tnp.contains("modulo-pragmas"), "{tnp}");
}

#[test]
fn method_calls_resolve_only_into_the_dependency_closure() {
    // `core` calls `.len()` on receivers of unknown type. Its own
    // `Budget::len` is a candidate; `bench`'s `Table::len` is not,
    // because `core` does not depend on `bench` (the reverse holds).
    let files = [
        ("crates/core/src/fixture.rs", "core", "deps_caller.rs"),
        ("crates/bench/src/fixture.rs", "bench", "deps_foreign.rs"),
    ];
    let direct: BTreeMap<String, BTreeSet<String>> = [
        ("core".to_string(), BTreeSet::from(["numeric".to_string()])),
        ("bench".to_string(), BTreeSet::from(["core".to_string()])),
    ]
    .into();
    let len_callees = |out: &WorkspaceOutcome| -> BTreeSet<String> {
        let g = &out.graph;
        let caller = g
            .fns
            .iter()
            .position(|f| f.item.name == "total_len")
            .expect("fn total_len");
        g.out[caller]
            .iter()
            .map(|&e| g.fns[g.edges[e].to].qualname.clone())
            .collect()
    };
    let scoped = run_with_deps(&files, &CrateDeps::from_direct(&direct));
    assert_eq!(
        len_callees(&scoped),
        BTreeSet::from(["core::fixture::Budget::len".to_string()])
    );
    // Without the manifests' closure the foreign method is a candidate.
    let unscoped = run(&files);
    assert!(
        len_callees(&unscoped).contains("bench::fixture::Table::len"),
        "{:?}",
        len_callees(&unscoped)
    );
    // `bench` depends on `core`, so its calls still reach `core`.
    let g = &scoped.graph;
    let bench_caller = g
        .fns
        .iter()
        .position(|f| f.item.name == "render")
        .expect("fn render");
    assert!(g.out[bench_caller]
        .iter()
        .any(|&e| g.fns[g.edges[e].to].qualname == "core::fixture::Budget::len"));
}

#[test]
fn panic_sites_are_not_counted_outside_panic_free_crates() {
    let out = run_workloads("tnp_reachable.rs");
    assert!(out.report.findings.is_empty(), "{:?}", out.report.findings);
    assert!(out.report.suppressed.is_empty());
    assert!(out.report.demoted.is_empty());
}

#[test]
fn binaries_owe_no_panic_sites_and_no_error_hygiene() {
    // A binary may panic and box its errors: neither its unwraps nor
    // its stringly errors are counted, suppressed, or demoted.
    for name in ["tnp_reachable.rs", "error_hygiene_positive.rs"] {
        let r = run_core_binary(name).report;
        assert!(r.findings.is_empty(), "{name}: {:?}", r.findings);
        assert!(r.suppressed.is_empty(), "{name}: {:?}", r.suppressed);
        assert!(r.demoted.is_empty(), "{name}: {:?}", r.demoted);
    }
}

// ---- panic-lint-set -----------------------------------------------

#[test]
fn panic_lint_set_in_lib_rs_passes() {
    let out = run(&[(
        "crates/core/src/lib.rs",
        "core",
        "panic_lint_set_present.rs",
    )]);
    assert!(out.report.findings.is_empty(), "{:?}", out.report.findings);
}

#[test]
fn a_missing_panic_lint_fails_the_run() {
    let out = run(&[(
        "crates/core/src/lib.rs",
        "core",
        "panic_lint_set_missing.rs",
    )]);
    assert_eq!(
        rules_of(&out),
        ["panic-lint-set"],
        "{:?}",
        out.report.findings
    );
    let f = &out.report.findings[0];
    assert!(f.message.contains("clippy::indexing_slicing"), "{f:?}");
    assert!(!f.message.contains("clippy::unwrap_used"), "{f:?}");
    assert!(!out.report.is_clean());
}

#[test]
fn a_crate_wide_panic_lint_exemption_fails_the_run() {
    let out = run(&[(
        "crates/core/src/lib.rs",
        "core",
        "panic_lint_set_exempted.rs",
    )]);
    assert_eq!(
        rules_of(&out),
        ["panic-lint-set"],
        "{:?}",
        out.report.findings
    );
    let f = &out.report.findings[0];
    assert_eq!(f.line, 18, "{f:?}");
    assert!(f.message.contains("clippy::indexing_slicing"), "{f:?}");
}

#[test]
fn panic_lint_set_is_checked_only_at_panic_free_crate_roots() {
    // The same root in a crate outside `NO_PANIC_CRATES`, and the same
    // file away from `lib.rs`, owe no deny line.
    let out = run(&[(
        "crates/workloads/src/lib.rs",
        "workloads",
        "panic_lint_set_missing.rs",
    )]);
    assert!(out.report.findings.is_empty(), "{:?}", out.report.findings);
    let out = run_core("panic_lint_set_missing.rs");
    assert!(out.report.findings.is_empty(), "{:?}", out.report.findings);
}

// ---- error-hygiene ------------------------------------------------

#[test]
fn error_hygiene_positive_is_caught() {
    let out = run_workloads("error_hygiene_positive.rs");
    assert!(out.report.suppressed.is_empty());
    assert_eq!(
        rules_of(&out),
        ["error-hygiene", "error-hygiene"],
        "{:?}",
        out.report.findings
    );
}

#[test]
fn error_hygiene_suppression_works() {
    let out = run_workloads("error_hygiene_suppressed.rs");
    assert!(out.report.findings.is_empty(), "{:?}", out.report.findings);
    assert_eq!(out.report.suppressed.len(), 2);
    assert!(out.report.suppressed.iter().all(|s| !s.reason.is_empty()));
}

#[test]
fn error_hygiene_test_code_is_exempt() {
    let out = run_workloads("error_hygiene_test_exempt.rs");
    assert!(out.report.findings.is_empty(), "{:?}", out.report.findings);
    assert!(out.report.suppressed.is_empty());
}

// ---- meta rules ---------------------------------------------------

#[test]
fn malformed_pragmas_are_findings() {
    let out = run_workloads("bad_pragma.rs");
    assert!(out.report.suppressed.is_empty());
    assert_eq!(
        rules_of(&out),
        ["bad-pragma", "bad-pragma", "bad-pragma"],
        "{:?}",
        out.report.findings
    );
}

#[test]
fn stale_suppressions_are_findings() {
    let out = run_workloads("unused_suppression.rs");
    assert!(out.report.suppressed.is_empty());
    assert_eq!(
        rules_of(&out),
        ["unused-suppression"],
        "{:?}",
        out.report.findings
    );
}

// ---- golden graph -------------------------------------------------

/// Pins the `GRAPH_report.json` rendering (nodes, edges with their
/// `approx` precision flags, lock table, rule sections) of a two-file
/// fixture workspace byte for byte. Regenerate deliberately with
/// `UPDATE_GOLDEN=1 cargo test -p cqshap-lint --test graph_fixtures`.
#[test]
fn golden_graph_report_is_stable() {
    let out = run(&[
        ("crates/core/src/fixture_api.rs", "core", "golden_api.rs"),
        ("crates/core/src/fixture_pool.rs", "core", "golden_pool.rs"),
    ]);
    assert!(out.report.findings.is_empty(), "{:?}", out.report.findings);
    let json = out.graph.to_json(&out.sections);
    let path = fixture_path("golden_graph.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &json).unwrap();
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {} ({e}) — run with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        json, want,
        "GRAPH_report.json drifted — if intentional, rerun with UPDATE_GOLDEN=1"
    );
}
