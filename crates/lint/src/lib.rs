//! `cqshap-lint` — the workspace invariant checker.
//!
//! The engine carries cross-cutting contracts that ordinary compilation
//! cannot enforce: the anytime tier's promise that every long-running
//! exact path polls its `Budget`/`CancelToken`, the session's promise
//! that failures surface as typed errors instead of panics mid-patch,
//! and a lock discipline that cannot deadlock a fan-out. Clippy checks
//! every rule that one file shows (see the README's "Static analysis"):
//! the panic lint set each panic-free crate denies, and `clippy.toml`'s
//! `disallowed-methods` for threads and clocks. This crate checks what
//! needs the whole workspace: a small total Rust [lexer] plus item/block
//! [scanner] feed the per-file [rules]; an item [parser] extracts every
//! fn with its calls, loops, and lock acquisitions; and the workspace
//! call [graph] built from those items runs the interprocedural
//! [graph_rules], with reasoned suppression pragmas ([pragma]) and scope
//! policy ([workspace]) on top.
//!
//! | rule | layer | contract |
//! |------|-------|----------|
//! | `error-hygiene` | lexical | typed errors, no `Box<dyn Error>` / `Err(format!…)` |
//! | `panic-lint-set` | lexical | every crate in [`NO_PANIC_CRATES`] denies clippy's panic lint set in its `lib.rs` and exempts none of it crate-wide |
//! | `transitive-no-panic` | graph | public APIs are panic-free iff everything they reach is; dead panic sites are demoted |
//! | `cancellation-reachability` | graph | every loop reachable from a `Budget`/`CancelToken` entry polls, directly or via a callee |
//! | `lock-order` | graph | lock acquisitions admit a global order: no cycles, no lock held across a thread fan-out |
//! | `suppression-debt` | graph | pragmas the graph proves redundant are flagged; the count ratchets against a committed baseline |
//!
//! Run `cargo run -p cqshap-lint` from the workspace root; it prints
//! `file:line` findings, writes `LINT_report.json` /
//! `GRAPH_report.json` / `GRAPH.dot`, enforces the suppression
//! ratchet (`crates/lint/suppression-baseline.txt`), and exits nonzero
//! on any unsuppressed violation. `--rule NAME --explain` prints the
//! call-graph path behind each finding. See the README's "Static
//! analysis" section for the suppression pragma syntax.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod graph;
pub mod graph_rules;
pub mod lexer;
pub mod parser;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod scanner;
pub mod workspace;

pub use report::{Demoted, Explanation, Finding, Report, Suppressed, SuppressionDebt};
pub use workspace::{
    lint_files, lint_workspace, lint_workspace_timed, FileSpec, WorkspaceOutcome, NO_PANIC_CRATES,
};

use std::fmt;
use std::path::PathBuf;

/// Errors from driving the linter itself (not findings).
#[derive(Debug)]
pub enum LintError {
    /// A file or directory could not be read or written.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// `--root` does not contain a `Cargo.toml`.
    NotAWorkspace {
        /// The rejected root.
        root: PathBuf,
    },
}

impl LintError {
    fn io(path: &std::path::Path, source: std::io::Error) -> LintError {
        LintError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            LintError::NotAWorkspace { root } => {
                write!(
                    f,
                    "{} has no Cargo.toml — run from the workspace root or pass --root",
                    root.display()
                )
            }
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Io { source, .. } => Some(source),
            LintError::NotAWorkspace { .. } => None,
        }
    }
}
