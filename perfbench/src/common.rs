//! What every workload shares: the run context, the in-process
//! counterpart of `cqshap report`, and answer digests.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cqshap::core::{AnyQuery, AnytimeReport, ShapleyOptions, ShapleyReport, ShapleySession};
use cqshap::db::Database;
use cqshap::query::{classify_with_exo, parse_ucq, ConjunctiveQuery, UnionQuery};

use crate::stats::Digest;

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    /// How long the measuring loop runs.
    pub seconds: f64,
    /// Worker cap passed to every engine and to the CLI.
    pub threads: usize,
    /// The `cqshap` binary under test.
    pub cqshap: String,
    /// Scratch directory for generated db files.
    pub work: PathBuf,
}

impl Ctx {
    pub fn options(&self) -> ShapleyOptions {
        ShapleyOptions::auto().threads(self.threads)
    }
}

/// Times `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A parsed query, shaped the way `cqshap report` routes it: one rule
/// is a CQ¬, several a UCQ¬.
pub enum Query {
    Cq(ConjunctiveQuery),
    Union(UnionQuery),
}

impl Query {
    /// Parses `text` and classifies every rule against `db`'s
    /// exogenous relations, as the session's prepare does.
    pub fn parse_and_classify(text: &str, db: &Database) -> Query {
        let u = parse_ucq(text).expect("benchmark queries parse");
        let exo: HashSet<String> = db.exogenous_relation_names().into_iter().collect();
        for d in u.disjuncts() {
            std::hint::black_box(classify_with_exo(d, &exo));
        }
        match u.disjuncts() {
            [q] => Query::Cq(q.clone()),
            _ => Query::Union(u),
        }
    }

    pub fn any(&self) -> AnyQuery<'_> {
        match self {
            Query::Cq(q) => AnyQuery::Cq(q),
            Query::Union(u) => AnyQuery::Union(u),
        }
    }
}

/// Renders a report the way `cqshap report` prints it.
pub fn render_report(report: &ShapleyReport) -> String {
    let mut s = String::new();
    for e in &report.entries {
        let _ = writeln!(
            s,
            "{:<32} {:>16} ≈ {:+.6}",
            e.rendered,
            e.value.to_string(),
            e.value.to_f64()
        );
    }
    let _ = writeln!(s, "Σ = {} ({})", report.total, report.expected_total);
    s
}

/// Renders a sampled report the way `cqshap report --tier` prints it.
pub fn render_anytime(report: &AnytimeReport) -> String {
    let mut s = String::new();
    for e in &report.entries {
        let _ = writeln!(
            s,
            "{:<32} {:+.6} ± {:.6}",
            e.rendered, e.estimate, e.half_width
        );
    }
    s
}

/// Digest of a report's exact answer lines: every fact with its value.
pub fn report_digest(report: &ShapleyReport) -> Digest {
    let mut d = Digest::new();
    for e in &report.entries {
        d.line(&[&e.rendered, &e.value.to_string()]);
    }
    d
}

/// Digest of a sampled report's answer lines, as the CLI prints them.
pub fn anytime_digest(report: &AnytimeReport) -> Digest {
    let mut d = Digest::new();
    for line in render_anytime(report).lines() {
        d.line(&[line.trim_end()]);
    }
    d
}

/// What the CLI printed for one report: the digest of its exact answer
/// lines (`<fact> <value> ≈ <approx>`), how many there were, and whether
/// it printed `efficiency holds`.
pub struct Printed {
    pub digest: Digest,
    pub entries: usize,
    pub efficiency_holds: bool,
}

/// Reads `cqshap report` output back into a [`Printed`].
pub fn parse_printed(stdout: &str) -> Printed {
    let mut digest = Digest::new();
    let mut entries = 0;
    let mut efficiency_holds = false;
    for line in stdout.lines() {
        if line.starts_with("Σ = ") {
            efficiency_holds = line.contains("(efficiency holds:");
        } else if let Some((left, _approx)) = line.rsplit_once(" ≈ ") {
            if let Some((fact, value)) = left.trim_end().rsplit_once(' ') {
                digest.line(&[fact.trim_end(), value]);
                entries += 1;
            }
        }
    }
    Printed {
        digest,
        entries,
        efficiency_holds,
    }
}

/// Digest of the sampled tier's answer lines in `cqshap report --tier`
/// output, plus the draw count it printed.
pub fn parse_printed_anytime(stdout: &str) -> (Digest, Option<u64>) {
    let mut digest = Digest::new();
    let mut draws = None;
    for line in stdout.lines() {
        if line.contains(" ± ") {
            digest.line(&[line.trim_end()]);
        } else if let Some(n) = line.strip_suffix(" draws this call; all intervals within ±ε") {
            draws = n.parse().ok();
        }
    }
    (digest, draws)
}

/// Prepares `query` on `db` as `cqshap report` does.
pub fn prepare(db: &Database, query: &Query, ctx: &Ctx) -> ShapleySession {
    ShapleySession::prepare(db, query.any(), &ctx.options()).expect("benchmark inputs prepare")
}
