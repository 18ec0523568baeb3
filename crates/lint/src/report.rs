//! Finding and report types, plus the machine-readable JSON encoding.

use std::fmt;

/// Rule name: typed errors only — no `Box<dyn Error>` / `Err(format!…)`.
pub const RULE_ERROR_HYGIENE: &str = "error-hygiene";
/// Rule name: a panic-free crate's root denies clippy's panic lint set.
pub const RULE_PANIC_LINT_SET: &str = "panic-lint-set";
/// Graph rule: public engine APIs are panic-free through the whole
/// call graph. Its input is the lexical panic-site finder; sites no
/// public API reaches are demoted.
pub const RULE_TRANSITIVE_NO_PANIC: &str = "transitive-no-panic";
/// Graph rule: every loop reachable from a `Budget`/`CancelToken`
/// entry point polls cancellation.
pub const RULE_CANCELLATION_REACHABILITY: &str = "cancellation-reachability";
/// Graph rule: lock acquisitions follow one global order and no lock
/// is held across a thread fan-out.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// Meta rule: a malformed suppression pragma.
pub const RULE_BAD_PRAGMA: &str = "bad-pragma";
/// Meta rule: a pragma that suppressed nothing.
pub const RULE_UNUSED_SUPPRESSION: &str = "unused-suppression";

/// Every rule name the pragma parser accepts: the rules whose findings
/// a reasoned pragma may silence.
pub const KNOWN_RULES: &[&str] = &[
    RULE_CANCELLATION_REACHABILITY,
    RULE_LOCK_ORDER,
    RULE_ERROR_HYGIENE,
];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule's name.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A finding silenced by a reasoned pragma, or a reachable panic site
/// that clippy holds to an `#[expect]`, kept for the report.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// The silenced finding or the panic site.
    pub finding: Finding,
    /// The pragma's mandatory reason, or why the panic site is counted.
    pub reason: String,
}

/// A raw lexical finding the call graph *demoted*: the graph proved
/// the site safe, so it is neither a finding nor a suppression.
#[derive(Debug, Clone)]
pub struct Demoted {
    /// The demoted finding.
    pub finding: Finding,
    /// The graph's proof sketch.
    pub why: String,
}

/// A call-graph path attached to a finding for `--explain`.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The explained finding's rule.
    pub rule: String,
    /// Its file.
    pub file: String,
    /// Its line.
    pub line: u32,
    /// Qualified fn names, entry point first, offending fn last (for
    /// `lock-order`, the acquisition chain instead).
    pub path: Vec<String>,
}

/// The `suppression-debt` numbers the ratchet gate enforces.
#[derive(Debug, Clone, Copy, Default)]
pub struct SuppressionDebt {
    /// The committed baseline (from `suppression-baseline.txt`), when
    /// one was loaded.
    pub baseline: Option<usize>,
    /// Live suppression count this run.
    pub current: usize,
    /// Raw findings the graph demoted (proved safe) this run.
    pub demoted: usize,
    /// Pragmas the graph proved redundant (reported as
    /// `unused-suppression`).
    pub redundant: usize,
}

/// The whole run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned, workspace-relative.
    pub files: Vec<String>,
    /// Unsuppressed findings — any entry here fails the run.
    pub findings: Vec<Finding>,
    /// Findings silenced by reasoned pragmas, plus the reachable panic
    /// sites of the panic-free crates. The ratchet counts both.
    pub suppressed: Vec<Suppressed>,
    /// Findings the call graph demoted (proved safe).
    pub demoted: Vec<Demoted>,
    /// Call-graph paths for `--explain` (covers live and suppressed
    /// graph-rule findings and reachable panic sites).
    pub explanations: Vec<Explanation>,
    /// The suppression-ratchet numbers.
    pub debt: SuppressionDebt,
    /// Per-rule wall time in microseconds, measured by the binary (the
    /// library never reads the clock — that is one of its own rules).
    pub rule_timings: Vec<(String, u64)>,
}

impl Report {
    /// Did the workspace pass (no live findings)?
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The `LINT_report.json` encoding (hand-rolled: the workspace has
    /// no serde). Schema version 2: version 1 plus the graph-rule
    /// additions (`suppression_debt`, `demoted`, `rule_timings_us`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema_version\": 2,\n");
        out.push_str(&format!(
            "  \"files_scanned\": {},\n  \"finding_count\": {},\n  \"suppressed_count\": {},\n  \"demoted_count\": {},\n",
            self.files.len(),
            self.findings.len(),
            self.suppressed.len(),
            self.demoted.len()
        ));
        out.push_str(&format!(
            "  \"suppression_debt\": {{\"baseline\": {}, \"current\": {}, \"demoted\": {}, \"redundant\": {}}},\n",
            self.debt
                .baseline
                .map_or("null".to_string(), |b| b.to_string()),
            self.debt.current,
            self.debt.demoted,
            self.debt.redundant
        ));
        out.push_str("  \"rule_timings_us\": {");
        for (i, (rule, us)) in self.rule_timings.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_str(rule), us));
        }
        out.push_str("},\n");
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(&f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            ));
        }
        out.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"reason\": {}}}",
                json_str(&s.finding.rule),
                json_str(&s.finding.file),
                s.finding.line,
                json_str(&s.finding.message),
                json_str(&s.reason)
            ));
        }
        out.push_str(if self.suppressed.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"demoted\": [");
        for (i, d) in self.demoted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"why\": {}}}",
                json_str(&d.finding.rule),
                json_str(&d.finding.file),
                d.finding.line,
                json_str(&d.why)
            ));
        }
        out.push_str(if self.demoted.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

/// JSON string literal with the escapes that can occur in paths,
/// messages, and reasons.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shape() {
        let mut r = Report::default();
        r.files.push("a.rs".into());
        r.findings.push(Finding {
            rule: RULE_LOCK_ORDER.into(),
            file: "crates/x/src/a.rs".into(),
            line: 3,
            message: "call to `panic!` with \"quotes\"".into(),
        });
        r.suppressed.push(Suppressed {
            finding: Finding {
                rule: RULE_ERROR_HYGIENE.into(),
                file: "b.rs".into(),
                line: 9,
                message: "m".into(),
            },
            reason: "line1\nline2".into(),
        });
        let j = r.to_json();
        assert!(j.contains("\"finding_count\": 1"));
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("line1\\nline2"));
        assert!(!r.is_clean());
    }
}
