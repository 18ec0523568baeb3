//! Suppression pragmas.
//!
//! A finding is silenced by an *explicit, reasoned* pragma comment:
//!
//! ```text
//! // cqshap-lint: allow(rule-name) -- why this site is sound
//! // cqshap-lint: allow(rule-a, rule-b) -- one reason for both
//! ```
//!
//! A pragma suppresses matching findings on its own line (trailing
//! comment) or on the line directly below (pragma on its own line).
//! Only the rules clippy cannot express take pragmas (see
//! [`KNOWN_RULES`](crate::report::KNOWN_RULES)); rustc rejects
//! `#[expect(cqshap::…)]` for an unregistered tool, so these stay
//! comments. Everything clippy checks is silenced with
//! `#[expect(clippy::…, reason = "…")]` instead. The ` -- reason` part is mandatory;
//! a pragma without one, naming an unknown rule, or malformed in any
//! way is itself a finding (`bad-pragma`), and a pragma that suppresses
//! nothing is reported as `unused-suppression` so stale exemptions
//! cannot accumulate.

use crate::lexer::{Token, TokenKind};
use crate::report::{Finding, RULE_BAD_PRAGMA};

/// One parsed suppression pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based line of the pragma comment.
    pub line: u32,
    /// The rule names it suppresses.
    pub rules: Vec<String>,
    /// The mandatory justification after ` -- `.
    pub reason: String,
    /// Set when the pragma suppressed at least one finding.
    pub used: bool,
}

/// The marker every pragma comment starts with (after `//`).
pub const MARKER: &str = "cqshap-lint:";

/// Extracts all pragmas from a file's line comments. Malformed pragmas
/// are reported as `bad-pragma` findings against `file`.
pub fn collect(
    src: &str,
    tokens: &[Token],
    file: &str,
    known_rules: &[&str],
) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let body = t.text(src).trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix(MARKER) else {
            continue;
        };
        match parse(rest.trim(), known_rules) {
            Ok((rules, reason)) => pragmas.push(Pragma {
                line: t.line,
                rules,
                reason,
                used: false,
            }),
            Err(msg) => findings.push(Finding {
                rule: RULE_BAD_PRAGMA.to_string(),
                file: file.to_string(),
                line: t.line,
                message: msg,
            }),
        }
    }
    (pragmas, findings)
}

/// Parses `allow(rules) -- reason`.
fn parse(rest: &str, known_rules: &[&str]) -> Result<(Vec<String>, String), String> {
    let Some(after) = rest.strip_prefix("allow") else {
        // cqshap-lint: allow(error-hygiene) -- the formatted string IS the bad-pragma finding message, not an error channel
        return Err(format!(
            "expected `allow(...)` after `{MARKER}`, got `{rest}`"
        ));
    };
    let after = after.trim_start();
    let Some(after) = after.strip_prefix('(') else {
        return Err("expected `(` after `allow`".to_string());
    };
    let Some(close) = after.find(')') else {
        return Err("unclosed `(` in pragma".to_string());
    };
    let rules: Vec<String> = after[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("pragma names no rules".to_string());
    }
    for r in &rules {
        if !known_rules.contains(&r.as_str()) {
            // cqshap-lint: allow(error-hygiene) -- the formatted string IS the bad-pragma finding message, not an error channel
            return Err(format!("unknown rule `{r}` in pragma"));
        }
    }
    let tail = after[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix("--") else {
        return Err("missing mandatory ` -- reason` in pragma".to_string());
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err("empty reason in pragma — the reason is mandatory".to_string());
    }
    Ok((rules, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const KNOWN: &[&str] = &["lock-order", "error-hygiene"];

    fn run(src: &str) -> (Vec<Pragma>, Vec<Finding>) {
        collect(src, &lex(src), "f.rs", KNOWN)
    }

    #[test]
    fn well_formed_pragmas_parse() {
        let (p, f) = run(
            "// cqshap-lint: allow(lock-order) -- bounded by construction\n\
             // cqshap-lint: allow(lock-order, error-hygiene) -- both\n",
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(p.len(), 2);
        assert_eq!(p[1].rules.len(), 2);
        assert_eq!(p[0].reason, "bounded by construction");
    }

    #[test]
    fn missing_reason_is_a_finding() {
        for bad in [
            "// cqshap-lint: allow(lock-order)",
            "// cqshap-lint: allow(lock-order) -- ",
            "// cqshap-lint: allow(not-a-rule) -- reason",
            "// cqshap-lint: allow lock-order -- reason",
            "// cqshap-lint: disallow(lock-order) -- reason",
            "// cqshap-lint: allow-file(lock-order) -- whole-file pragmas are gone",
            "// cqshap-lint: allow(no-panic) -- clippy owns the panic rules",
        ] {
            let (p, f) = run(bad);
            assert!(p.is_empty(), "{bad}");
            assert_eq!(f.len(), 1, "{bad}");
            assert_eq!(f[0].rule, RULE_BAD_PRAGMA);
        }
    }

    #[test]
    fn unrelated_comments_are_ignored() {
        let (p, f) = run("// plain comment\n/// doc about cqshap-lint: allow\n");
        assert!(p.is_empty());
        assert!(f.is_empty());
    }
}
