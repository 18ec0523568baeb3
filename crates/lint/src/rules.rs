//! The per-file lexical rules.
//!
//! Every rule is a pure function over one file's [`FileCtx`]: pattern
//! matching over the significant (non-trivia) tokens, with test-only
//! regions exempt. Which rules run on which files is decided by
//! [`crate::workspace`]; the rules themselves only know how to spot
//! their construct.
//!
//! Clippy enforces the per-file panic, thread and clock rules (the
//! panic lint set in each panic-free crate's `lib.rs`, and
//! `disallowed-methods` in `clippy.toml`). What stays here is what it
//! cannot do: [`panic_sites`] feeds `transitive-no-panic`,
//! [`panic_lint_set`] checks that the clippy side is switched on, and
//! [`error_hygiene`] covers shapes clippy has no lint for.

use crate::lexer::TokenKind;
use crate::report::{Finding, RULE_ERROR_HYGIENE, RULE_PANIC_LINT_SET, RULE_TRANSITIVE_NO_PANIC};
use crate::scanner::FileMap;

/// The clippy lints a panic-free crate denies in its library code: one
/// per panicking construct [`panic_sites`] reports.
pub const PANIC_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "indexing_slicing",
    "string_slice",
];

/// One file prepared for rule evaluation.
pub struct FileCtx<'s> {
    /// Source text.
    pub src: &'s str,
    /// Workspace-relative path, forward slashes.
    pub path: &'s str,
    /// Structural map (tokens, significant tokens, test ranges).
    pub map: &'s FileMap,
}

impl FileCtx<'_> {
    fn len(&self) -> usize {
        self.map.sig.len()
    }

    fn tok(&self, k: usize) -> &crate::lexer::Token {
        &self.map.tokens[self.map.sig[k]]
    }

    fn text(&self, k: usize) -> &str {
        self.tok(k).text(self.src)
    }

    fn is(&self, k: usize, kind: TokenKind, text: &str) -> bool {
        k < self.len() && self.tok(k).kind == kind && self.text(k) == text
    }

    fn finding(&self, rule: &str, k: usize, message: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: self.path.to_string(),
            line: self.tok(k).line,
            message,
        }
    }
}

/// Keywords that may directly precede a `[` that is *not* an index
/// expression (array literals, slice patterns, array types).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "yield",
];

/// The panic sites of one file: `panic!` / `unreachable!` / `todo!` /
/// `unimplemented!` macros, `.unwrap()` / `.expect(…)` calls, and `[…]`
/// index expressions (which panic out of bounds). Test code is exempt.
/// Clippy's [`PANIC_LINTS`] hold each site to an `#[expect]`; these
/// sites are the input of `transitive-no-panic`, which demotes the
/// unreachable ones and certifies each public API.
pub fn panic_sites(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for k in 0..ctx.len() {
        let t = ctx.tok(k);
        if ctx.map.in_test(t.start) {
            continue;
        }
        match t.kind {
            TokenKind::Ident => {
                let w = ctx.text(k);
                if matches!(w, "panic" | "unreachable" | "todo" | "unimplemented")
                    && ctx.is(k + 1, TokenKind::Punct, "!")
                {
                    out.push(ctx.finding(
                        RULE_TRANSITIVE_NO_PANIC,
                        k,
                        format!("`{w}!` in library code"),
                    ));
                }
                if matches!(w, "unwrap" | "expect")
                    && k > 0
                    && ctx.is(k - 1, TokenKind::Punct, ".")
                    && ctx.is(k + 1, TokenKind::Punct, "(")
                {
                    out.push(ctx.finding(
                        RULE_TRANSITIVE_NO_PANIC,
                        k,
                        format!("`.{w}(…)` in library code"),
                    ));
                }
            }
            TokenKind::Punct if ctx.text(k) == "[" && k > 0 => {
                let prev = ctx.tok(k - 1);
                let indexable = match prev.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&ctx.text(k - 1)),
                    TokenKind::Punct => matches!(ctx.text(k - 1), ")" | "]"),
                    _ => false,
                };
                // `[` must be adjacent to the indexed expression — a
                // gap means an array literal/type on a new line.
                if indexable && prev.end == t.start {
                    out.push(ctx.finding(
                        RULE_TRANSITIVE_NO_PANIC,
                        k,
                        "`[…]` index expression in library code".to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

/// **panic-lint-set** — the root of a panic-free crate denies every
/// lint of [`PANIC_LINTS`] in its library code, unconditionally
/// (`#![deny(clippy::…)]`) or outside tests
/// (`#![cfg_attr(not(test), deny(clippy::…))]`); `forbid` counts too.
/// It also names none of them in an inner `#![allow(…)]` or
/// `#![expect(…)]`, which would exempt the whole crate. Without either
/// guarantee, clippy would stop holding the crate's panic sites to an
/// item-level `#[expect]` and panic-freedom would silently switch off.
pub fn panic_lint_set(ctx: &FileCtx<'_>, krate: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut denied: Vec<&str> = Vec::new();
    let mut k = 0;
    while k + 2 < ctx.len() {
        if !(ctx.is(k, TokenKind::Punct, "#")
            && ctx.is(k + 1, TokenKind::Punct, "!")
            && ctx.is(k + 2, TokenKind::Punct, "["))
        {
            k += 1;
            continue;
        }
        let mut end = k + 2;
        let mut depth = 0usize;
        while end < ctx.len() {
            if ctx.is(end, TokenKind::Punct, "[") {
                depth += 1;
            } else if ctx.is(end, TokenKind::Punct, "]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            end += 1;
        }
        let mut j = k + 3;
        let outside_tests = ["cfg_attr", "(", "not", "(", "test", ")", ","];
        if outside_tests
            .iter()
            .enumerate()
            .all(|(i, t)| j + i < ctx.len() && ctx.text(j + i) == *t)
        {
            j += outside_tests.len();
        }
        let denies = ctx.is(j, TokenKind::Ident, "deny") || ctx.is(j, TokenKind::Ident, "forbid");
        // The lint level in force at each token: `allow`/`expect` may sit
        // behind any `cfg_attr` condition and still exempt the crate.
        let mut exempts = None;
        for i in k + 3..end {
            if ctx.is(i + 1, TokenKind::Punct, "(") {
                match ctx.text(i) {
                    "allow" | "expect" => exempts = Some(ctx.text(i)),
                    "deny" | "forbid" | "warn" => exempts = None,
                    _ => {}
                }
            }
            if !(ctx.is(i, TokenKind::Ident, "clippy")
                && ctx.is(i + 1, TokenKind::Punct, ":")
                && ctx.is(i + 2, TokenKind::Punct, ":")
                && i + 3 < end)
            {
                continue;
            }
            let lint = ctx.text(i + 3);
            if denies {
                denied.push(lint);
            }
            if let (Some(level), true) = (exempts, PANIC_LINTS.contains(&lint)) {
                out.push(ctx.finding(
                    RULE_PANIC_LINT_SET,
                    k,
                    format!(
                        "`{krate}` is a panic-free crate but its root attribute `{level}`s `clippy::{lint}` crate-wide — put the exemption on the statement or item it covers"
                    ),
                ));
            }
        }
        k = end + 1;
    }
    let missing: Vec<String> = PANIC_LINTS
        .iter()
        .filter(|l| !denied.contains(l))
        .map(|l| format!("clippy::{l}"))
        .collect();
    if !missing.is_empty() {
        out.insert(
            0,
            Finding {
                rule: RULE_PANIC_LINT_SET.to_string(),
                file: ctx.path.to_string(),
                line: 1,
                message: format!(
                    "`{krate}` is a panic-free crate but its library code does not deny {} — restore `#![cfg_attr(not(test), deny(clippy::…))]` with the whole panic lint set",
                    missing.join(", ")
                ),
            },
        );
    }
    out
}

/// **error-hygiene** — first-party library code returns typed errors:
/// no `Box<dyn … Error …>` and no stringly `Err(format!(…))`.
pub fn error_hygiene(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for k in 0..ctx.len() {
        let t = ctx.tok(k);
        if t.kind != TokenKind::Ident || ctx.map.in_test(t.start) {
            continue;
        }
        let w = ctx.text(k);
        if w == "Box"
            && ctx.is(k + 1, TokenKind::Punct, "<")
            && ctx.is(k + 2, TokenKind::Ident, "dyn")
        {
            // Scan a few tokens for an `…Error` ident before the `>`.
            let mut j = k + 3;
            while j < ctx.len() && j < k + 12 {
                if ctx.is(j, TokenKind::Punct, ">") {
                    break;
                }
                if ctx.tok(j).kind == TokenKind::Ident && ctx.text(j).ends_with("Error") {
                    out.push(ctx.finding(
                        RULE_ERROR_HYGIENE,
                        k,
                        "`Box<dyn Error>` erases the error type — use the crate's typed error enum"
                            .to_string(),
                    ));
                    break;
                }
                j += 1;
            }
        }
        if w == "Err"
            && ctx.is(k + 1, TokenKind::Punct, "(")
            && ctx.is(k + 2, TokenKind::Ident, "format")
            && ctx.is(k + 3, TokenKind::Punct, "!")
        {
            out.push(
                ctx.finding(
                    RULE_ERROR_HYGIENE,
                    k,
                    "stringly `Err(format!(…))` — wrap the message in a typed error variant"
                        .to_string(),
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_run<T>(src: &str, rule: impl Fn(&FileCtx<'_>) -> T) -> T {
        let map = FileMap::build(src, lex(src));
        let ctx = FileCtx {
            src,
            path: "crates/core/src/x.rs",
            map: &map,
        };
        rule(&ctx)
    }

    #[test]
    fn panic_sites_catch_the_constructs() {
        let src = "fn f(v: &[u8]) -> u8 { let x = v[0]; opt.unwrap(); res.expect(\"msg\"); panic!(\"boom\"); unreachable!() }";
        let found = ctx_run(src, panic_sites);
        let messages: Vec<&str> = found.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(found.len(), 5, "{messages:?}");
    }

    #[test]
    fn panic_sites_skip_literals_comments_and_patterns() {
        let src = r#"
// panic! here is fine
#![expect(clippy::indexing_slicing, reason = "tables are sized first")]
fn f() {
    let s = "panic! and x.unwrap() in a string";
    let arr = [1, 2, 3];
    let [a, b] = pair;
    let t: [u8; 2] = [0; 2];
    for i in [1, 2] {}
    g(&mut [0u8; 4]);
    #[expect(clippy::unwrap_used, reason = "checked above")]
    let y = 1;
}
"#;
        assert!(ctx_run(src, panic_sites).is_empty());
    }

    #[test]
    fn panic_sites_ignore_unwrap_or_variants() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.expect_err(\"e\"); }";
        // `expect_err` still panics but is a different method name; the
        // finder names exactly the constructs clippy's lint set covers.
        assert!(ctx_run(src, panic_sites).is_empty());
    }

    #[test]
    fn panic_lint_set_needs_every_lint() {
        let whole = "#![cfg_attr(\n    not(test),\n    deny(\n        clippy::unwrap_used,\n        clippy::expect_used,\n        clippy::panic,\n        clippy::unreachable,\n        clippy::todo,\n        clippy::unimplemented,\n        clippy::indexing_slicing,\n        clippy::string_slice\n    )\n)]\npub fn f() {}\n";
        assert!(ctx_run(whole, |c| panic_lint_set(c, "core")).is_empty());
        let unconditional = "#![forbid(clippy::unwrap_used, clippy::expect_used, clippy::panic)]\n#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::string_slice)]";
        assert!(ctx_run(unconditional, |c| panic_lint_set(c, "core")).is_empty());
        let partial = whole.replace("        clippy::indexing_slicing,\n", "");
        let f = ctx_run(&partial, |c| panic_lint_set(c, "core"));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("clippy::indexing_slicing"), "{f:?}");
        assert!(!f[0].message.contains("clippy::unwrap_used"), "{f:?}");
        // A crate-wide exemption undoes the deny, in either spelling and
        // behind any condition; exempting another lint is fine.
        for exempt in [
            "#![expect(clippy::indexing_slicing, reason = \"x\")]\n",
            "#![allow(clippy::unwrap_used)]\n",
            "#![cfg_attr(feature = \"f\", allow(dead_code, clippy::panic))]\n",
        ] {
            let f = ctx_run(&format!("{whole}{exempt}"), |c| panic_lint_set(c, "core"));
            assert_eq!(f.len(), 1, "{exempt}: {f:?}");
            assert_eq!(f[0].line, 15, "{f:?}");
        }
        let other = format!("{whole}#![allow(clippy::too_many_lines)]\n");
        assert!(ctx_run(&other, |c| panic_lint_set(c, "core")).is_empty());
        // Only in tests, warned instead of denied, or on one item: none
        // of these switch the set on for the library.
        for weak in [
            whole.replace("not(test)", "test"),
            whole.replace("deny(", "warn("),
            whole.replace("#![", "#["),
        ] {
            assert!(
                !ctx_run(&weak, |c| panic_lint_set(c, "core")).is_empty(),
                "{weak}"
            );
        }
    }

    #[test]
    fn error_hygiene_catches_erased_and_stringly_errors() {
        let src =
            "fn f() -> Result<(), Box<dyn std::error::Error>> { Err(format!(\"bad\"))?; Ok(()) }";
        assert_eq!(ctx_run(src, error_hygiene).len(), 2);
        let clean =
            "fn f() -> Result<(), CoreError> { Err(CoreError::Unsupported(format!(\"x\"))) }";
        assert!(ctx_run(clean, error_hygiene).is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { v[0].unwrap(); panic!(); } }";
        assert!(ctx_run(src, panic_sites).is_empty());
    }
}
