//! Item/block structure over the token stream.
//!
//! The panic-site finder and the parser need two structural facts the
//! flat token stream does not give them directly: *which tokens are
//! significant* (not whitespace or comments) and *which byte ranges are
//! test code* (items under `#[cfg(test)]` / `#[test]`, or `mod
//! tests`-style modules). Both are recovered by brace matching over the
//! significant tokens — no parser, no AST, which keeps the scanner total
//! on arbitrary input just like the lexer.

use crate::lexer::{Token, TokenKind};

/// The structural map of one file: its tokens plus the significant
/// token indices and the recovered test regions.
#[derive(Debug)]
pub struct FileMap {
    /// Every token of the file, in order.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-whitespace,
    /// non-comment) tokens.
    pub sig: Vec<usize>,
    /// Byte ranges attributed to test-only compilation.
    pub test_ranges: Vec<(usize, usize)>,
}

impl FileMap {
    /// Builds the map for one lexed file.
    pub fn build(src: &str, tokens: Vec<Token>) -> FileMap {
        let sig: Vec<usize> = tokens
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
        let test_ranges = find_test_ranges(src, &tokens, &sig);
        FileMap {
            tokens,
            sig,
            test_ranges,
        }
    }

    /// Is byte offset `pos` inside test-only code?
    pub fn in_test(&self, pos: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| pos >= s && pos < e)
    }
}

fn text<'s>(src: &'s str, t: &Token) -> &'s str {
    t.text(src)
}

/// Finds the matching `}` for the `{` at significant index `open`,
/// returning the significant index of the closer (or the last index).
fn match_brace(src: &str, tokens: &[Token], sig: &[usize], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, &ti) in sig.iter().enumerate().skip(open) {
        let t = &tokens[ti];
        if t.kind == TokenKind::Punct {
            match text(src, t) {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
    }
    sig.len().saturating_sub(1)
}

/// Walks an attribute starting at the `#` (significant index `k`),
/// returning `(one past the closing `]`, attribute idents)`.
fn parse_attribute(src: &str, tokens: &[Token], sig: &[usize], k: usize) -> (usize, Vec<String>) {
    let mut idents = Vec::new();
    let mut j = k + 1;
    // Optional `!` of inner attributes.
    if j < sig.len() && text(src, &tokens[sig[j]]) == "!" {
        j += 1;
    }
    if j >= sig.len() || text(src, &tokens[sig[j]]) != "[" {
        return (k + 1, idents);
    }
    let mut depth = 0usize;
    while j < sig.len() {
        let t = &tokens[sig[j]];
        match (t.kind, text(src, t)) {
            (TokenKind::Punct, "[") => depth += 1,
            (TokenKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, idents);
                }
            }
            (TokenKind::Ident, w) => idents.push(w.to_string()),
            _ => {}
        }
        j += 1;
    }
    (j, idents)
}

/// Byte ranges of test-only code: any item annotated `#[test]`,
/// `#[cfg(test)]` (possibly nested inside `any(…)`/`all(…)`), or a
/// `mod` whose name contains `test`.
fn find_test_ranges(src: &str, tokens: &[Token], sig: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < sig.len() {
        let t = &tokens[sig[k]];
        let w = text(src, t);
        if t.kind == TokenKind::Punct && w == "#" {
            let attr_start = t.start;
            let (mut next, idents) = parse_attribute(src, tokens, sig, k);
            // `not(…)` in a cfg means the item is *library* code in
            // test builds' complement — conservatively never exempt it.
            let is_test_attr = idents.first().map(String::as_str) == Some("test")
                || (idents.first().map(String::as_str) == Some("cfg")
                    && idents.iter().any(|i| i == "test")
                    && !idents.iter().any(|i| i == "not"));
            if !is_test_attr {
                k = next;
                continue;
            }
            // Skip further attributes on the same item.
            while next < sig.len() && text(src, &tokens[sig[next]]) == "#" {
                next = parse_attribute(src, tokens, sig, next).0;
            }
            // Find the item's body: first `{` outside parens/brackets
            // (a `;` first means a bodyless item — nothing to exempt).
            let mut depth = 0i64;
            let mut j = next;
            let mut found = None;
            while j < sig.len() {
                let u = &tokens[sig[j]];
                if u.kind == TokenKind::Punct {
                    match text(src, u) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => {
                            found = Some(j);
                            break;
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            if let Some(open) = found {
                let close = match_brace(src, tokens, sig, open);
                out.push((attr_start, tokens[sig[close]].end));
                k = close + 1;
            } else {
                k = j + 1;
            }
            continue;
        }
        // `mod <name-containing-test> {` without an explicit attribute.
        if t.kind == TokenKind::Ident && w == "mod" && k + 2 < sig.len() {
            let name = &tokens[sig[k + 1]];
            let brace = &tokens[sig[k + 2]];
            if name.kind == TokenKind::Ident
                && text(src, name).contains("test")
                && text(src, brace) == "{"
            {
                let close = match_brace(src, tokens, sig, k + 2);
                out.push((t.start, tokens[sig[close]].end));
                k = close + 1;
                continue;
            }
        }
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn map(src: &str) -> FileMap {
        FileMap::build(src, lex(src))
    }

    #[test]
    fn cfg_test_mod_is_a_test_range() {
        let src =
            "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let m = map(src);
        let lib_unwrap = src.find("x.unwrap").unwrap();
        let test_unwrap = src.find("y.unwrap").unwrap();
        assert!(!m.in_test(lib_unwrap));
        assert!(m.in_test(test_unwrap));
    }

    #[test]
    fn test_attr_on_fn_is_exempt() {
        let src = "#[test]\nfn check() { v[0]; }\nfn real() { v[0]; }";
        let m = map(src);
        assert!(m.in_test(src.find("check").unwrap()));
        assert!(!m.in_test(src.rfind("v[0]").unwrap()));
    }

    #[test]
    fn cfg_any_test_counts() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nmod helpers { fn h() {} }";
        let m = map(src);
        assert!(m.in_test(src.find("h()").unwrap()));
    }

    #[test]
    fn cfg_test_on_bodyless_item_is_harmless() {
        let src = "#[cfg(test)]\nuse crate::helper;\nfn lib() {}";
        let m = map(src);
        assert!(!m.in_test(src.find("lib").unwrap()));
    }
}
