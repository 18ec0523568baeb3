//! Property tests for the item parser: `parse` is total on arbitrary
//! input, finds *exactly* the fns a plain brace-matching reference
//! finds over the same significant tokens (same order, byte-exact spans
//! — no item dropped, none invented), and every fact it attributes to a
//! fn (calls, loops, locks) lies inside that fn's body span.

use cqshap_lint::lexer::{lex, Token, TokenKind};
use cqshap_lint::parser::{parse, parse_source};
use cqshap_lint::scanner::FileMap;
use proptest::prelude::*;

/// One fn the reference finder sees: name, `fn` keyword offset, body
/// `{` offset, one past the body's `}`, and the keyword's line.
#[derive(Debug)]
struct RefFn {
    name: String,
    sig_start: usize,
    body_start: usize,
    body_end: usize,
    line: u32,
}

/// The significant index of the `}` matching the `{` at `open` (or the
/// last index when unbalanced).
fn match_brace(src: &str, tokens: &[Token], sig: &[usize], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, &ti) in sig.iter().enumerate().skip(open) {
        let t = &tokens[ti];
        if t.kind == TokenKind::Punct {
            match t.text(src) {
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

/// Reference fn finder: every `fn <ident>` whose signature reaches a
/// depth-0 `{` before a depth-0 `;`, with the body closed by brace
/// matching. Trait-method declarations have no body and are skipped;
/// nested fns and fns in test modules are included.
fn reference_fns(src: &str, map: &FileMap) -> Vec<RefFn> {
    let (tokens, sig) = (&map.tokens, &map.sig);
    let mut out = Vec::new();
    for k in 0..sig.len() {
        let t = &tokens[sig[k]];
        if t.kind != TokenKind::Ident || t.text(src) != "fn" {
            continue;
        }
        // `fn` in `fn(...)` pointer/trait types has no name ident.
        let Some(&name_ti) = sig.get(k + 1) else {
            continue;
        };
        let name_tok = &tokens[name_ti];
        // `fn fn …` (garbage input): the second `fn` may open a real
        // item, so do not also claim it as this one's name.
        if name_tok.kind != TokenKind::Ident || name_tok.text(src) == "fn" {
            continue;
        }
        let mut depth = 0i64;
        let mut open = None;
        for (j, &ti) in sig.iter().enumerate().skip(k + 2) {
            let u = &tokens[ti];
            if u.kind != TokenKind::Punct {
                continue;
            }
            match u.text(src) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let close = match_brace(src, tokens, sig, open);
        out.push(RefFn {
            name: name_tok.text(src).to_string(),
            sig_start: t.start,
            body_start: tokens[sig[open]].start,
            body_end: tokens[sig[close]].end,
            line: t.line,
        });
    }
    out
}

/// Fragments bibliographically biased toward item structure: fn/impl/
/// mod headers, bodies, braces in strings and comments, lock types,
/// loops, and call/path syntax — the shapes the parser attributes.
const FRAGMENTS: &[&str] = &[
    "fn f() { ",
    "pub fn g(b: &Budget) -> u32 { ",
    "fn h(token: &CancelToken) { ",
    "impl Widget { ",
    "impl Display for Widget { ",
    "mod m { ",
    "#[cfg(test)]\nmod tests { ",
    "#[test]\nfn t() { ",
    "}",
    "} ",
    "{ ",
    ";",
    "loop { ",
    "for i in 0..9 { ",
    "while x { ",
    "self.a.lock();",
    "POOL.get_or_init(|| 0);",
    "cache.read();",
    "let g = m.lock();",
    "drop(g);",
    "a: Mutex<u8>,",
    "static P: OnceLock<u8> = OnceLock::new();",
    "budget::check(token)?;",
    "x.unwrap()",
    "helper(1, 2)",
    "path::to::thing()",
    "Widget::new()",
    "let fptr: fn(u8) -> u8 = id;",
    "// } fn fake() { \n",
    "/* fn also_fake() { */",
    "\"} fn in_string() {\"",
    "'{'",
    "r#\"raw } fn \"#",
    "fn",
    "fn (",
    "struct S;",
    "pub(crate) fn private_vis() { ",
    "match x { _ => {} }",
    "|c| c + 1",
    "Some(3)",
    "\n",
    " ",
];

fn arb_item_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..FRAGMENTS.len(), 0..60)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect::<String>())
}

fn arb_chars() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..80).prop_map(|codes| {
        codes
            .into_iter()
            .filter_map(|c| char::from_u32(c % 0x110000))
            .collect::<String>()
    })
}

/// The reference finder itself on a fixed string: a method and a
/// generic top-level fn are found with their bodies, a trait-method
/// declaration is not.
#[test]
fn reference_finds_fns_with_bodies() {
    let src = "impl X { fn a(&self) -> u8 { 1 } }\ntrait T { fn decl(&self); }\nfn top<F: Fn() -> [u8; 2]>(f: F) { loop {} }";
    let map = FileMap::build(src, lex(src));
    let fns = reference_fns(src, &map);
    let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["a", "top"]);
    assert!(src[fns[1].body_start..fns[1].body_end].contains("loop"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parser finds exactly the reference finder's fns: same count,
    /// same order, and byte-exact `sig_start`/`body_start`/`body_end`
    /// spans with matching names and lines. A dropped fn would hide its
    /// loops and panic sites from the graph rules.
    #[test]
    fn parser_items_pin_scanner_fns(src in arb_item_soup()) {
        let map = FileMap::build(&src, lex(&src));
        let parsed = parse(&src, &map);
        let expected = reference_fns(&src, &map);
        prop_assert_eq!(
            parsed.fns.len(),
            expected.len(),
            "item count diverged on {:?}",
            src
        );
        for (item, info) in parsed.fns.iter().zip(&expected) {
            prop_assert_eq!(&item.name, &info.name, "name diverged in {:?}", src);
            prop_assert_eq!(item.sig_start, info.sig_start, "sig_start in {:?}", src);
            prop_assert_eq!(item.body_start, info.body_start, "body_start in {:?}", src);
            prop_assert_eq!(item.body_end, info.body_end, "body_end in {:?}", src);
            prop_assert_eq!(item.line, info.line, "line in {:?}", src);
        }
    }


    /// Every fact a fn carries lies inside its own body span, and the
    /// body span sits inside the file: the graph never attributes a
    /// call, loop, or lock acquisition to the wrong item.
    #[test]
    fn fn_facts_stay_inside_their_body(src in arb_item_soup()) {
        let parsed = parse_source(&src);
        for f in &parsed.fns {
            prop_assert!(f.sig_start <= f.body_start && f.body_start < f.body_end);
            prop_assert!(f.body_end <= src.len());
            for c in &f.calls {
                prop_assert!(
                    c.offset > f.body_start && c.offset < f.body_end,
                    "call at {} escapes fn `{}` [{}, {}) in {:?}",
                    c.offset, f.name, f.body_start, f.body_end, src
                );
            }
            for l in &f.loops {
                prop_assert!(
                    l.offset > f.body_start && l.offset < f.body_end,
                    "loop at {} escapes fn `{}` in {:?}",
                    l.offset, f.name, src
                );
            }
            for s in &f.locks {
                prop_assert!(
                    s.offset > f.body_start && s.offset < f.body_end,
                    "lock site at {} escapes fn `{}` in {:?}",
                    s.offset, f.name, src
                );
                prop_assert!(
                    s.extent_end > s.offset && s.extent_end <= f.body_end,
                    "guard extent [{}, {}) escapes fn `{}` in {:?}",
                    s.offset, s.extent_end, f.name, src
                );
            }
        }
    }

    /// Totality: like the lexer and scanner beneath it, the parser must
    /// accept completely arbitrary text without panicking.
    #[test]
    fn parser_is_total_on_arbitrary_text(src in arb_chars()) {
        let _ = parse_source(&src);
    }
}
