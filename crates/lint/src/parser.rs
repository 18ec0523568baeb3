//! Item-level parsing on top of the total [lexer](crate::lexer).
//!
//! The interprocedural rules need more structure than the
//! [scanner](crate::scanner)'s test regions: *which fns exist, in which
//! module and impl block* (for call resolution), *what each fn body
//! calls* (for the workspace call graph), and *what each body acquires*
//! (for the lock-order analysis). This module recovers exactly that —
//! fn items with their module/impl context, call expressions, bare
//! function references (closure captures, `map(Self::f)`-style values),
//! loop sites, cancellation-poll evidence, and `Mutex`/`RwLock`/
//! `OnceLock` acquisition sites — with **no full expression grammar**:
//! everything is brace/paren matching over the significant tokens, so
//! the parser stays total on arbitrary input just like the lexer.
//!
//! Spans are byte-exact against the token stream: every recorded
//! offset is the `start`/`end` of some lexed token, a property pinned
//! by the `parser_props` proptest suite.

use crate::lexer::{lex, Token, TokenKind};
use crate::scanner::FileMap;

/// Rust keywords (incl. reserved) — idents that can never be call
/// targets or function references.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while", "yield",
];

/// One call expression inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments of the callee, e.g. `["budget", "check"]` for
    /// `budget::check(…)`; a single segment for `foo(…)` and for
    /// method calls.
    pub segments: Vec<String>,
    /// `.name(…)` method-call syntax?
    pub method: bool,
    /// Method call whose receiver is literally `self` (`self.f(…)`) —
    /// the one method-call shape whose impl is knowable without type
    /// inference.
    pub self_receiver: bool,
    /// 1-based line of the callee name.
    pub line: u32,
    /// Byte offset of the callee name token.
    pub offset: usize,
}

impl CallSite {
    /// The callee's final segment (its bare name).
    pub fn name(&self) -> &str {
        // An empty-segment CallSite is never constructed (see
        // `finish_call`), but stay total anyway.
        self.segments.last().map(String::as_str).unwrap_or("")
    }
}

/// What kind of synchronization primitive an acquisition touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `.lock()` on a `Mutex`.
    Mutex,
    /// `.read()` on an `RwLock`.
    RwRead,
    /// `.write()` on an `RwLock`.
    RwWrite,
    /// `.get_or_init(…)` on a `OnceLock` (the init closure runs under
    /// the cell's internal lock).
    OnceInit,
}

impl LockKind {
    /// The method name that performs this acquisition.
    pub fn method(self) -> &'static str {
        match self {
            LockKind::Mutex => "lock",
            LockKind::RwRead => "read",
            LockKind::RwWrite => "write",
            LockKind::OnceInit => "get_or_init",
        }
    }
}

/// One lock acquisition inside a fn body, with its lexically inferred
/// guard extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSite {
    /// The acquisition method.
    pub kind: LockKind,
    /// The receiver chain as written, e.g. `self.reduce_cache`, `POOL`.
    /// Locals assigned from a lock-bearing expression are resolved one
    /// step (`let pool = POOL.get_or_init(…); pool.lock()` reports
    /// `POOL`).
    pub receiver: String,
    /// The `let` binding holding the guard, if any.
    pub guard: Option<String>,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Byte offset of the acquisition method token.
    pub offset: usize,
    /// Byte offset one past the end of the guard's lexical extent: a
    /// bound guard lives to `drop(binding)` or its enclosing block's
    /// `}`; a temporary guard lives to the statement's `;` at the same
    /// brace depth (or the enclosing block's `}` for `if let`-style
    /// scrutinees, matching pre-2024 temporary lifetimes).
    pub extent_end: usize,
}

/// One `for`/`while`/`loop` keyword inside a fn body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopSite {
    /// 1-based line of the loop keyword.
    pub line: u32,
    /// Byte offset of the loop keyword.
    pub offset: usize,
}

/// One parsed fn item with its resolution context and body facts.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The fn's bare name.
    pub name: String,
    /// Enclosing inline `mod` names, outermost first (the file's own
    /// module path is prepended by the graph builder).
    pub modules: Vec<String>,
    /// The `impl` block's self type, when inside one (`impl Foo` and
    /// `impl Trait for Foo` both record `Foo`).
    pub impl_type: Option<String>,
    /// The implemented trait, for `impl Trait for Type` blocks.
    pub impl_trait: Option<String>,
    /// Unrestricted `pub` visibility (`pub(crate)`/`pub(super)` do not
    /// count — they are not part of the crate's public API).
    pub is_pub: bool,
    /// Does the signature mention `Budget` or `CancelToken`?
    pub takes_token: bool,
    /// Is the item inside test-only code?
    pub is_test: bool,
    /// Byte offset of the `fn` keyword.
    pub sig_start: usize,
    /// Byte offset of the body's `{`.
    pub body_start: usize,
    /// Byte offset one past the body's `}`.
    pub body_end: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing `}`.
    pub end_line: u32,
    /// Call expressions in the body (nested fns excluded — they answer
    /// for themselves; closure bodies included — their captures execute
    /// on behalf of this fn).
    pub calls: Vec<CallSite>,
    /// Bare identifier references in the body that are *not* calls —
    /// the conservative net for fns passed as values (`map(Self::f)`,
    /// closure captures of fn items). Only resolved against known fn
    /// names by the graph builder; unrelated idents are dropped there.
    /// Each ref is its path (`["Self", "f"]` for `Self::f`) and line.
    /// Field accesses (`x.f`), struct-literal field names (`f: …`) and
    /// the names the fn binds itself (parameters, `let`/`for`/closure/
    /// match-arm patterns) are never refs.
    pub refs: Vec<(Vec<String>, u32)>,
    /// Loop keywords in the body (nested fns excluded).
    pub loops: Vec<LoopSite>,
    /// Does the body show lexical cancellation-poll evidence?
    pub polls: bool,
    /// Lock acquisitions in the body (nested fns excluded).
    pub locks: Vec<LockSite>,
}

/// One parsed file: its fn items plus the token stream they index.
#[derive(Debug)]
pub struct ParsedFile {
    /// Every fn item with a body, in source order.
    pub fns: Vec<FnItem>,
    /// Lock-bearing type declarations seen in the file (`Mutex<…>`,
    /// `RwLock<…>`, `OnceLock<…>` fields/statics), as
    /// `(declared name, type ident, line)` — the lock-order rule's
    /// coverage universe.
    pub lock_decls: Vec<(String, String, u32)>,
    /// Non-test `struct`/`enum`/`trait` declarations, as `(name,
    /// unrestricted pub)` — what decides whether a trait impl's methods
    /// are nameable outside the crate.
    pub(crate) type_decls: Vec<(String, bool)>,
}

/// Identifier evidence that a body participates in cooperative
/// cancellation: it polls, charges, or threads a token/budget through.
pub fn is_poll_evidence(word: &str) -> bool {
    word == "check"
        || word == "check_partial"
        || word == "charge"
        || word == "budget"
        || word == "token"
        || word == "should_stop"
        || word.to_ascii_lowercase().contains("cancel")
}

/// Parses one file. `map` must be the [`FileMap`] built from the same
/// `src` (the parser reuses its tokens and test ranges).
pub fn parse(src: &str, map: &FileMap) -> ParsedFile {
    Parser {
        src,
        tokens: &map.tokens,
        sig: &map.sig,
        map,
    }
    .run()
}

/// Convenience: lex, scan, and parse `src` in one step.
pub fn parse_source(src: &str) -> ParsedFile {
    let map = FileMap::build(src, lex(src));
    parse(src, &map)
}

struct Parser<'s> {
    src: &'s str,
    tokens: &'s [Token],
    sig: &'s [usize],
    map: &'s FileMap,
}

/// One entry of the module/impl context stack.
#[derive(Debug, Clone)]
enum Scope {
    Module(String),
    Impl {
        self_type: Option<String>,
        trait_name: Option<String>,
    },
    /// A fn body: a fn nested in it is free, even inside an impl.
    FnBody,
    Other,
}

impl<'s> Parser<'s> {
    fn tok(&self, k: usize) -> &Token {
        &self.tokens[self.sig[k]]
    }

    fn text(&self, k: usize) -> &'s str {
        self.tok(k).text(self.src)
    }

    fn is_punct(&self, k: usize, p: &str) -> bool {
        k < self.sig.len() && self.tok(k).kind == TokenKind::Punct && self.text(k) == p
    }

    fn is_ident(&self, k: usize) -> bool {
        k < self.sig.len() && self.tok(k).kind == TokenKind::Ident
    }

    fn is_ident_text(&self, k: usize, w: &str) -> bool {
        self.is_ident(k) && self.text(k) == w
    }

    /// Significant index of the `}` matching the `{` at `open`
    /// (falls back to the last token on unbalanced input).
    fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for k in open..self.sig.len() {
            if self.tok(k).kind == TokenKind::Punct {
                match self.text(k) {
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
        self.sig.len().saturating_sub(1)
    }

    fn run(self) -> ParsedFile {
        let mut fns = Vec::new();
        let mut lock_decls = Vec::new();
        let mut type_decls = Vec::new();
        // Scope stack entries are (scope, closing sig index).
        let mut stack: Vec<(Scope, usize)> = Vec::new();
        let mut k = 0usize;
        while k < self.sig.len() {
            while let Some(&(_, close)) = stack.last() {
                if k > close {
                    stack.pop();
                } else {
                    break;
                }
            }
            let t = self.tok(k);
            let w = self.text(k);
            match (t.kind, w) {
                (TokenKind::Ident, "mod") if self.is_ident(k + 1) && self.is_punct(k + 2, "{") => {
                    let close = self.match_brace(k + 2);
                    stack.push((Scope::Module(self.text(k + 1).to_string()), close));
                    k += 3;
                }
                (TokenKind::Ident, "impl") => {
                    let (scope, next) = self.parse_impl_header(k);
                    match next {
                        Some(open) => {
                            let close = self.match_brace(open);
                            stack.push((scope, close));
                            k = open + 1;
                        }
                        None => k += 1,
                    }
                }
                (TokenKind::Ident, "fn")
                    if self.is_ident(k + 1) && !self.is_ident_text(k + 1, "fn") =>
                {
                    match self.parse_fn(k, &stack) {
                        Some((item, body_open)) => {
                            // Keep walking token by token: every `fn`
                            // position is considered independently,
                            // so on malformed input further items can
                            // start inside this one's signature, and
                            // nested fns inside the body are found by
                            // the same loop either way.
                            fns.push(item);
                            stack.push((Scope::FnBody, self.match_brace(body_open)));
                            k += 1;
                        }
                        None => k += 1,
                    }
                }
                (TokenKind::Ident, "struct" | "enum" | "trait")
                    if self.is_ident(k + 1) && !self.map.in_test(t.start) =>
                {
                    type_decls.push((self.text(k + 1).to_string(), self.visibility_before(k)));
                    k += 2;
                }
                (TokenKind::Ident, "Mutex" | "RwLock" | "OnceLock")
                    if self.is_punct(k + 1, "<") =>
                {
                    if let Some(name) = self.decl_name_before(k) {
                        lock_decls.push((name, w.to_string(), t.line));
                    }
                    k += 1;
                }
                _ => k += 1,
            }
        }
        ParsedFile {
            fns,
            lock_decls,
            type_decls,
        }
    }

    /// Walks back from a `Mutex<`/`RwLock<`/`OnceLock<` type token to
    /// the declared field/static/const name: `name: Mutex<…>` or
    /// `static NAME: … = …`. Returns `None` for uses in expression
    /// position (`Mutex::new` has no `<` and never reaches here) or
    /// inside generic soup we cannot attribute.
    fn decl_name_before(&self, k: usize) -> Option<String> {
        // Accept `name :` immediately before, or one wrapper level like
        // `name : Arc <` before the lock type.
        let mut j = k;
        for _ in 0..3 {
            if j >= 2 && self.is_punct(j - 1, ":") && self.is_ident(j - 2) {
                let name = self.text(j - 2);
                if KEYWORDS.contains(&name) {
                    return None;
                }
                return Some(name.to_string());
            }
            // Step over `Wrapper <` nesting.
            if j >= 2 && self.is_punct(j - 1, "<") && self.is_ident(j - 2) {
                j -= 2;
                continue;
            }
            break;
        }
        None
    }

    /// Parses an `impl` header starting at `k` (the `impl` keyword).
    /// Returns the scope and the `{` significant index, or `None` for
    /// headers that never open a body.
    fn parse_impl_header(&self, k: usize) -> (Scope, Option<usize>) {
        let mut idents: Vec<(usize, String)> = Vec::new();
        let mut for_at: Option<usize> = None;
        let mut angle = 0i64;
        let mut j = k + 1;
        while j < self.sig.len() {
            let t = self.tok(j);
            match (t.kind, self.text(j)) {
                (TokenKind::Punct, "<") => angle += 1,
                (TokenKind::Punct, ">") => angle -= 1,
                (TokenKind::Punct, "{") if angle <= 0 => {
                    let scope = Self::impl_scope(&idents, for_at);
                    return (scope, Some(j));
                }
                (TokenKind::Punct, ";") if angle <= 0 => break,
                (TokenKind::Ident, "for") if angle <= 0 => for_at = Some(j),
                (TokenKind::Ident, "where") if angle <= 0 => {
                    // Bounds follow; the type idents are all collected.
                    idents.push((j, "where".to_string()));
                }
                (TokenKind::Ident, w) if angle <= 0 => idents.push((j, w.to_string())),
                _ => {}
            }
            j += 1;
        }
        (Scope::Other, None)
    }

    /// Distills `impl [Trait for] Type` idents into a scope. The self
    /// type is the last path ident before the body (before any
    /// `where`); the trait is the last ident before `for`.
    fn impl_scope(idents: &[(usize, String)], for_at: Option<usize>) -> Scope {
        let before_where = |list: &[(usize, String)]| -> Vec<(usize, String)> {
            let mut out = Vec::new();
            for (i, w) in list {
                if w == "where" {
                    break;
                }
                out.push((*i, w.clone()));
            }
            out
        };
        let usable = before_where(idents);
        match for_at {
            Some(f) => {
                let trait_name = usable.iter().rfind(|(i, _)| *i < f).map(|(_, w)| w.clone());
                let self_type = usable.iter().rfind(|(i, _)| *i > f).map(|(_, w)| w.clone());
                Scope::Impl {
                    self_type,
                    trait_name,
                }
            }
            None => Scope::Impl {
                self_type: usable.last().map(|(_, w)| w.clone()),
                trait_name: None,
            },
        }
    }

    /// Parses the fn item whose `fn` keyword sits at significant index
    /// `k`. Returns the item and the body's `{` index, or `None` for
    /// bodyless declarations.
    fn parse_fn(&self, k: usize, stack: &[(Scope, usize)]) -> Option<(FnItem, usize)> {
        let name = self.text(k + 1).to_string();
        // Find the body `{` (or `;` for a declaration) at paren depth 0.
        let mut depth = 0i64;
        let mut j = k + 2;
        let mut open = None;
        while j < self.sig.len() {
            if self.tok(j).kind == TokenKind::Punct {
                match self.text(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        open = Some(j);
                        break;
                    }
                    ";" if depth == 0 => return None,
                    _ => {}
                }
            }
            j += 1;
        }
        let open = open?;
        let close = self.match_brace(open);
        let sig_start = self.tok(k).start;
        let body_start = self.tok(open).start;
        let body_end = self.tok(close).end;

        let is_pub = self.visibility_before(k);
        let takes_token = (k..open).any(|i| {
            self.tok(i).kind == TokenKind::Ident && matches!(self.text(i), "Budget" | "CancelToken")
        });

        let mut modules = Vec::new();
        let mut impl_type = None;
        let mut impl_trait = None;
        for (scope, _) in stack {
            match scope {
                Scope::Module(m) => modules.push(m.clone()),
                Scope::Impl {
                    self_type,
                    trait_name,
                } => {
                    impl_type = self_type.clone();
                    impl_trait = trait_name.clone();
                }
                Scope::FnBody => {
                    impl_type = None;
                    impl_trait = None;
                }
                Scope::Other => {}
            }
        }

        let body = self.scan_body(open, close, self.param_names(k + 2, open));
        Some((
            FnItem {
                name,
                modules,
                impl_type,
                impl_trait,
                is_pub,
                takes_token,
                is_test: self.map.in_test(sig_start),
                sig_start,
                body_start,
                body_end,
                line: self.tok(k).line,
                end_line: self.tok(close).line,
                calls: body.calls,
                refs: body.refs,
                loops: body.loops,
                polls: body.polls,
                locks: body.locks,
            },
            open,
        ))
    }

    /// Was the item at significant index `k` (its `fn`, `struct`,
    /// `enum` or `trait` keyword) declared unrestricted-`pub`? Scans
    /// back over the modifier run (`pub const unsafe extern "C" async
    /// fn`).
    fn visibility_before(&self, k: usize) -> bool {
        let mut j = k;
        while j > 0 {
            j -= 1;
            let t = self.tok(j);
            match (t.kind, self.text(j)) {
                (TokenKind::Ident, "const" | "unsafe" | "async" | "extern") => continue,
                (TokenKind::Str, _) => continue, // extern "C"
                (TokenKind::Ident, "pub") => {
                    // `pub(crate)` / `pub(super)` are restricted.
                    return !self.is_punct(j + 1, "(");
                }
                (TokenKind::Punct, ")") => {
                    // Walk back over a `(crate)` restriction to the
                    // `pub` that owns it, then classify there.
                    let mut depth = 1i64;
                    while j > 0 && depth > 0 {
                        j -= 1;
                        if self.is_punct(j, ")") {
                            depth += 1;
                        } else if self.is_punct(j, "(") {
                            depth -= 1;
                        }
                    }
                    continue;
                }
                _ => return false,
            }
        }
        false
    }

    /// The parameter names of the fn whose name ends before significant
    /// index `from` and whose body opens at `open`: the identifiers
    /// annotated with a single `:` at the parameter list's top level
    /// (generic parameters are skipped).
    fn param_names(&self, from: usize, open: usize) -> Vec<String> {
        let mut names = Vec::new();
        let mut angle = 0i64;
        let mut j = from;
        // Skip `<…>` generics; a `->` inside a bound is not a closer.
        while j < open {
            match self.text(j) {
                "<" if self.tok(j).kind == TokenKind::Punct => angle += 1,
                ">" if self.tok(j).kind == TokenKind::Punct && !self.is_punct(j - 1, "-") => {
                    angle -= 1
                }
                "(" if angle == 0 && self.tok(j).kind == TokenKind::Punct => break,
                _ => {}
            }
            j += 1;
        }
        let mut depth = 0i64;
        while j < open {
            if self.tok(j).kind == TokenKind::Punct {
                match self.text(j) {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ">" if !self.is_punct(j - 1, "-") => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
            } else if depth == 1
                && self.is_ident(j)
                && self.is_punct(j + 1, ":")
                && !self.is_punct(j + 2, ":")
            {
                names.push(self.text(j).to_string());
            }
            j += 1;
        }
        names
    }

    /// The first significant index in `[from, close)` holding one of
    /// `stops` outside any bracket (`close` if none does): the end of a
    /// pattern that starts at `from`.
    fn pattern_end(&self, from: usize, close: usize, stops: &[&str]) -> usize {
        let mut depth = 0i64;
        for j in from..close {
            let w = self.text(j);
            if depth == 0 && stops.contains(&w) && !(w == "=" && self.is_punct(j + 1, "=")) {
                return j;
            }
            if self.tok(j).kind == TokenKind::Punct {
                match w {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    _ => {}
                }
                if depth < 0 {
                    return j;
                }
            }
        }
        close
    }

    /// The first significant index of the match-arm pattern whose `=>`
    /// sits at `arrow`: just past the nearest `,`, `{`, `}` or `;`
    /// outside parentheses and brackets. A struct pattern's braces end
    /// the scan early, which only loses bindings.
    fn arm_start(&self, arrow: usize, open: usize) -> usize {
        let mut depth = 0i64;
        let mut j = arrow;
        while j > open + 1 {
            j -= 1;
            if self.tok(j).kind != TokenKind::Punct {
                continue;
            }
            match self.text(j) {
                ")" | "]" => depth += 1,
                "(" | "[" => depth -= 1,
                "," | "{" | "}" | ";" if depth <= 0 => return j + 1,
                _ => {}
            }
        }
        open + 1
    }

    /// The names a pattern in `[from, to)` binds: lowercase identifiers
    /// that are not keywords, paths, or the names of called tuple
    /// structs and macros.
    fn pattern_names(&self, from: usize, to: usize) -> Vec<String> {
        let path_at = |j: usize| self.is_punct(j, ":") && self.is_punct(j + 1, ":");
        let names_an_item = |j: usize| {
            ["(", "{", "!"].iter().any(|p| self.is_punct(j + 1, p))
                || path_at(j + 1)
                || (j >= 2 && path_at(j - 2))
        };
        (from..to)
            .filter(|&j| {
                let w = self.text(j);
                self.is_ident(j)
                    && w.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                    && !KEYWORDS.contains(&w)
                    && !names_an_item(j)
            })
            .map(|j| self.text(j).to_string())
            .collect()
    }

    /// Can the identifier at significant index `k` of a body not name a
    /// fn used as a value? True for a field access (`x.f`, but not the
    /// `..f` of a range), a struct-literal field name (`f: …`), and a
    /// name bound by the fn itself (`bindings`).
    fn never_a_ref(&self, k: usize, bindings: &[String]) -> bool {
        let field_access =
            k > 0 && self.is_punct(k - 1, ".") && !(k > 1 && self.is_punct(k - 2, "."));
        let field_name = self.is_punct(k + 1, ":") && !self.is_punct(k + 2, ":");
        field_access || field_name || bindings.iter().any(|b| b == self.text(k))
    }

    /// Scans one fn body `(open, close]` for calls, refs, loops, poll
    /// evidence, and lock sites, excluding nested fn bodies. `bindings`
    /// holds the fn's parameter names; its `let` bindings join them.
    fn scan_body(&self, open: usize, close: usize, mut bindings: Vec<String>) -> BodyFacts {
        let mut facts = BodyFacts::default();
        // Nested fn body ranges to exclude (each nested fn answers for
        // itself).
        let mut nested: Vec<(usize, usize)> = Vec::new();
        {
            let mut j = open + 1;
            while j < close {
                if self.tok(j).kind == TokenKind::Ident
                    && self.text(j) == "fn"
                    && self.is_ident(j + 1)
                {
                    // Find that fn's body and skip it.
                    let mut depth = 0i64;
                    let mut i = j + 2;
                    while i < close {
                        if self.tok(i).kind == TokenKind::Punct {
                            match self.text(i) {
                                "(" | "[" => depth += 1,
                                ")" | "]" => depth -= 1,
                                "{" if depth == 0 => {
                                    let c = self.match_brace(i);
                                    nested.push((i, c));
                                    j = c;
                                    break;
                                }
                                ";" if depth == 0 => {
                                    j = i;
                                    break;
                                }
                                _ => {}
                            }
                        }
                        i += 1;
                    }
                    if i >= close {
                        j = close;
                    }
                }
                j += 1;
            }
        }
        let in_nested = |k: usize| -> bool { nested.iter().any(|&(s, e)| k > s && k <= e) };

        // Names the body binds shadow any fn of that name: `let` and
        // `for` patterns, closure parameters, and match-arm patterns.
        for j in open + 1..close {
            if in_nested(j) {
                continue;
            }
            let pattern = if self.is_ident_text(j, "let") {
                Some((j + 1, self.pattern_end(j + 1, close, &["=", ";"])))
            } else if self.is_ident_text(j, "for") {
                Some((j + 1, self.pattern_end(j + 1, close, &["in"])))
            } else if self.is_punct(j, "|")
                && j > 0
                && (matches!(self.text(j - 1), "(" | "," | "=" | "{" | ";" | ":")
                    || self.is_ident_text(j - 1, "move")
                    || self.is_ident_text(j - 1, "return"))
            {
                Some((j + 1, self.pattern_end(j + 1, close, &["|"])))
            } else if self.is_punct(j, "=") && self.is_punct(j + 1, ">") {
                Some((self.arm_start(j, open), j))
            } else {
                None
            };
            if let Some((from, to)) = pattern {
                bindings.extend(self.pattern_names(from, to));
            }
        }

        // Single-assignment local aliases for lock receivers:
        // `let pool = POOL.get_or_init(…)` makes `pool` report `POOL`.
        let mut aliases: Vec<(String, String)> = Vec::new();

        let mut k = open + 1;
        while k < close {
            if in_nested(k) {
                k += 1;
                continue;
            }
            let t = self.tok(k);
            if t.kind != TokenKind::Ident {
                k += 1;
                continue;
            }
            let w = self.text(k);
            if matches!(w, "for" | "while" | "loop") {
                facts.loops.push(LoopSite {
                    line: t.line,
                    offset: t.start,
                });
                k += 1;
                continue;
            }
            if is_poll_evidence(w) {
                facts.polls = true;
            }
            if KEYWORDS.contains(&w) {
                // `let NAME = IDENT…` alias capture for lock receivers.
                if w == "let" && self.is_ident(k + 1) && self.is_punct(k + 2, "=") {
                    let name = self.text(k + 1);
                    if self.is_ident(k + 3) && !KEYWORDS.contains(&self.text(k + 3)) {
                        aliases.push((name.to_string(), self.text(k + 3).to_string()));
                    }
                }
                k += 1;
                continue;
            }

            // Lock acquisition: `.lock()`, `.read()`, `.write()`,
            // `.get_or_init(`.
            let lock_kind = match w {
                "lock" => Some(LockKind::Mutex),
                "read" => Some(LockKind::RwRead),
                "write" => Some(LockKind::RwWrite),
                "get_or_init" => Some(LockKind::OnceInit),
                _ => None,
            };
            if let (Some(kind), true, true) = (
                lock_kind,
                k > 0 && self.is_punct(k - 1, "."),
                self.is_punct(k + 1, "("),
            ) {
                let receiver = self.receiver_chain(k - 1, &aliases);
                // `get_or_init` returns a plain reference — its `let`
                // binding is not a guard; the cell's internal lock is
                // released at return, so the extent is the call's own
                // statement regardless of any binding.
                let force_temp = kind == LockKind::OnceInit;
                let (guard, extent_end) = self.guard_extent(k, close, force_temp);
                facts.locks.push(LockSite {
                    kind,
                    receiver,
                    guard,
                    line: t.line,
                    offset: t.start,
                    extent_end,
                });
                // `get_or_init` is also an ordinary method call; fall
                // through so the call graph sees it too.
            }

            // Call vs reference.
            let after_call = self.is_punct(k + 1, "(")
                || (self.is_punct(k + 1, ":")
                    && self.is_punct(k + 2, ":")
                    && self.is_punct(k + 3, "<")
                    && self.turbofish_call(k + 3));
            let is_macro = self.is_punct(k + 1, "!");
            let continues_path =
                self.is_punct(k + 1, ":") && self.is_punct(k + 2, ":") && self.is_ident(k + 3);
            if after_call {
                let method = k > 0 && self.is_punct(k - 1, ".");
                let segments = if method {
                    vec![w.to_string()]
                } else {
                    self.path_segments_ending_at(k)
                };
                // `self.f()`, but not `x.self…` chains like `a.b.f()`
                // where only the last hop before `.f` is inspected.
                let self_receiver = method
                    && k >= 2
                    && self.is_ident_text(k - 2, "self")
                    && !(k >= 3 && self.is_punct(k - 3, "."));
                facts.calls.push(CallSite {
                    segments,
                    method,
                    self_receiver,
                    line: t.line,
                    offset: t.start,
                });
            } else if !is_macro && !continues_path && !self.never_a_ref(k, &bindings) {
                facts.refs.push((self.path_segments_ending_at(k), t.line));
            }
            k += 1;
        }
        facts
    }

    /// Is the `<` at significant index `lt` a turbofish that closes
    /// into a call `(`?
    fn turbofish_call(&self, lt: usize) -> bool {
        let mut depth = 0i64;
        let mut j = lt;
        while j < self.sig.len() && j < lt + 64 {
            if self.tok(j).kind == TokenKind::Punct {
                match self.text(j) {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            return self.is_punct(j + 1, "(");
                        }
                    }
                    ";" | "{" => return false,
                    _ => {}
                }
            }
            j += 1;
        }
        false
    }

    /// The `a::b::name` path whose final segment sits at `k`.
    fn path_segments_ending_at(&self, k: usize) -> Vec<String> {
        let mut segments = vec![self.text(k).to_string()];
        let mut j = k;
        while j >= 3
            && self.is_punct(j - 1, ":")
            && self.is_punct(j - 2, ":")
            && self.is_ident(j - 3)
        {
            let seg = self.text(j - 3);
            segments.push(seg.to_string());
            j -= 3;
        }
        segments.reverse();
        segments
    }

    /// The receiver chain preceding the `.` at significant index `dot`:
    /// the longest run of `Ident(.Ident)*` / `Ident::Ident` ending
    /// there, with a one-step local-alias resolution. Unattributable
    /// receivers (`foo().lock()`) report `<expr>`.
    fn receiver_chain(&self, dot: usize, aliases: &[(String, String)]) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut j = dot;
        loop {
            if j >= 1 && self.is_ident(j - 1) {
                parts.push(self.text(j - 1).to_string());
                if j >= 3
                    && (self.is_punct(j - 2, ".")
                        || (self.is_punct(j - 2, ":") && self.is_punct(j - 3, ":")))
                {
                    j -= if self.is_punct(j - 2, ".") { 2 } else { 3 };
                    continue;
                }
            } else if parts.is_empty() {
                return "<expr>".to_string();
            }
            break;
        }
        parts.reverse();
        // Resolve a leading local alias one step.
        if let Some(first) = parts.first() {
            if let Some((_, root)) = aliases.iter().rev().find(|(n, _)| n == first) {
                parts[0] = root.clone();
            }
        }
        parts.join(".")
    }

    /// Infers the guard extent of the acquisition whose method token
    /// sits at `k` inside the body closing at `close`. Returns the
    /// `let` binding (if the statement is `let NAME = …`) and the byte
    /// offset one past the extent's end. `force_temp` treats the site
    /// as unbound even under a `let` (for acquisitions that do not
    /// return a guard).
    fn guard_extent(&self, k: usize, close: usize, force_temp: bool) -> (Option<String>, usize) {
        // Find the statement start: walk back to the previous `;`,
        // `{`, or `}` at depth 0 relative to k.
        let mut depth = 0i64;
        let mut j = k;
        let mut stmt_start = 0usize;
        while j > 0 {
            j -= 1;
            if self.tok(j).kind == TokenKind::Punct {
                match self.text(j) {
                    ")" | "]" | "}" if self.text(j) == "}" => {}
                    _ => {}
                }
                match self.text(j) {
                    ")" | "]" => depth += 1,
                    "(" | "[" => depth -= 1,
                    ";" | "{" | "}" if depth <= 0 => {
                        stmt_start = j + 1;
                        break;
                    }
                    _ => {}
                }
            }
        }
        let guard = if self.is_ident(stmt_start)
            && self.text(stmt_start) == "let"
            && self.is_ident(stmt_start + 1)
        {
            // `let mut NAME` or `let NAME`.
            let n = if self.text(stmt_start + 1) == "mut" && self.is_ident(stmt_start + 2) {
                self.text(stmt_start + 2)
            } else {
                self.text(stmt_start + 1)
            };
            Some(n.to_string())
        } else {
            None
        };
        let guard = if force_temp { None } else { guard };

        match &guard {
            Some(name) => {
                // Extent: to `drop(name)` after k, else to the end of
                // the enclosing block.
                let mut depth = 0i64;
                let mut j = k;
                while j < close {
                    j += 1;
                    if self.tok(j).kind == TokenKind::Punct {
                        match self.text(j) {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth < 0 {
                                    return (guard.clone(), self.tok(j).end);
                                }
                            }
                            _ => {}
                        }
                    } else if self.tok(j).kind == TokenKind::Ident
                        && self.text(j) == "drop"
                        && self.is_punct(j + 1, "(")
                        && self.is_ident(j + 2)
                        && self.text(j + 2) == name
                        && self.is_punct(j + 3, ")")
                    {
                        return (guard.clone(), self.tok(j + 3).end);
                    }
                }
                (guard, self.tok(close).end)
            }
            None => {
                // Temporary: to the first `;` at the same depth, or —
                // for `if let`/`match` scrutinees whose statement ends
                // in a block — to that block's `}` (pre-2024 temporary
                // lifetime: the guard lives for the whole statement,
                // and the statement ends with its last block, not at
                // the next statement's `;`). An `else` chains the
                // extent into the next block.
                let mut depth = 0i64;
                let mut j = k;
                while j < close {
                    j += 1;
                    if self.tok(j).kind != TokenKind::Punct {
                        continue;
                    }
                    match self.text(j) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => {
                            depth -= 1;
                            if depth < 0 {
                                return (None, self.tok(j).end);
                            }
                        }
                        "{" if depth == 0 => {
                            // Statement-ending block: skip it, chain
                            // through `else`, then stop.
                            let mut end = self.match_brace(j);
                            while end + 2 < self.sig.len()
                                && self.is_ident(end + 1)
                                && self.text(end + 1) == "else"
                            {
                                // `else {` or `else if … {`.
                                let mut i = end + 2;
                                let mut d = 0i64;
                                let mut found = None;
                                while i < self.sig.len() {
                                    if self.tok(i).kind == TokenKind::Punct {
                                        match self.text(i) {
                                            "(" | "[" => d += 1,
                                            ")" | "]" => d -= 1,
                                            "{" if d == 0 => {
                                                found = Some(i);
                                                break;
                                            }
                                            ";" if d == 0 => break,
                                            _ => {}
                                        }
                                    }
                                    i += 1;
                                }
                                match found {
                                    Some(open) => end = self.match_brace(open),
                                    None => break,
                                }
                            }
                            let end = end.min(close);
                            return (None, self.tok(end).end);
                        }
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth < 0 {
                                return (None, self.tok(j).end);
                            }
                        }
                        ";" if depth == 0 => return (None, self.tok(j).end),
                        _ => {}
                    }
                }
                (None, self.tok(close).end)
            }
        }
    }
}

#[derive(Debug, Default)]
struct BodyFacts {
    calls: Vec<CallSite>,
    refs: Vec<(Vec<String>, u32)>,
    loops: Vec<LoopSite>,
    polls: bool,
    locks: Vec<LockSite>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_context_and_visibility() {
        let src = "mod inner {\n  pub struct Foo;\n  impl Foo {\n    pub fn api(&self) {}\n    fn helper() {}\n    pub(crate) fn half() {}\n  }\n  impl std::fmt::Display for Foo {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n  }\n}\npub fn top() {}\n";
        let p = parse_source(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["api", "helper", "half", "fmt", "top"]);
        let api = &p.fns[0];
        assert_eq!(api.modules, ["inner"]);
        assert_eq!(api.impl_type.as_deref(), Some("Foo"));
        assert!(api.is_pub);
        assert!(!p.fns[1].is_pub);
        assert!(!p.fns[2].is_pub, "pub(crate) is restricted");
        let fmt = &p.fns[3];
        assert_eq!(fmt.impl_type.as_deref(), Some("Foo"));
        assert_eq!(fmt.impl_trait.as_deref(), Some("Display"));
        assert!(p.fns[4].impl_type.is_none());
        assert!(p.fns[4].is_pub);
        assert_eq!(p.type_decls, [("Foo".to_string(), true)]);
    }

    #[test]
    fn fns_nested_in_methods_are_free() {
        let src = "impl Foo {\n  fn method(&self) {\n    fn helper() {}\n    helper();\n  }\n  fn after(&self) {}\n}\n";
        let p = parse_source(src);
        let impls: Vec<(&str, Option<&str>)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref()))
            .collect();
        assert_eq!(
            impls,
            [
                ("method", Some("Foo")),
                ("helper", None),
                ("after", Some("Foo"))
            ]
        );
    }

    #[test]
    fn type_declarations_record_their_visibility() {
        let src = "#[derive(Debug)]\npub(crate) struct A;\npub enum B { X }\npub(super) trait C {}\nunsafe trait D {}\n#[cfg(test)]\nmod tests {\n  pub struct T;\n}\n";
        let p = parse_source(src);
        assert_eq!(
            p.type_decls,
            [
                ("A".to_string(), false),
                ("B".to_string(), true),
                ("C".to_string(), false),
                ("D".to_string(), false),
            ]
        );
    }

    #[test]
    fn fns_are_found_with_bodies() {
        let src = "impl X { fn a(&self) -> u8 { 1 } }\ntrait T { fn decl(&self); }\nfn top<F: Fn() -> [u8; 2]>(f: F) { loop {} }";
        let p = parse_source(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "top"]);
        let top = &p.fns[1];
        assert!(src[top.body_start..top.body_end].contains("loop"));
    }

    #[test]
    fn calls_refs_and_loops() {
        let src = "fn f(xs: &[u8]) {\n  helper(xs);\n  crate::m::other(1);\n  xs.iter().map(transform).count();\n  for x in xs { inner_work(*x); }\n  let g = compute;\n}\n";
        let p = parse_source(src);
        let f = &p.fns[0];
        let calls: Vec<(String, bool)> = f
            .calls
            .iter()
            .map(|c| (c.segments.join("::"), c.method))
            .collect();
        assert!(calls.contains(&("helper".to_string(), false)));
        assert!(calls.contains(&("crate::m::other".to_string(), false)));
        assert!(calls.contains(&("iter".to_string(), true)));
        assert!(calls.contains(&("inner_work".to_string(), false)));
        let refs: Vec<&str> = f
            .refs
            .iter()
            .filter_map(|(path, _)| path.last().map(String::as_str))
            .collect();
        assert!(refs.contains(&"transform"), "{refs:?}");
        assert!(refs.contains(&"compute"), "{refs:?}");
        assert_eq!(f.loops.len(), 1);
    }

    #[test]
    fn nested_fn_bodies_are_excluded() {
        let src = "fn outer() { fn inner() { loop { spin(); } } inner(); }";
        let p = parse_source(src);
        assert_eq!(p.fns.len(), 2);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.loops.is_empty());
        assert_eq!(inner.loops.len(), 1);
        assert!(outer.calls.iter().any(|c| c.name() == "inner"));
        assert!(inner.calls.iter().any(|c| c.name() == "spin"));
    }

    #[test]
    fn token_signature_detected() {
        let src = "fn a(token: &CancelToken) {}\nfn b(budget: Budget) {}\nfn c(x: u8) { let token = 1; }\n";
        let p = parse_source(src);
        assert!(p.fns[0].takes_token);
        assert!(p.fns[1].takes_token);
        assert!(!p.fns[2].takes_token);
    }

    #[test]
    fn lock_sites_with_guards_and_aliases() {
        let src = "struct C { rows: Mutex<u8>, data: RwLock<u8> }\nstatic POOL: OnceLock<Mutex<u8>> = OnceLock::new();\nimpl C {\n  fn f(&self) {\n    self.rows.lock().clear();\n    let mut g = self.data.write();\n    g.push(1);\n    drop(g);\n    let pool = POOL.get_or_init(init);\n    let guard = pool.lock();\n  }\n}\n";
        let p = parse_source(src);
        // Declarations cover every lock-bearing field/static.
        let decls: Vec<&str> = p.lock_decls.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(decls.contains(&"rows"), "{decls:?}");
        assert!(decls.contains(&"data"), "{decls:?}");
        assert!(decls.contains(&"POOL"), "{decls:?}");
        let f = &p.fns[0];
        assert_eq!(f.locks.len(), 4, "{:?}", f.locks);
        let temp = &f.locks[0];
        assert_eq!(temp.kind, LockKind::Mutex);
        assert_eq!(temp.receiver, "self.rows");
        assert!(temp.guard.is_none());
        // Temporary guard dies at its statement's `;`.
        assert!(src[..temp.extent_end].ends_with("clear();"));
        let bound = &f.locks[1];
        assert_eq!(bound.kind, LockKind::RwWrite);
        assert_eq!(bound.guard.as_deref(), Some("g"));
        assert!(src[..bound.extent_end].ends_with("drop(g)"));
        let once = &f.locks[2];
        assert_eq!(once.kind, LockKind::OnceInit);
        assert_eq!(once.receiver, "POOL");
        let aliased = &f.locks[3];
        assert_eq!(aliased.receiver, "POOL", "local alias resolves");
        assert_eq!(aliased.guard.as_deref(), Some("guard"));
    }

    #[test]
    fn poll_evidence_is_found() {
        let src = "fn hot(xs: &[u8], token: &CancelToken) { for x in xs { token.charge(1); } }";
        let p = parse_source(src);
        assert!(p.fns[0].polls);
    }

    #[test]
    fn total_on_garbage() {
        for src in [
            "fn",
            "fn (",
            "impl {",
            "mod m {",
            "fn f( {",
            "}}}{{{",
            "impl<T: ?Sized> X for",
        ] {
            let _ = parse_source(src); // must not panic
        }
    }
}
