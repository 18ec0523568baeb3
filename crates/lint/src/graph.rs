//! The workspace call graph.
//!
//! Built from every file's [parsed](crate::parser) fn items, the graph
//! carries the three interprocedural facts the
//! [graph rules](crate::graph_rules) consume: *reachability* from a
//! root set (with parent tracking, so `--explain` can print the
//! entry-point → … → site path), *backward closures* (does this fn
//! transitively poll cancellation? which locks does a call into it
//! acquire? does it reach a thread fan-out?), and the *lock-site
//! table* with normalized lock identities.
//!
//! Resolution is name-based and deliberately **over-approximate**:
//! a call edge goes to every plausible target, and bare identifiers
//! matching known fn names become `Ref` edges (fns passed as values,
//! closure captures). Over-approximation is the sound direction for
//! every rule here — it can only make *more* code reachable, never
//! hide a reachable panic or loop.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::parser::{FnItem, LockKind, ParsedFile};

/// How a call edge was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// A call expression (`f(…)`, `a::b::f(…)`, `.f(…)`).
    Call,
    /// A bare identifier matching a known fn name — a function used as
    /// a value (`map(transform)`, closure captures).
    Ref,
}

/// One resolved edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Caller fn index.
    pub from: usize,
    /// Callee fn index.
    pub to: usize,
    /// Call or reference.
    pub kind: EdgeKind,
    /// 1-based line of the call/reference in the caller's file.
    pub line: u32,
    /// Byte offset of the callee name token in the caller's file.
    pub offset: usize,
    /// True when resolution was ambiguous (a `.method()` or
    /// workspace-fallback name matched several candidates and this is
    /// one of them). Approximate edges keep reachability sound for the
    /// panic/cancellation rules but are excluded where a false edge
    /// would *create* findings (lock-order's fan-out reach).
    pub approx: bool,
}

/// One fn node with its file context.
#[derive(Debug)]
pub struct GraphFn {
    /// Workspace-relative file path.
    pub file: String,
    /// Short crate name (`core`, `numeric`, …; `""` for the root
    /// package).
    pub krate: String,
    /// Is the file a binary target?
    pub is_binary: bool,
    /// The parsed item.
    pub item: FnItem,
    /// Display name `crate::module::Type::fn` for reports and DOT.
    pub qualname: String,
}

/// One normalized lock acquisition site.
#[derive(Debug, Clone)]
pub struct GraphLockSite {
    /// Index of the acquiring fn.
    pub fn_id: usize,
    /// Index into [`Graph::lock_ids`].
    pub lock: usize,
    /// The acquisition method kind.
    pub kind: LockKind,
    /// 1-based line.
    pub line: u32,
    /// Byte offset of the acquisition.
    pub offset: usize,
    /// Byte offset one past the guard's lexical extent.
    pub extent_end: usize,
    /// The `let` binding holding the guard, if any.
    pub guard: Option<String>,
}

/// One lock-bearing declaration (`Mutex`/`RwLock`/`OnceLock` field or
/// static) — the lock-order rule's coverage universe.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Workspace-relative file path.
    pub file: String,
    /// Declared field/static name.
    pub name: String,
    /// The lock type ident (`Mutex`, `RwLock`, `OnceLock`).
    pub lock_type: String,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// One input file for [`Graph::build`].
pub struct GraphInput {
    /// Workspace-relative path.
    pub rel: String,
    /// Short crate name.
    pub krate: String,
    /// Binary target?
    pub is_binary: bool,
    /// The parsed items.
    pub parsed: ParsedFile,
}

/// Which crates each crate may call into: its dependency closure, read
/// from the manifests' path dependencies, itself included. A crate with
/// no entry may call into every crate (in-memory fixture workspaces
/// carry no manifests).
#[derive(Debug, Clone, Default)]
pub struct CrateDeps {
    closure: BTreeMap<String, BTreeSet<String>>,
}

impl CrateDeps {
    /// The transitive closure of `direct` (short crate name → the short
    /// names of its first-party dependencies).
    pub fn from_direct(direct: &BTreeMap<String, BTreeSet<String>>) -> CrateDeps {
        let closure = direct
            .keys()
            .map(|krate| {
                let mut seen = BTreeSet::from([krate.clone()]);
                let mut stack = vec![krate.as_str()];
                while let Some(k) = stack.pop() {
                    for dep in direct.get(k).into_iter().flatten() {
                        if seen.insert(dep.clone()) {
                            stack.push(dep);
                        }
                    }
                }
                (krate.clone(), seen)
            })
            .collect();
        CrateDeps { closure }
    }

    /// May code in crate `caller` call into crate `callee`?
    pub fn allows(&self, caller: &str, callee: &str) -> bool {
        caller == callee
            || self
                .closure
                .get(caller)
                .is_none_or(|deps| deps.contains(callee))
    }
}

/// The workspace call graph.
pub struct Graph {
    /// Every fn in the workspace, in file order.
    pub fns: Vec<GraphFn>,
    /// Every resolved edge.
    pub edges: Vec<Edge>,
    /// Outgoing edge indices per fn.
    pub out: Vec<Vec<usize>>,
    /// Incoming edge indices per fn.
    pub inc: Vec<Vec<usize>>,
    /// Normalized lock identities (`Type.field`, `STATIC`), sorted
    /// insertion order.
    pub lock_ids: Vec<String>,
    /// Every lock acquisition site.
    pub lock_sites: Vec<GraphLockSite>,
    /// Every lock-bearing declaration.
    pub lock_decls: Vec<LockDecl>,
    /// `(crate, type name)` → is some non-test `struct`/`enum`/`trait`
    /// of that name in the crate unrestricted `pub`?
    type_vis: HashMap<(String, String), bool>,
}

/// Parent pointers from a [`Graph::reach`] traversal: for each fn,
/// `None` = unreachable, `Some(None)` = a root, `Some(Some(e))` =
/// first reached via edge `e`.
pub type Parents = Vec<Option<Option<usize>>>;

impl Graph {
    /// Builds the graph from parsed files. A call or reference only
    /// resolves to fns of crates in the caller crate's dependency
    /// closure (`deps`). A bare name resolves only to free fns, in the
    /// order same file+module → same crate → whole workspace (first
    /// non-empty tier wins); qualified paths filter by the qualifying
    /// segment (impl type, module, or crate).
    pub fn build(inputs: Vec<GraphInput>, deps: &CrateDeps) -> Graph {
        let mut fns = Vec::new();
        let mut rwlock_names: BTreeSet<String> = BTreeSet::new();
        let mut lock_decls = Vec::new();
        let mut type_vis: HashMap<(String, String), bool> = HashMap::new();
        for input in inputs {
            for (name, is_pub) in &input.parsed.type_decls {
                *type_vis
                    .entry((input.krate.clone(), name.clone()))
                    .or_default() |= is_pub;
            }
            for (name, lock_type, line) in &input.parsed.lock_decls {
                if lock_type == "RwLock" {
                    rwlock_names.insert(name.clone());
                }
                lock_decls.push(LockDecl {
                    file: input.rel.clone(),
                    name: name.clone(),
                    lock_type: lock_type.clone(),
                    line: *line,
                });
            }
            for item in input.parsed.fns {
                let qualname = qualname(&input.krate, &input.rel, &item);
                fns.push(GraphFn {
                    file: input.rel.clone(),
                    krate: input.krate.clone(),
                    is_binary: input.is_binary,
                    item,
                    qualname,
                });
            }
        }

        // Name index over all fns.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.item.name.as_str()).or_default().push(i);
        }

        let mut edges: Vec<Edge> = Vec::new();
        for (i, f) in fns.iter().enumerate() {
            for call in &f.item.calls {
                let (targets, ambiguous) = resolve_call(&fns, &by_name, deps, i, call);
                for t in targets {
                    edges.push(Edge {
                        from: i,
                        to: t,
                        kind: EdgeKind::Call,
                        line: call.line,
                        offset: call.offset,
                        approx: ambiguous,
                    });
                }
            }
            for (path, line) in &f.item.refs {
                // A qualified ref (`Type::f`) resolves like a call on the
                // same path; a bare one keeps every fn of its name.
                let targets = match path.as_slice() {
                    [name] => by_name
                        .get(name.as_str())
                        .into_iter()
                        .flatten()
                        .copied()
                        .filter(|&t| deps.allows(&f.krate, &fns[t].krate))
                        .collect(),
                    _ => {
                        let site = crate::parser::CallSite {
                            segments: path.clone(),
                            method: false,
                            self_receiver: false,
                            line: *line,
                            offset: 0,
                        };
                        resolve_call(&fns, &by_name, deps, i, &site).0
                    }
                };
                for t in targets {
                    edges.push(Edge {
                        from: i,
                        to: t,
                        kind: EdgeKind::Ref,
                        line: *line,
                        // Refs carry no per-site offset the rules
                        // need; reuse the line for determinism.
                        offset: 0,
                        approx: true,
                    });
                }
            }
        }
        // Dedup parallel edges. Call edges keep one entry *per site*
        // (the lock-order rule asks whether a call lies inside a guard
        // extent, so distinct offsets must survive); ref edges collapse
        // to one per (from, to) pair.
        let mut seen: BTreeSet<(usize, usize, bool, usize)> = BTreeSet::new();
        edges.retain(|e| {
            let site = if e.kind == EdgeKind::Call {
                e.offset
            } else {
                0
            };
            seen.insert((e.from, e.to, e.kind == EdgeKind::Ref, site))
        });

        let mut out = vec![Vec::new(); fns.len()];
        let mut inc = vec![Vec::new(); fns.len()];
        for (k, e) in edges.iter().enumerate() {
            out[e.from].push(k);
            inc[e.to].push(k);
        }

        // Lock sites with normalized identities. `.read()`/`.write()`
        // are only lock acquisitions when the receiver's last component
        // names a declared RwLock — otherwise they are io/accessor
        // methods and are skipped.
        let mut lock_ids: Vec<String> = Vec::new();
        let mut id_index: HashMap<String, usize> = HashMap::new();
        let mut lock_sites = Vec::new();
        for (i, f) in fns.iter().enumerate() {
            for site in &f.item.locks {
                if matches!(site.kind, LockKind::RwRead | LockKind::RwWrite) {
                    let last = site.receiver.rsplit('.').next().unwrap_or("");
                    if !rwlock_names.contains(last) {
                        continue;
                    }
                }
                let norm = normalize_lock(&site.receiver, f, site.line);
                let lock = *id_index.entry(norm.clone()).or_insert_with(|| {
                    lock_ids.push(norm);
                    lock_ids.len() - 1
                });
                lock_sites.push(GraphLockSite {
                    fn_id: i,
                    lock,
                    kind: site.kind,
                    line: site.line,
                    offset: site.offset,
                    extent_end: site.extent_end,
                    guard: site.guard.clone(),
                });
            }
        }

        Graph {
            fns,
            edges,
            out,
            inc,
            lock_ids,
            lock_sites,
            lock_decls,
            type_vis,
        }
    }

    /// Can callers outside its crate name fn `i`? A `pub` fn can be
    /// named, and so can a trait-impl method unless its self type is
    /// declared in the crate and never `pub` there. A self type the
    /// crate does not declare (a foreign type, `Vec<T>`) keeps the
    /// method nameable, so the answer errs toward more roots.
    pub(crate) fn is_api(&self, i: usize) -> bool {
        let f = &self.fns[i];
        let self_type_nameable = || {
            f.item.impl_type.as_ref().is_none_or(|t| {
                self.type_vis
                    .get(&(f.krate.clone(), t.clone()))
                    .copied()
                    .unwrap_or(true)
            })
        };
        f.item.is_pub || (f.item.impl_trait.is_some() && self_type_nameable())
    }

    /// Forward reachability from `roots` over both edge kinds, with
    /// parent pointers for path reconstruction.
    pub fn reach(&self, roots: &[usize]) -> Parents {
        let mut parents: Parents = vec![None; self.fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if parents[r].is_none() {
                parents[r] = Some(None);
                queue.push(r);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &ek in &self.out[u] {
                let v = self.edges[ek].to;
                if parents[v].is_none() {
                    parents[v] = Some(Some(ek));
                    queue.push(v);
                }
            }
        }
        parents
    }

    /// The root → … → `target` fn-index path from a [`Graph::reach`]
    /// traversal (empty when `target` is unreachable).
    pub fn path_to(&self, parents: &Parents, target: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut cur = target;
        loop {
            match parents.get(cur).and_then(|p| *p) {
                None => return Vec::new(),
                Some(None) => {
                    path.push(cur);
                    break;
                }
                Some(Some(ek)) => {
                    path.push(cur);
                    cur = self.edges[ek].from;
                }
            }
        }
        path.reverse();
        path
    }

    /// Backward closure of a boolean property: `out[f]` is true when
    /// `init[f]` is, or when any fn `f` has an edge *to* satisfies it
    /// (i.e. "f transitively calls a fn with the property").
    pub fn closure_or(&self, init: &[bool]) -> Vec<bool> {
        self.closure_or_impl(init, false)
    }

    /// [`closure_or`](Graph::closure_or) restricted to *precise* `Call`
    /// edges. `Ref` edges record fns whose values escape (callbacks, fn
    /// pointers) and approximate edges are multi-candidate guesses; for
    /// questions about what definitely executes on this thread's stack
    /// — "does this call fan out into threads?" — following either
    /// would poison nearly the whole graph.
    pub fn closure_or_calls(&self, init: &[bool]) -> Vec<bool> {
        self.closure_or_impl(init, true)
    }

    fn closure_or_impl(&self, init: &[bool], precise_calls_only: bool) -> Vec<bool> {
        let mut val = init.to_vec();
        let mut queue: Vec<usize> = (0..val.len()).filter(|&i| val[i]).collect();
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &ek in &self.inc[v] {
                let e = &self.edges[ek];
                if precise_calls_only && (e.kind != EdgeKind::Call || e.approx) {
                    continue;
                }
                let u = e.from;
                if !val[u] {
                    val[u] = true;
                    queue.push(u);
                }
            }
        }
        val
    }

    /// Backward closure of lock sets: which locks can a call into each
    /// fn transitively acquire? Follows only precise `Call` edges — an
    /// order edge inferred through a guessed callee would put fabricated
    /// cycles in the global-order report, the one artifact that must
    /// stay trustworthy.
    pub fn lock_closure(&self) -> Vec<BTreeSet<usize>> {
        let mut val: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); self.fns.len()];
        for site in &self.lock_sites {
            val[site.fn_id].insert(site.lock);
        }
        // Worklist fixpoint over reverse edges.
        let mut queue: Vec<usize> = (0..val.len()).filter(|&i| !val[i].is_empty()).collect();
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            let add = val[v].clone();
            for &ek in &self.inc[v] {
                let e = &self.edges[ek];
                if e.kind != EdgeKind::Call || e.approx {
                    continue;
                }
                let u = e.from;
                let before = val[u].len();
                val[u].extend(add.iter().copied());
                if val[u].len() != before {
                    queue.push(u);
                }
            }
        }
        val
    }

    /// Fns that *are* thread fan-out primitives: their own body calls
    /// `thread::scope` / `spawn` / `Builder::spawn`.
    pub fn fanout_primitives(&self) -> Vec<bool> {
        self.fns
            .iter()
            .map(|f| {
                f.item.calls.iter().any(|c| {
                    let n = c.name();
                    (n == "scope" && c.segments.iter().any(|s| s == "thread"))
                        || n == "spawn"
                        || n == "spawn_scoped"
                })
            })
            .collect()
    }

    /// The fn indices whose spans contain `line` in `file`, innermost
    /// first (nested fns before their parents).
    pub fn enclosing_fns(&self, file: &str, line: u32) -> Vec<usize> {
        let mut hits: Vec<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.item.line <= line && line <= f.item.end_line)
            .map(|(i, _)| i)
            .collect();
        // Innermost = latest start line (ties: shortest span).
        hits.sort_by_key(|&i| {
            (
                std::cmp::Reverse(self.fns[i].item.line),
                self.fns[i].item.end_line - self.fns[i].item.line,
            )
        });
        hits
    }

    /// `GRAPH_report.json`: nodes, edges, lock table, and the sections
    /// the graph rules attach (hand-rolled JSON — the workspace has no
    /// serde).
    pub fn to_json(&self, extra_sections: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str(&format!(
            "  \"fn_count\": {},\n  \"edge_count\": {},\n",
            self.fns.len(),
            self.edges.len()
        ));
        out.push_str("  \"fns\": [");
        for (i, f) in self.fns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\": {i}, \"name\": {}, \"file\": {}, \"line\": {}, \"pub\": {}, \"takes_token\": {}, \"test\": {}, \"loops\": {}, \"polls\": {}}}",
                crate::report::json_str(&f.qualname),
                crate::report::json_str(&f.file),
                f.item.line,
                f.item.is_pub,
                f.item.takes_token,
                f.item.is_test,
                f.item.loops.len(),
                f.item.polls,
            ));
        }
        out.push_str(if self.fns.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"edges\": [");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"from\": {}, \"to\": {}, \"kind\": \"{}\", \"line\": {}, \"approx\": {}}}",
                e.from,
                e.to,
                match e.kind {
                    EdgeKind::Call => "call",
                    EdgeKind::Ref => "ref",
                },
                e.line,
                e.approx
            ));
        }
        out.push_str(if self.edges.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"locks\": {\n    \"declarations\": [");
        for (i, d) in self.lock_decls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {{\"name\": {}, \"type\": {}, \"file\": {}, \"line\": {}}}",
                crate::report::json_str(&d.name),
                crate::report::json_str(&d.lock_type),
                crate::report::json_str(&d.file),
                d.line
            ));
        }
        out.push_str(if self.lock_decls.is_empty() {
            "],\n"
        } else {
            "\n    ],\n"
        });
        out.push_str("    \"sites\": [");
        for (i, s) in self.lock_sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {{\"lock\": {}, \"method\": \"{}\", \"fn\": {}, \"file\": {}, \"line\": {}, \"bound\": {}}}",
                crate::report::json_str(&self.lock_ids[s.lock]),
                s.kind.method(),
                crate::report::json_str(&self.fns[s.fn_id].qualname),
                crate::report::json_str(&self.fns[s.fn_id].file),
                s.line,
                s.guard.is_some()
            ));
        }
        out.push_str(if self.lock_sites.is_empty() {
            "]\n  }"
        } else {
            "\n    ]\n  }"
        });
        for (key, body) in extra_sections {
            out.push_str(&format!(",\n  \"{key}\": {body}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// GraphViz DOT rendering: one node per fn (clustered by crate),
    /// call edges solid, ref edges dashed. Test fns are omitted to keep
    /// the artifact readable.
    pub fn to_dot(&self) -> String {
        let mut out =
            String::from("digraph cqshap {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
        let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            if !f.item.is_test {
                by_crate.entry(f.krate.as_str()).or_default().push(i);
            }
        }
        for (krate, ids) in &by_crate {
            let label = if krate.is_empty() { "cqshap" } else { krate };
            out.push_str(&format!(
                "  subgraph \"cluster_{label}\" {{\n    label=\"{label}\";\n"
            ));
            for &i in ids {
                let f = &self.fns[i];
                let style = if f.item.is_pub {
                    ", style=bold"
                } else if f.item.takes_token {
                    ", color=blue"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "    n{i} [label=\"{}\"{style}];\n",
                    dot_escape(&f.qualname)
                ));
            }
            out.push_str("  }\n");
        }
        for e in &self.edges {
            if self.fns[e.from].item.is_test || self.fns[e.to].item.is_test {
                continue;
            }
            let style = match e.kind {
                EdgeKind::Call => "",
                EdgeKind::Ref => " [style=dashed]",
            };
            out.push_str(&format!("  n{} -> n{}{style};\n", e.from, e.to));
        }
        out.push_str("}\n");
        out
    }
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// `crate::module::Type::fn` display name.
fn qualname(krate: &str, rel: &str, item: &FnItem) -> String {
    let mut parts: Vec<String> = Vec::new();
    parts.push(if krate.is_empty() {
        "cqshap".to_string()
    } else {
        krate.to_string()
    });
    parts.extend(file_modules(rel));
    parts.extend(item.modules.iter().cloned());
    if let Some(t) = &item.impl_type {
        parts.push(t.clone());
    }
    parts.push(item.name.clone());
    parts.join("::")
}

/// Module path segments a file contributes (`crates/core/src/a/b.rs`
/// → `[a, b]`; `lib.rs`/`main.rs`/`mod.rs` contribute their directory
/// only).
fn file_modules(rel: &str) -> Vec<String> {
    let Some(idx) = rel.find("src/") else {
        return Vec::new();
    };
    let tail = &rel[idx + 4..];
    let mut parts: Vec<String> = tail.split('/').map(|s| s.to_string()).collect();
    let Some(last) = parts.pop() else {
        return Vec::new();
    };
    let stem = last.trim_end_matches(".rs");
    if !matches!(stem, "lib" | "main" | "mod") {
        parts.push(stem.to_string());
    }
    // `src/bin/x.rs` binaries are their own roots.
    if parts.first().is_some_and(|p| p == "bin") {
        parts.remove(0);
    }
    parts
}

/// Resolves one call site to candidate fn indices.
fn resolve_call(
    fns: &[GraphFn],
    by_name: &HashMap<&str, Vec<usize>>,
    deps: &CrateDeps,
    caller: usize,
    call: &crate::parser::CallSite,
) -> (Vec<usize>, bool) {
    let segments = &call.segments;
    let Some(name) = segments.last() else {
        return (Vec::new(), false);
    };
    let Some(all) = by_name.get(name.as_str()) else {
        return (Vec::new(), false);
    };
    let cf = &fns[caller];
    // Library code cannot call `#[cfg(test)]` fns; only keep test
    // candidates when the caller is itself test code. No code calls
    // into a crate outside its dependency closure.
    let cands: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&t| cf.item.is_test || !fns[t].item.is_test)
        .filter(|&t| deps.allows(&cf.krate, &fns[t].krate))
        .collect();
    // A multi-candidate resolution is a guess: each edge is possible,
    // none is certain.
    let tag = |v: Vec<usize>| {
        let ambiguous = v.len() > 1;
        (v, ambiguous)
    };
    if call.method {
        // `self.f(…)`: the receiver's impl is the caller's own — a
        // same-impl match is as certain as a bare-name call.
        if call.self_receiver && cf.item.impl_type.is_some() {
            let same_impl: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&t| fns[t].item.impl_type == cf.item.impl_type && fns[t].krate == cf.krate)
                .collect();
            if !same_impl.is_empty() {
                return tag(same_impl);
            }
        }
        // Any other `.f(…)`: the receiver's type is unknown and the
        // callee may well live in std (iterator adapters, collection
        // methods). Every candidate edge is a guess — keep them for
        // reachability, but always approximate, even a lone candidate
        // (`.enumerate()` must not pin the one workspace fn named
        // `enumerate`).
        let impls: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&t| fns[t].item.impl_type.is_some())
            .collect();
        let guessed = if impls.is_empty() { cands } else { impls };
        return (guessed, true);
    }
    if segments.len() == 1 {
        // Bare name: Rust calls no method or associated fn by its bare
        // name, so only free fns are candidates. Same file+module →
        // same crate → workspace.
        let free: Vec<usize> = cands
            .into_iter()
            .filter(|&t| fns[t].item.impl_type.is_none())
            .collect();
        let same_module: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&t| fns[t].file == cf.file && fns[t].item.modules == cf.item.modules)
            .collect();
        if !same_module.is_empty() {
            return tag(same_module);
        }
        let same_crate: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&t| fns[t].krate == cf.krate)
            .collect();
        if !same_crate.is_empty() {
            return tag(same_crate);
        }
        return tag(free);
    }
    // Qualified: filter by the segment before the name.
    let qual = &segments[segments.len() - 2];
    let filtered: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&t| {
            let tf = &fns[t];
            match qual.as_str() {
                "Self" => tf.item.impl_type == cf.item.impl_type && tf.krate == cf.krate,
                "self" | "crate" | "super" => tf.krate == cf.krate,
                q => {
                    tf.item.impl_type.as_deref() == Some(q)
                        || tf.item.modules.last().is_some_and(|m| m == q)
                        || file_modules(&tf.file).last().is_some_and(|m| m == q)
                        || crate_matches(q, &tf.krate)
                }
            }
        })
        .collect();
    tag(filtered)
}

/// Does path qualifier `q` name crate `krate` (`cqshap_core` /
/// `cqshap-core` / `core` all match `core`)?
fn crate_matches(q: &str, krate: &str) -> bool {
    if krate.is_empty() {
        return q == "cqshap";
    }
    q == krate
        || q.strip_prefix("cqshap_").is_some_and(|r| r == krate)
        || q.strip_prefix("cqshap-").is_some_and(|r| r == krate)
}

/// Normalizes a lock receiver to a stable identity: `self.field` →
/// `Type.field` (via the acquiring fn's impl type), statics keep their
/// name, and unattributable `<expr>` receivers get a per-site id.
fn normalize_lock(receiver: &str, f: &GraphFn, line: u32) -> String {
    if receiver == "<expr>" {
        return format!("{}:{}:<expr>", f.file, line);
    }
    if let Some(rest) = receiver.strip_prefix("self.") {
        let ty = f.item.impl_type.as_deref().unwrap_or("Self");
        return format!("{ty}.{rest}");
    }
    receiver.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::scanner::FileMap;

    fn input(rel: &str, krate: &str, src: &str) -> GraphInput {
        let map = FileMap::build(src, lex(src));
        GraphInput {
            rel: rel.to_string(),
            krate: krate.to_string(),
            is_binary: false,
            parsed: parse(src, &map),
        }
    }

    fn build(files: &[(&str, &str, &str)]) -> Graph {
        Graph::build(
            files
                .iter()
                .map(|(rel, krate, src)| input(rel, krate, src))
                .collect(),
            &CrateDeps::default(),
        )
    }

    fn id(g: &Graph, name: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.item.name == name)
            .unwrap_or_else(|| panic!("no fn `{name}`"))
    }

    #[test]
    fn bare_calls_prefer_same_module_then_crate() {
        let g = build(&[
            (
                "crates/a/src/x.rs",
                "a",
                "pub fn entry() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/b/src/y.rs", "b", "fn helper() {}\n"),
        ]);
        let entry = id(&g, "entry");
        let local = g
            .fns
            .iter()
            .position(|f| f.item.name == "helper" && f.krate == "a")
            .unwrap();
        let callees: Vec<usize> = g.out[entry].iter().map(|&e| g.edges[e].to).collect();
        assert_eq!(callees, vec![local], "same-file helper wins");
    }

    #[test]
    fn qualified_calls_filter_by_module_and_crate() {
        let g = build(&[
            (
                "crates/a/src/x.rs",
                "a",
                "pub fn entry() { m::go(); cqshap_b::go(); }\nmod m { pub fn go() {} }\n",
            ),
            ("crates/b/src/lib.rs", "b", "pub fn go() {}\n"),
        ]);
        let entry = id(&g, "entry");
        let callees: std::collections::BTreeSet<String> = g.out[entry]
            .iter()
            .map(|&e| g.fns[g.edges[e].to].qualname.clone())
            .collect();
        assert!(callees.contains("a::x::m::go"), "{callees:?}");
        assert!(callees.contains("b::go"), "{callees:?}");
    }

    #[test]
    fn reach_and_path() {
        let g = build(&[(
            "crates/a/src/x.rs",
            "a",
            "pub fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}\n",
        )]);
        let root = id(&g, "root");
        let leaf = id(&g, "leaf");
        let island = id(&g, "island");
        let parents = g.reach(&[root]);
        assert!(parents[leaf].is_some());
        assert!(parents[island].is_none());
        let path: Vec<&str> = g
            .path_to(&parents, leaf)
            .into_iter()
            .map(|i| g.fns[i].item.name.as_str())
            .collect();
        assert_eq!(path, ["root", "mid", "leaf"]);
        assert!(g.path_to(&parents, island).is_empty());
    }

    #[test]
    fn ref_edges_make_value_passed_fns_reachable() {
        let g = build(&[(
            "crates/a/src/x.rs",
            "a",
            "pub fn root(xs: &[u8]) { xs.iter().map(transform).count(); }\nfn transform() {}\n",
        )]);
        let parents = g.reach(&[id(&g, "root")]);
        assert!(parents[id(&g, "transform")].is_some());
    }

    #[test]
    fn closure_or_flows_backward() {
        let g = build(&[(
            "crates/a/src/x.rs",
            "a",
            "pub fn top() { mid(); }\nfn mid() { base(); }\nfn base() {}\nfn other() {}\n",
        )]);
        let mut init = vec![false; g.fns.len()];
        init[id(&g, "base")] = true;
        let c = g.closure_or(&init);
        assert!(c[id(&g, "top")]);
        assert!(c[id(&g, "mid")]);
        assert!(!c[id(&g, "other")]);
    }

    #[test]
    fn lock_normalization_and_closure() {
        let g = build(&[(
            "crates/a/src/x.rs",
            "a",
            "struct C { cache: Mutex<u8> }\nimpl C {\n  fn inner(&self) { self.cache.lock(); }\n  pub fn outer(&self) { self.inner(); }\n}\n",
        )]);
        assert_eq!(g.lock_ids, vec!["C.cache".to_string()]);
        let lc = g.lock_closure();
        assert!(lc[id(&g, "outer")].contains(&0), "closure flows to caller");
        assert_eq!(g.lock_decls.len(), 1);
    }

    #[test]
    fn rwlock_read_write_only_on_declared_names() {
        let g = build(&[(
            "crates/a/src/x.rs",
            "a",
            "struct C { table: RwLock<u8> }\nimpl C {\n  fn a(&self, f: &mut std::fs::File) { self.table.read(); f.read(); }\n}\n",
        )]);
        assert_eq!(g.lock_sites.len(), 1, "{:?}", g.lock_sites);
        assert_eq!(g.lock_ids[g.lock_sites[0].lock], "C.table");
    }

    #[test]
    fn fanout_primitives_found() {
        let g = build(&[(
            "crates/a/src/x.rs",
            "a",
            "fn fan() { std::thread::scope(|s| {}); }\nfn plain() {}\n",
        )]);
        let p = g.fanout_primitives();
        assert!(p[id(&g, "fan")]);
        assert!(!p[id(&g, "plain")]);
    }

    #[test]
    fn json_and_dot_render() {
        let g = build(&[(
            "crates/a/src/x.rs",
            "a",
            "pub fn root() { leaf(); }\nfn leaf() {}\n",
        )]);
        let j = g.to_json(&[("extra", "{\"k\": 1}".to_string())]);
        assert!(j.contains("\"fn_count\": 2"));
        assert!(j.contains("\"extra\""));
        let d = g.to_dot();
        assert!(d.starts_with("digraph"));
        assert!(d.contains("a::x::root"));
    }
}
