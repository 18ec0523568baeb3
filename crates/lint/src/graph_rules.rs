//! The interprocedural rules over the workspace [call graph](crate::graph).
//!
//! Three rules run here — `transitive-no-panic`,
//! `cancellation-reachability`, and `lock-order` — and each returns,
//! besides its findings, the set of *proven sites*: locations the graph
//! shows cannot violate the contract (unreachable from any relevant
//! entry point, or covered by a transitive callee). The
//! [workspace](crate::workspace) pipeline demotes panic sites that are
//! proven and converts pragmas that only guarded proven sites into
//! `unused-suppression` findings — the fourth rule,
//! `suppression-debt`, which turns the hand-written pragma count into
//! a ratcheted-down number instead of an append-only ledger.
//!
//! All three rules over-approximate reachability (see the graph
//! module), so a *proven* site really is safe under every resolution
//! the name-matcher could not rule out.

use std::collections::BTreeMap;

use crate::graph::{EdgeKind, Graph};
use crate::report::{
    json_str, Explanation, Finding, RULE_CANCELLATION_REACHABILITY, RULE_LOCK_ORDER,
};

/// A site the graph proves safe: panic sites here are demoted and
/// pragmas that only guard it are redundant debt.
#[derive(Debug, Clone)]
pub struct ProvenSite {
    /// The site's file.
    pub file: String,
    /// The site's line.
    pub line: u32,
    /// Why the graph considers it safe.
    pub why: String,
}

/// One graph rule's outcome.
#[derive(Debug, Default)]
pub struct GraphRuleOutcome {
    /// New findings (empty on a healthy workspace).
    pub findings: Vec<Finding>,
    /// Call-graph paths for findings (live or later suppressed).
    pub explanations: Vec<Explanation>,
    /// Sites proven safe.
    pub proven: Vec<ProvenSite>,
    /// A `GRAPH_report.json` section: `(key, json value)`.
    pub section: (&'static str, String),
}

/// `transitive-no-panic`: a public engine API is panic-free iff every
/// fn reachable from it is. Roots are the non-test public fns and
/// trait-impl methods of the `no_panic_crates`; panic `sites` (from
/// [`crate::rules::panic_sites`]) in fns unreachable from every root
/// are proven safe (the code cannot run under any public entry point),
/// and reachable sites get an explanation path. The per-root
/// certificate table lands in `GRAPH_report.json`.
pub fn transitive_no_panic(
    graph: &Graph,
    sites: &[Finding],
    no_panic_crates: &[&str],
) -> GraphRuleOutcome {
    let mut out = GraphRuleOutcome::default();
    let roots: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            no_panic_crates.contains(&f.krate.as_str())
                && !f.item.is_test
                && !f.is_binary
                && (f.item.is_pub || f.item.impl_trait.is_some())
        })
        .map(|(i, _)| i)
        .collect();
    let parents = graph.reach(&roots);

    // Which fns contain a panic site that stays live?
    let mut has_site = vec![false; graph.fns.len()];
    for f in sites {
        let enclosing = graph.enclosing_fns(&f.file, f.line);
        let Some(&inner) = enclosing.first() else {
            continue; // module-scope site: never demoted
        };
        let gf = &graph.fns[inner];
        let reachable = parents[inner].is_some();
        let root_eligible = gf.item.is_pub || gf.item.impl_trait.is_some();
        if !reachable && !root_eligible && !gf.item.is_test {
            out.proven.push(ProvenSite {
                file: f.file.clone(),
                line: f.line,
                why: format!(
                    "`{}` is unreachable from every public fn or trait impl of the panic-free crates",
                    gf.qualname
                ),
            });
        } else {
            has_site[inner] = true;
            let mut path: Vec<String> = graph
                .path_to(&parents, inner)
                .into_iter()
                .map(|i| graph.fns[i].qualname.clone())
                .collect();
            if path.is_empty() {
                path.push(gf.qualname.clone());
            }
            out.explanations.push(Explanation {
                rule: f.rule.clone(),
                file: f.file.clone(),
                line: f.line,
                path,
            });
        }
    }

    // Certificates: one backward pass answers "can this fn reach a
    // live panic site?" for every root at once.
    let reaches_site = graph.closure_or(&has_site);
    let mut certs = String::from("[");
    for (n, &r) in roots.iter().enumerate() {
        if n > 0 {
            certs.push(',');
        }
        certs.push_str(&format!(
            "\n    {{\"api\": {}, \"status\": \"{}\"}}",
            json_str(&graph.fns[r].qualname),
            if reaches_site[r] {
                "panic-free-modulo-pragmas"
            } else {
                "panic-free"
            }
        ));
    }
    certs.push_str(if roots.is_empty() { "]" } else { "\n  ]" });
    out.section = (
        "transitive_no_panic",
        format!(
            "{{\"roots\": {}, \"reachable_fns\": {}, \"proven_unreachable_sites\": {}, \"certificates\": {certs}}}",
            roots.len(),
            parents.iter().filter(|p| p.is_some()).count(),
            out.proven.len()
        ),
    );
    out
}

/// `cancellation-reachability`: every loop in a fn transitively
/// reachable from a `Budget`/`CancelToken`-accepting entry point must
/// poll — lexically, or by (transitively) calling a fn that does.
/// Coverage is computed, not asserted by a file list. Fns whose loops
/// are covered, or that no entry point reaches, become proven sites;
/// the rest are findings with the entry-point path. Findings and proofs
/// anchor at the *fn* line (one per fn, loops listed in the message),
/// so a pragma above the `fn` suppresses and a redundant one is
/// detected as debt.
pub fn cancellation_reachability(graph: &Graph) -> GraphRuleOutcome {
    let mut out = GraphRuleOutcome::default();
    let roots: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.item.takes_token && !f.item.is_test)
        .map(|(i, _)| i)
        .collect();
    let parents = graph.reach(&roots);
    let polls: Vec<bool> = graph.fns.iter().map(|f| f.item.polls).collect();
    let covered = graph.closure_or(&polls);

    let mut covered_loops = 0usize;
    let mut uncovered_loops = 0usize;
    for (i, f) in graph.fns.iter().enumerate() {
        if f.item.is_test || f.item.loops.is_empty() {
            continue;
        }
        let loop_lines: Vec<String> = f.item.loops.iter().map(|l| l.line.to_string()).collect();
        let reachable = parents[i].is_some();
        if reachable && !covered[i] {
            uncovered_loops += f.item.loops.len();
            let path: Vec<String> = graph
                .path_to(&parents, i)
                .into_iter()
                .map(|k| graph.fns[k].qualname.clone())
                .collect();
            let entry = path.first().cloned().unwrap_or_else(|| f.qualname.clone());
            out.findings.push(Finding {
                rule: RULE_CANCELLATION_REACHABILITY.to_string(),
                file: f.file.clone(),
                line: f.item.line,
                message: format!(
                    "`{}` loops (line {}) and is reachable from deadline-carrying entry `{entry}` but neither polls cancellation nor calls a polling fn",
                    f.qualname,
                    loop_lines.join(", ")
                ),
            });
            out.explanations.push(Explanation {
                rule: RULE_CANCELLATION_REACHABILITY.to_string(),
                file: f.file.clone(),
                line: f.item.line,
                path,
            });
        } else {
            covered_loops += f.item.loops.len();
            let why = if !reachable {
                format!(
                    "`{}` is unreachable from every Budget/CancelToken-accepting entry point",
                    f.qualname
                )
            } else if f.item.polls {
                format!("`{}` polls cancellation lexically", f.qualname)
            } else {
                format!("`{}` transitively calls a polling fn", f.qualname)
            };
            out.proven.push(ProvenSite {
                file: f.file.clone(),
                line: f.item.line,
                why,
            });
        }
    }

    out.section = (
        "cancellation_reachability",
        format!(
            "{{\"entry_points\": {}, \"reachable_fns\": {}, \"covered_loops\": {covered_loops}, \"uncovered_loops\": {uncovered_loops}}}",
            roots.len(),
            parents.iter().filter(|p| p.is_some()).count(),
        ),
    );
    out
}

/// `lock-order`: extracts every `Mutex`/`RwLock`/`OnceLock`
/// acquisition, builds the held-while-acquiring order relation (both
/// intra-fn — a second acquisition inside a guard's lexical extent —
/// and interprocedural — a call inside the extent whose callee
/// transitively acquires), and flags (a) any cycle in that relation,
/// including re-acquiring a held non-reentrant lock, and (b) any lock
/// held across a call that reaches a thread fan-out (`parallel::*`,
/// `thread::scope`) — the deadlock pre-conditions a concurrent server
/// must never ship. The inferred global acquisition order and the full
/// site table land in `GRAPH_report.json`.
pub fn lock_order(graph: &Graph) -> GraphRuleOutcome {
    let mut out = GraphRuleOutcome::default();
    let lock_closure = graph.lock_closure();
    let prim = graph.fanout_primitives();
    // Call edges only: a fn whose *value* escapes through a `Ref` edge
    // does not execute on this stack, so it cannot put a fan-out under
    // a guard held here.
    let fan_reach = graph.closure_or_calls(&prim);

    // Order edges between lock ids, with one human-readable witness.
    let mut order: BTreeMap<(usize, usize), String> = BTreeMap::new();
    let mut fanout_findings = 0usize;
    for s in &graph.lock_sites {
        let f = &graph.fns[s.fn_id];
        if f.item.is_test {
            continue;
        }
        let held = format!(
            "`{}` held in `{}` ({}:{})",
            graph.lock_ids[s.lock], f.qualname, f.file, s.line
        );
        // Intra-fn: another acquisition inside this guard's extent.
        for s2 in &graph.lock_sites {
            if s2.fn_id == s.fn_id && s.offset < s2.offset && s2.offset < s.extent_end {
                order.entry((s.lock, s2.lock)).or_insert_with(|| {
                    format!(
                        "{held}, then `{}` acquired at line {}",
                        graph.lock_ids[s2.lock], s2.line
                    )
                });
            }
        }
        // Interprocedural: a call inside the extent acquires through
        // its transitive closure, or reaches a fan-out.
        for &ek in &graph.out[s.fn_id] {
            let e = &graph.edges[ek];
            if e.kind != EdgeKind::Call
                || e.approx
                || e.offset <= s.offset
                || e.offset >= s.extent_end
            {
                continue;
            }
            for &l2 in &lock_closure[e.to] {
                order.entry((s.lock, l2)).or_insert_with(|| {
                    format!(
                        "{held}, then call to `{}` (line {}) acquires `{}`",
                        graph.fns[e.to].qualname, e.line, graph.lock_ids[l2]
                    )
                });
            }
            if prim[e.to] || fan_reach[e.to] {
                fanout_findings += 1;
                out.findings.push(Finding {
                    rule: RULE_LOCK_ORDER.to_string(),
                    file: f.file.clone(),
                    line: s.line,
                    message: format!(
                        "{held} across call to `{}` (line {}), which fans out into threads — release the guard before the fan-out",
                        graph.fns[e.to].qualname, e.line
                    ),
                });
                out.explanations.push(Explanation {
                    rule: RULE_LOCK_ORDER.to_string(),
                    file: f.file.clone(),
                    line: s.line,
                    path: vec![held.clone(), graph.fns[e.to].qualname.clone()],
                });
            }
        }
        // The acquiring fn itself fanning out inside the extent
        // (`thread::scope` is external, so no edge exists for it).
        for c in &f.item.calls {
            let is_prim = (c.name() == "scope" && c.segments.iter().any(|seg| seg == "thread"))
                || c.name() == "spawn"
                || c.name() == "spawn_scoped";
            if is_prim && c.offset > s.offset && c.offset < s.extent_end {
                fanout_findings += 1;
                out.findings.push(Finding {
                    rule: RULE_LOCK_ORDER.to_string(),
                    file: f.file.clone(),
                    line: s.line,
                    message: format!(
                        "{held} across the thread fan-out at line {} — release the guard first",
                        c.line
                    ),
                });
                out.explanations.push(Explanation {
                    rule: RULE_LOCK_ORDER.to_string(),
                    file: f.file.clone(),
                    line: s.line,
                    path: vec![held.clone(), format!("thread fan-out at line {}", c.line)],
                });
            }
        }
    }

    // Cycles (self-loops are the non-reentrant re-acquisition case).
    let n = graph.lock_ids.len();
    let mut cycles: Vec<Vec<usize>> = Vec::new();
    for (&(a, b), why) in &order {
        if a == b {
            cycles.push(vec![a]);
            out.findings.push(Finding {
                rule: RULE_LOCK_ORDER.to_string(),
                file: "(workspace)".to_string(),
                line: 0,
                message: format!(
                    "`{}` re-acquired while already held (non-reentrant deadlock): {why}",
                    graph.lock_ids[a]
                ),
            });
        }
    }
    // DFS cycle detection over the multi-lock relation.
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|a| {
            order
                .keys()
                .filter(|&&(x, y)| x == a && y != a)
                .map(|&(_, y)| y)
                .collect()
        })
        .collect();
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut stack_path: Vec<usize> = Vec::new();
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Iterative DFS with an explicit stack of (node, next-child).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        stack_path.push(start);
        while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
            if *ci < adj[u].len() {
                let v = adj[u][*ci];
                *ci += 1;
                match color[v] {
                    0 => {
                        color[v] = 1;
                        stack.push((v, 0));
                        stack_path.push(v);
                    }
                    1 => {
                        // Back edge: cycle from v to u along the path.
                        let pos = stack_path.iter().position(|&x| x == v).unwrap_or(0);
                        let cyc: Vec<usize> = stack_path[pos..].to_vec();
                        let names: Vec<String> =
                            cyc.iter().map(|&l| graph.lock_ids[l].clone()).collect();
                        cycles.push(cyc);
                        out.findings.push(Finding {
                            rule: RULE_LOCK_ORDER.to_string(),
                            file: "(workspace)".to_string(),
                            line: 0,
                            message: format!(
                                "lock acquisition cycle: {} → back to `{}` — impose a global order",
                                names.join(" → "),
                                names[0]
                            ),
                        });
                    }
                    _ => {}
                }
            } else {
                color[u] = 2;
                stack.pop();
                stack_path.pop();
            }
        }
    }

    // Global order: Kahn's topological sort (meaningful when acyclic).
    let mut indeg = vec![0usize; n];
    for &(a, b) in order.keys() {
        if a != b {
            indeg[b] += 1;
        }
    }
    let mut topo: Vec<usize> = Vec::new();
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    while let Some(u) = ready.pop() {
        topo.push(u);
        for &v in &adj[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                ready.push(v);
            }
        }
    }

    let mut sec = String::from("{");
    sec.push_str(&format!(
        "\"locks\": {}, \"sites\": {}, \"order_edges\": {}, \"cycles\": {}, \"held_across_fanout\": {fanout_findings},",
        n,
        graph.lock_sites.len(),
        order.len(),
        cycles.len()
    ));
    sec.push_str(" \"acquisition_order\": [");
    for (i, &l) in topo.iter().enumerate() {
        if i > 0 {
            sec.push_str(", ");
        }
        sec.push_str(&json_str(&graph.lock_ids[l]));
    }
    sec.push_str("], \"order_relation\": [");
    let mut first = true;
    for (&(a, b), why) in &order {
        if !first {
            sec.push(',');
        }
        first = false;
        sec.push_str(&format!(
            "\n    {{\"before\": {}, \"after\": {}, \"witness\": {}}}",
            json_str(&graph.lock_ids[a]),
            json_str(&graph.lock_ids[b]),
            json_str(why)
        ));
    }
    sec.push_str(if order.is_empty() { "]}" } else { "\n  ]}" });
    out.section = ("lock_order", sec);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphInput;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::report::RULE_TRANSITIVE_NO_PANIC;
    use crate::scanner::FileMap;

    fn build(files: &[(&str, &str, &str)]) -> Graph {
        Graph::build(
            files
                .iter()
                .map(|(rel, krate, src)| {
                    let map = FileMap::build(src, lex(src));
                    GraphInput {
                        rel: rel.to_string(),
                        krate: krate.to_string(),
                        is_binary: false,
                        parsed: parse(src, &map),
                    }
                })
                .collect(),
            &crate::graph::CrateDeps::default(),
        )
    }

    #[test]
    fn unreachable_panic_sites_are_proven() {
        let src =
            "pub fn api() { used(); }\nfn used() { x.unwrap(); }\nfn dead() { y.unwrap(); }\n";
        let g = build(&[("crates/core/src/x.rs", "core", src)]);
        let sites = vec![
            Finding {
                rule: RULE_TRANSITIVE_NO_PANIC.into(),
                file: "crates/core/src/x.rs".into(),
                line: 2,
                message: "unwrap".into(),
            },
            Finding {
                rule: RULE_TRANSITIVE_NO_PANIC.into(),
                file: "crates/core/src/x.rs".into(),
                line: 3,
                message: "unwrap".into(),
            },
        ];
        let out = transitive_no_panic(&g, &sites, &["core"]);
        assert_eq!(out.proven.len(), 1, "{:?}", out.proven);
        assert_eq!(out.proven[0].line, 3);
        assert!(out.proven[0].why.contains("dead"));
        // The reachable site got an explanation path api → used.
        let ex = out
            .explanations
            .iter()
            .find(|e| e.line == 2)
            .expect("explanation");
        assert_eq!(ex.path, ["core::x::api", "core::x::used"]);
        assert!(out.section.1.contains("panic-free-modulo-pragmas"));
    }

    #[test]
    fn uncovered_reachable_loop_is_a_finding() {
        let src = "pub fn entry(b: &Budget) { hot(); }\nfn hot() { for i in 0..9 { step(i); } }\nfn step(_i: u32) {}\n";
        let g = build(&[("crates/core/src/x.rs", "core", src)]);
        let out = cancellation_reachability(&g);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, RULE_CANCELLATION_REACHABILITY);
        assert_eq!(out.findings[0].line, 2);
        let ex = &out.explanations[0];
        assert_eq!(ex.path, ["core::x::entry", "core::x::hot"]);
    }

    #[test]
    fn transitively_polling_loops_are_proven() {
        let src = "pub fn entry(b: &Budget) { hot(); }\nfn hot() { for i in 0..9 { step(i); } }\nfn step(_i: u32) { poll_it(); }\nfn poll_it() { should_stop(); }\nfn unreachable_loop() { loop {} }\n";
        let g = build(&[("crates/core/src/x.rs", "core", src)]);
        let out = cancellation_reachability(&g);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        // Both the covered loop and the unreachable loop are proven.
        assert_eq!(out.proven.len(), 2, "{:?}", out.proven);
    }

    #[test]
    fn lock_cycle_and_fanout_are_findings() {
        let src = "struct C { a: Mutex<u8>, b: Mutex<u8> }\nimpl C {\n  fn ab(&self) { let g = self.a.lock(); self.b.lock(); drop(g); }\n  fn ba(&self) { let g = self.b.lock(); self.a.lock(); drop(g); }\n  fn fan(&self) { let g = self.a.lock(); std::thread::scope(|s| {}); drop(g); }\n}\n";
        let g = build(&[("crates/core/src/x.rs", "core", src)]);
        let out = lock_order(&g);
        assert!(
            out.findings.iter().any(|f| f.message.contains("cycle")),
            "{:?}",
            out.findings
        );
        assert!(
            out.findings.iter().any(|f| f.message.contains("fan-out")),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn disciplined_locks_are_clean_with_an_order() {
        let src = "struct C { a: Mutex<u8>, b: Mutex<u8> }\nimpl C {\n  fn ab(&self) { let g = self.a.lock(); self.b.lock(); drop(g); }\n  fn release_then_fan(&self) { let g = self.a.lock(); drop(g); std::thread::scope(|s| {}); }\n}\n";
        let g = build(&[("crates/core/src/x.rs", "core", src)]);
        let out = lock_order(&g);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert!(out.section.1.contains("\"cycles\": 0"));
        // a before b in the inferred order.
        let sec = &out.section.1;
        let a = sec.find("C.a").expect("C.a in order");
        let order_part = &sec[sec.find("acquisition_order").unwrap()..];
        let ai = order_part.find("C.a").expect("a");
        let bi = order_part.find("C.b").expect("b");
        assert!(ai < bi, "{order_part}");
        let _ = a;
    }

    #[test]
    fn reacquiring_held_lock_is_a_cycle() {
        let src = "struct C { a: Mutex<u8> }\nimpl C {\n  fn twice(&self) { let g = self.a.lock(); self.a.lock(); drop(g); }\n}\n";
        let g = build(&[("crates/core/src/x.rs", "core", src)]);
        let out = lock_order(&g);
        assert!(
            out.findings
                .iter()
                .any(|f| f.message.contains("re-acquired")),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn interprocedural_lock_edges_through_calls() {
        let src = "struct C { a: Mutex<u8>, b: Mutex<u8> }\nimpl C {\n  fn inner(&self) { self.b.lock(); }\n  fn outer(&self) { let g = self.a.lock(); self.inner(); drop(g); }\n}\n";
        let g = build(&[("crates/core/src/x.rs", "core", src)]);
        let out = lock_order(&g);
        assert!(
            out.section.1.contains("\"order_edges\": 1"),
            "{}",
            out.section.1
        );
        assert!(out.section.1.contains("call to"), "{}", out.section.1);
    }
}
