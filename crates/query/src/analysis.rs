//! Structural analysis of CQ¬s: every notion the paper's dichotomies are
//! stated in terms of.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use crate::ast::{Atom, ConjunctiveQuery, UnionQuery, Var};

/// Is negation safe? (Guaranteed by construction for queries built through
/// this crate; exposed for completeness and for externally-built ASTs.)
pub fn is_safe(q: &ConjunctiveQuery) -> bool {
    let positive: BTreeSet<Var> = q
        .atoms()
        .iter()
        .filter(|a| !a.negated)
        .flat_map(Atom::variables)
        .collect();
    q.atoms()
        .iter()
        .filter(|a| a.negated)
        .all(|a| a.variables().iter().all(|v| positive.contains(v)))
}

/// Does `q` contain a self-join (two distinct atoms over one relation)?
pub fn has_self_join(q: &ConjunctiveQuery) -> bool {
    let mut seen = HashSet::new();
    q.atoms().iter().any(|a| !seen.insert(a.relation.as_str()))
}

/// Is `q` hierarchical? For all variables `x`, `y`: `Ax ⊆ Ay`,
/// `Ay ⊆ Ax`, or `Ax ∩ Ay = ∅` (Dalvi–Suciu; Theorem 3.1's criterion,
/// extended verbatim to CQ¬ as in the paper).
// cqshap-lint: allow(cancellation-reachability) -- bounded by the query: loops over its atoms, terms and variables
pub fn is_hierarchical(q: &ConjunctiveQuery) -> bool {
    let sets: Vec<BTreeSet<usize>> = q.vars().map(|v| q.atoms_with_var(v)).collect();
    for i in 0..sets.len() {
        for j in i + 1..sets.len() {
            let (a, b) = (&sets[i], &sets[j]);
            let disjoint = a.is_disjoint(b);
            let sub = a.is_subset(b) || b.is_subset(a);
            if !disjoint && !sub {
                return false;
            }
        }
    }
    true
}

/// A non-hierarchical triplet: `var_x` occurs in `atom_x` but not
/// `atom_y`, `var_y` in `atom_y` but not `atom_x`, and both occur in
/// `atom_xy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Triplet {
    /// Index of `αx`.
    pub atom_x: usize,
    /// Index of `αx,y`.
    pub atom_xy: usize,
    /// Index of `αy`.
    pub atom_y: usize,
    /// The variable `x`.
    pub var_x: Var,
    /// The variable `y`.
    pub var_y: Var,
}

/// All non-hierarchical triplets of `q` (empty iff `q` is hierarchical).
// cqshap-lint: allow(cancellation-reachability) -- bounded by the query: loops over its atoms, terms and variables
pub fn non_hierarchical_triplets(q: &ConjunctiveQuery) -> Vec<Triplet> {
    let sets: Vec<BTreeSet<usize>> = q.vars().map(|v| q.atoms_with_var(v)).collect();
    let mut out = Vec::new();
    for (i, a) in sets.iter().enumerate() {
        for (j, b) in sets.iter().enumerate() {
            if i == j {
                continue;
            }
            let only_x: Vec<usize> = a.difference(b).copied().collect();
            let only_y: Vec<usize> = b.difference(a).copied().collect();
            let both: Vec<usize> = a.intersection(b).copied().collect();
            for &ax in &only_x {
                for &ay in &only_y {
                    for &axy in &both {
                        out.push(Triplet {
                            atom_x: ax,
                            atom_xy: axy,
                            atom_y: ay,
                            var_x: Var(i as u32),
                            var_y: Var(j as u32),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Which of the four basic hard queries a triplet's polarities match
/// (Section 3: `q_RST`, `q_¬RS¬T`, `q_R¬ST`, `q_RS¬T`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripletVariant {
    /// `R(x), S(x,y), T(y)` — all positive.
    Rst,
    /// `¬R(x), S(x,y), ¬T(y)` — positive middle, negative endpoints.
    NegRSNegT,
    /// `R(x), ¬S(x,y), T(y)` — negative middle, positive endpoints.
    RNegST,
    /// `R(x), S(x,y), ¬T(y)` — positive middle, exactly one negative
    /// endpoint (oriented so the negative endpoint is `T`).
    RSNegT,
}

/// Selects a triplet usable by the Lemma B.4 reduction, together with the
/// basic hard query it reduces from.
///
/// Lemma B.4 shows every non-hierarchical *safe* CQ¬ has a triplet in one
/// of the four [`TripletVariant`] categories; triplets with a negated
/// middle atom and a negated endpoint are skipped. For the `RSNegT`
/// variant the triplet is oriented so that `atom_y` is the negated
/// endpoint. Returns `None` iff `q` is hierarchical.
pub fn preferred_triplet(q: &ConjunctiveQuery) -> Option<(Triplet, TripletVariant)> {
    let mut fallback: Option<(Triplet, TripletVariant)> = None;
    for t in non_hierarchical_triplets(q) {
        let nx = q.atoms()[t.atom_x].negated;
        let nxy = q.atoms()[t.atom_xy].negated;
        let ny = q.atoms()[t.atom_y].negated;
        let classified = if !nxy {
            match (nx, ny) {
                (false, false) => Some((t, TripletVariant::Rst)),
                (true, true) => Some((t, TripletVariant::NegRSNegT)),
                (false, true) => Some((t, TripletVariant::RSNegT)),
                (true, false) => {
                    // Swap the endpoints so the negative one plays T.
                    let swapped = Triplet {
                        atom_x: t.atom_y,
                        atom_xy: t.atom_xy,
                        atom_y: t.atom_x,
                        var_x: t.var_y,
                        var_y: t.var_x,
                    };
                    Some((swapped, TripletVariant::RSNegT))
                }
            }
        } else if !nx && !ny {
            Some((t, TripletVariant::RNegST))
        } else {
            None
        };
        if let Some((t, v)) = classified {
            if v == TripletVariant::Rst {
                return Some((t, v)); // strongest preference: reuse prior art
            }
            fallback.get_or_insert((t, v));
        }
    }
    fallback
}

/// Gaifman-graph adjacency of `q`: `adj[v]` is the set of variables
/// co-occurring with `v` in some atom (positive or negative).
// cqshap-lint: allow(cancellation-reachability) -- bounded by the query: loops over its atoms, terms and variables
pub fn gaifman_adjacency(q: &ConjunctiveQuery) -> Vec<BTreeSet<Var>> {
    let mut adj = vec![BTreeSet::new(); q.var_count()];
    for atom in q.atoms() {
        let vars: Vec<Var> = atom.variables().into_iter().collect();
        for (i, &u) in vars.iter().enumerate() {
            for &w in &vars[i + 1..] {
                adj[u.index()].insert(w);
                adj[w.index()].insert(u);
            }
        }
    }
    adj
}

/// Is `q` *positively connected*: every two variables are connected in
/// the Gaifman graph through positive atoms only (Theorem 5.1's
/// hypothesis)?
pub fn is_positively_connected(q: &ConjunctiveQuery) -> bool {
    if q.var_count() <= 1 {
        return true;
    }
    let mut adj = vec![BTreeSet::new(); q.var_count()];
    for atom in q.atoms().iter().filter(|a| !a.negated) {
        let vars: Vec<Var> = atom.variables().into_iter().collect();
        for (i, &u) in vars.iter().enumerate() {
            for &w in &vars[i + 1..] {
                adj[u.index()].insert(w);
                adj[w.index()].insert(u);
            }
        }
    }
    let mut seen = vec![false; q.var_count()];
    let mut queue = VecDeque::from([Var(0)]);
    seen[0] = true;
    let mut reached = 1;
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v.index()] {
            if !seen[w.index()] {
                seen[w.index()] = true;
                reached += 1;
                queue.push_back(w);
            }
        }
    }
    reached == q.var_count()
}

/// Polarity of a relation's occurrences within a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Occurs only in positive atoms.
    Positive,
    /// Occurs only in negative atoms.
    Negative,
    /// Occurs in both (not polarity-consistent).
    Mixed,
}

/// Maps each relation of `q` to its occurrence polarity.
// cqshap-lint: allow(cancellation-reachability) -- bounded by the query: loops over its atoms, terms and variables
pub fn polarity_map(q: &ConjunctiveQuery) -> BTreeMap<String, Polarity> {
    let mut out: BTreeMap<String, Polarity> = BTreeMap::new();
    for atom in q.atoms() {
        let p = if atom.negated {
            Polarity::Negative
        } else {
            Polarity::Positive
        };
        out.entry(atom.relation.clone())
            .and_modify(|e| {
                if *e != p {
                    *e = Polarity::Mixed;
                }
            })
            .or_insert(p);
    }
    out
}

/// Maps each relation of a UCQ¬ to its polarity across *all* disjuncts
/// (Section 5.2's whole-query polarity consistency).
// cqshap-lint: allow(cancellation-reachability) -- bounded by the query: loops over its disjuncts' atoms
pub fn polarity_map_union(u: &UnionQuery) -> BTreeMap<String, Polarity> {
    let mut out: BTreeMap<String, Polarity> = BTreeMap::new();
    for d in u.disjuncts() {
        for (rel, p) in polarity_map(d) {
            out.entry(rel)
                .and_modify(|e| {
                    if *e != p {
                        *e = Polarity::Mixed;
                    }
                })
                .or_insert(p);
        }
    }
    out
}

/// Is every relation of `q` polarity consistent?
pub fn is_polarity_consistent(q: &ConjunctiveQuery) -> bool {
    polarity_map(q).values().all(|p| *p != Polarity::Mixed)
}

/// Is the *whole union* polarity consistent? (Strictly stronger than each
/// disjunct being polarity consistent — Proposition 5.8 separates them.)
pub fn is_polarity_consistent_union(u: &UnionQuery) -> bool {
    polarity_map_union(u)
        .values()
        .all(|p| *p != Polarity::Mixed)
}

/// Variables occurring *only* in atoms over relations in `exo`
/// ("exogenous variables", Section 4.2).
pub fn exogenous_vars(q: &ConjunctiveQuery, exo: &HashSet<String>) -> BTreeSet<Var> {
    q.vars()
        .filter(|&v| {
            q.atoms_with_var(v)
                .iter()
                .all(|&a| exo.contains(&q.atoms()[a].relation))
        })
        .collect()
}

/// Connected components of the exogenous atom graph `g_x(q)`: vertices
/// are atoms over relations in `exo`; edges join atoms sharing an
/// exogenous variable. Returns components as sorted atom-index lists.
pub fn exogenous_atom_components(q: &ConjunctiveQuery, exo: &HashSet<String>) -> Vec<Vec<usize>> {
    let exo_atoms: Vec<usize> = q
        .atoms()
        .iter()
        .enumerate()
        .filter(|(_, a)| exo.contains(&a.relation))
        .map(|(i, _)| i)
        .collect();
    let exo_vs = exogenous_vars(q, exo);
    // Union-find over exo atom indices.
    let mut parent: BTreeMap<usize, usize> = exo_atoms.iter().map(|&a| (a, a)).collect();
    fn find(parent: &mut BTreeMap<usize, usize>, a: usize) -> usize {
        let p = parent[&a];
        if p == a {
            a
        } else {
            let root = find(parent, p);
            parent.insert(a, root);
            root
        }
    }
    for &v in &exo_vs {
        let members: Vec<usize> = exo_atoms
            .iter()
            .copied()
            .filter(|&a| q.atoms()[a].contains_var(v))
            .collect();
        for w in members.windows(2) {
            let (ra, rb) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
            if ra != rb {
                parent.insert(ra, rb);
            }
        }
    }
    let mut comps: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &a in &exo_atoms {
        let root = find(&mut parent, a);
        comps.entry(root).or_default().push(a);
    }
    comps.into_values().collect()
}

/// A witness that `q` has a non-hierarchical path (Theorem 4.3's
/// hardness criterion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonHierPath {
    /// Index of the inducing atom `αx` (non-exogenous relation).
    pub atom_x: usize,
    /// Index of the inducing atom `αy` (non-exogenous relation).
    pub atom_y: usize,
    /// The variable `x ∈ Vars(αx) ∖ Vars(αy)`.
    pub var_x: Var,
    /// The variable `y ∈ Vars(αy) ∖ Vars(αx)`.
    pub var_y: Var,
    /// The connecting path `x = p₀ − p₁ − ⋯ − pₖ = y` in `G(q)` avoiding
    /// the other variables of `αx` and `αy`.
    pub path: Vec<Var>,
}

/// Searches for a non-hierarchical path in `q` with respect to the set
/// `exo` of exogenous relations (Definition in Section 4.1):
///
/// there are atoms `αx`, `αy` over non-exogenous relations and variables
/// `x ∈ αx ∖ αy`, `y ∈ αy ∖ αx` such that `G(q)`, after removing every
/// variable of `αx` or `αy` other than `x` and `y`, connects `x` to `y`.
///
/// With `exo = ∅` this is equivalent to non-hierarchicality (checked by
/// property tests), so Theorem 4.3 strictly generalizes Theorem 3.1.
// cqshap-lint: allow(cancellation-reachability) -- bounded by the query: loops over its atoms, terms and variables
pub fn non_hierarchical_path(q: &ConjunctiveQuery, exo: &HashSet<String>) -> Option<NonHierPath> {
    let adj = gaifman_adjacency(q);
    let candidate_atoms: Vec<usize> = q
        .atoms()
        .iter()
        .enumerate()
        .filter(|(_, a)| !exo.contains(&a.relation))
        .map(|(i, _)| i)
        .collect();
    for &ax in &candidate_atoms {
        for &ay in &candidate_atoms {
            if ax == ay {
                continue;
            }
            let vx_set = q.atoms()[ax].variables();
            let vy_set = q.atoms()[ay].variables();
            for &x in vx_set.difference(&vy_set) {
                for &y in vy_set.difference(&vx_set) {
                    let mut removed: BTreeSet<Var> = vx_set.union(&vy_set).copied().collect();
                    removed.remove(&x);
                    removed.remove(&y);
                    if let Some(path) = bfs_path(&adj, x, y, &removed) {
                        return Some(NonHierPath {
                            atom_x: ax,
                            atom_y: ay,
                            var_x: x,
                            var_y: y,
                            path,
                        });
                    }
                }
            }
        }
    }
    None
}

// cqshap-lint: allow(cancellation-reachability) -- bounded by the query: a breadth-first search over its atoms
fn bfs_path(
    adj: &[BTreeSet<Var>],
    from: Var,
    to: Var,
    removed: &BTreeSet<Var>,
) -> Option<Vec<Var>> {
    if removed.contains(&from) || removed.contains(&to) {
        return None;
    }
    let mut pred: BTreeMap<Var, Var> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen: BTreeSet<Var> = BTreeSet::from([from]);
    while let Some(v) = queue.pop_front() {
        if v == to {
            let mut path = vec![to];
            let mut cur = to;
            while let Some(&p) = pred.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &w in &adj[v.index()] {
            if !removed.contains(&w) && seen.insert(w) {
                pred.insert(w, v);
                queue.push_back(w);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_cq, parse_ucq};

    fn exo(names: &[&str]) -> HashSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    // ---------------- Example 2.2 ----------------

    #[test]
    fn example_2_2_hierarchy() {
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let q2 = parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')").unwrap();
        let q3 =
            parse_cq("q3() :- Adv(x, y), Adv(x, z), !TA(y), !TA(z), Reg(y, 'IC'), Reg(z, 'DB')")
                .unwrap();
        let q4 =
            parse_cq("q4() :- Adv(x, y), Adv(x, z), TA(y), !TA(z), Reg(z, w), !Reg(y, w)").unwrap();
        assert!(is_hierarchical(&q1));
        assert!(!is_hierarchical(&q2));
        assert!(!is_hierarchical(&q3));
        assert!(!is_hierarchical(&q4));
        assert!(!has_self_join(&q1));
        assert!(!has_self_join(&q2));
        assert!(has_self_join(&q3));
        assert!(has_self_join(&q4));
        assert!(non_hierarchical_triplets(&q1).is_empty());
        assert!(!non_hierarchical_triplets(&q2).is_empty());
    }

    #[test]
    fn example_5_4_polarity() {
        let q3 =
            parse_cq("q3() :- Adv(x, y), Adv(x, z), !TA(y), !TA(z), Reg(y, 'IC'), Reg(z, 'DB')")
                .unwrap();
        let q4 =
            parse_cq("q4() :- Adv(x, y), Adv(x, z), TA(y), !TA(z), Reg(z, w), !Reg(y, w)").unwrap();
        assert!(is_polarity_consistent(&q3));
        assert!(!is_polarity_consistent(&q4));
        let m = polarity_map(&q4);
        assert_eq!(m["Adv"], Polarity::Positive);
        assert_eq!(m["TA"], Polarity::Mixed);
        assert_eq!(m["Reg"], Polarity::Mixed);
    }

    // ---------------- basic hard queries ----------------

    #[test]
    fn basic_queries_triplets() {
        let cases = [
            ("q() :- R(x), S(x, y), T(y)", TripletVariant::Rst),
            ("q() :- !R(x), S(x, y), !T(y)", TripletVariant::NegRSNegT),
            ("q() :- R(x), !S(x, y), T(y)", TripletVariant::RNegST),
            ("q() :- R(x), S(x, y), !T(y)", TripletVariant::RSNegT),
            ("q() :- !R(x), S(x, y), T(y)", TripletVariant::RSNegT), // swapped orientation
        ];
        for (text, expected) in cases {
            let q = parse_cq(text).unwrap();
            let (t, v) = preferred_triplet(&q).unwrap();
            assert_eq!(v, expected, "{text}");
            if v == TripletVariant::RSNegT {
                assert!(
                    q.atoms()[t.atom_y].negated,
                    "{text}: T endpoint must be negated"
                );
                assert!(
                    !q.atoms()[t.atom_x].negated,
                    "{text}: R endpoint must be positive"
                );
            }
        }
        let hier = parse_cq("q() :- R(x), S(x, y)").unwrap();
        assert!(preferred_triplet(&hier).is_none());
    }

    #[test]
    fn skips_unusable_triplets_but_finds_alternate() {
        // ¬S middle with a negative endpoint is unusable, but safety forces
        // positive atoms covering x and y, which provide an alternate
        // triplet. Here: R(x), !S(x,y), !T(y), U(y) — triplet (R, S, T)
        // is unusable; (R, S, U) works as RNegST.
        let q = parse_cq("q() :- R(x), !S(x, y), !T(y), U(y)").unwrap();
        let (t, v) = preferred_triplet(&q).unwrap();
        match v {
            TripletVariant::RNegST => {
                assert!(q.atoms()[t.atom_xy].negated);
                assert!(!q.atoms()[t.atom_x].negated);
                assert!(!q.atoms()[t.atom_y].negated);
            }
            TripletVariant::RSNegT | TripletVariant::Rst | TripletVariant::NegRSNegT => {
                // Another valid category is acceptable as long as the
                // middle/endpoint polarities match its definition.
                let (nx, nxy, ny) = (
                    q.atoms()[t.atom_x].negated,
                    q.atoms()[t.atom_xy].negated,
                    q.atoms()[t.atom_y].negated,
                );
                match v {
                    TripletVariant::Rst => assert!(!nx && !nxy && !ny),
                    TripletVariant::NegRSNegT => assert!(nx && !nxy && ny),
                    TripletVariant::RSNegT => assert!(!nx && !nxy && ny),
                    TripletVariant::RNegST => unreachable!(),
                }
            }
        }
    }

    // ---------------- Section 4.1 motivating pair ----------------

    #[test]
    fn section_4_1_pair() {
        let x = exo(&["S", "P"]);
        let q = parse_cq("q() :- !R(x, w), S(z, x), !P(z, w), T(y, w)").unwrap();
        let qp = parse_cq("q2() :- !R(x, w), S(z, x), !P(z, y), T(y, w)").unwrap();
        assert!(!is_hierarchical(&q));
        assert!(!is_hierarchical(&qp));
        assert!(
            non_hierarchical_path(&q, &x).is_none(),
            "q is tractable given X"
        );
        let path = non_hierarchical_path(&qp, &x).expect("q' is hard given X");
        // The path connects a variable of R with a variable of T.
        assert_ne!(path.atom_x, path.atom_y);
    }

    // ---------------- Example 4.2 ----------------

    #[test]
    fn example_4_2_paths() {
        let q = parse_cq("q() :- !R(x), Q(x, v), S(x, z), U(z, w), !P(w, y), T(y, v)").unwrap();
        let x = exo(&["Q", "S", "U", "P"]);
        let found = non_hierarchical_path(&q, &x).expect("q has a non-hierarchical path");
        // Any witness must be induced by the only two non-exogenous atoms,
        // ¬R(x) and T(y,v). (The paper illustrates the path x−z−w−y; the
        // search may return the shorter witness x−v first, which is equally
        // valid: v ∈ Vars(T) ∖ Vars(R) and the edge x−v avoids y.)
        let rels = [
            q.atoms()[found.atom_x].relation.as_str(),
            q.atoms()[found.atom_y].relation.as_str(),
        ];
        assert!(rels == ["R", "T"] || rels == ["T", "R"]);
        // The paper's specific witness also validates: x−z−w−y avoiding v.
        let name = |n: &str| q.var_by_name(n).unwrap();
        let adj = gaifman_adjacency(&q);
        assert!(adj[name("x").index()].contains(&name("z")));
        assert!(adj[name("z").index()].contains(&name("w")));
        assert!(adj[name("w").index()].contains(&name("y")));

        let qp =
            parse_cq("q2() :- U(t, r), !T(y), Q(y, w), !V(t), R(x, y), !S(x, z), O(z), P(u, y, w)")
                .unwrap();
        let xp = exo(&["R", "S", "O", "P", "V"]);
        assert!(
            non_hierarchical_path(&qp, &xp).is_none(),
            "q' has no non-hierarchical path"
        );
    }

    #[test]
    fn example_4_5_components() {
        let qp =
            parse_cq("q2() :- U(t, r), !T(y), Q(y, w), !V(t), R(x, y), !S(x, z), O(z), P(u, y, w)")
                .unwrap();
        let xp = exo(&["R", "S", "O", "P", "V"]);
        // Exogenous variables: x, z (only in R/S/O), u (only in P), t?
        // t occurs in U (non-exo) and V (exo) → not exogenous.
        let evs = exogenous_vars(&qp, &xp);
        let names: Vec<&str> = evs.iter().map(|&v| qp.var_name(v)).collect();
        assert_eq!(names, vec!["x", "z", "u"]);
        // Components: {V}, {R, S, O} (via x, z), {P} (u private).
        let comps = exogenous_atom_components(&qp, &xp);
        let render: Vec<Vec<&str>> = comps
            .iter()
            .map(|c| c.iter().map(|&i| qp.atoms()[i].relation.as_str()).collect())
            .collect();
        assert_eq!(comps.len(), 3);
        assert!(render.contains(&vec!["V"]));
        assert!(render.contains(&vec!["R", "S", "O"]));
        assert!(render.contains(&vec!["P"]));
    }

    // ---------------- coincidence with hierarchy at X = ∅ ----------------

    #[test]
    fn path_with_empty_exo_iff_non_hierarchical() {
        let queries = [
            "q() :- Stud(x), !TA(x), Reg(x, y)",
            "q() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')",
            "q() :- R(x), S(x, y), T(y)",
            "q() :- !R(x), S(x, y), !T(y)",
            "q() :- R(x), !S(x, y), T(y)",
            "q() :- R(x), S(x, y), !T(y)",
            "q() :- A(x), B(x, y), C(y, z), D(z)",
            "q() :- A(x, y)",
            "q() :- A(x, y), B(x, y)",
            "q() :- A(x), B(x, y), C(y)",
            "q() :- !R(x, w), S(z, x), !P(z, w), T(y, w)",
        ];
        let none = exo(&[]);
        for text in queries {
            let q = parse_cq(text).unwrap();
            assert_eq!(
                non_hierarchical_path(&q, &none).is_some(),
                !is_hierarchical(&q),
                "{text}"
            );
        }
    }

    // ---------------- positive connectivity ----------------

    #[test]
    fn positive_connectivity() {
        let q = parse_cq("q() :- R(x), S(x, y), !R(y)").unwrap();
        assert!(is_positively_connected(&q));
        let q2 = parse_cq("q() :- R(x), T(y), !S(x, y)").unwrap();
        assert!(
            !is_positively_connected(&q2),
            "x,y connected only through ¬S"
        );
        let q3 = parse_cq("q() :- R(x), T(y)").unwrap();
        assert!(!is_positively_connected(&q3));
        let q4 = parse_cq("q() :- R(x)").unwrap();
        assert!(is_positively_connected(&q4));
        let q5 = parse_cq("q() :- R('a')").unwrap();
        assert!(is_positively_connected(&q5));
    }

    // ---------------- UCQ polarity ----------------

    #[test]
    fn qsat_union_polarity() {
        let u = parse_ucq(
            "q1() :- C(x1, x2, x3, v1, v2, v3), T(x1, v1), T(x2, v2), T(x3, v3)\n\
             q2() :- V(x), !T(x, 1), !T(x, 0)\n\
             q3() :- T(x, 1), T(x, 0)\n\
             q4() :- R(0)\n",
        )
        .unwrap();
        // Every disjunct is polarity consistent...
        for d in u.disjuncts() {
            assert!(is_polarity_consistent(d), "{d}");
        }
        // ...but the union is not (T flips polarity across disjuncts).
        assert!(!is_polarity_consistent_union(&u));
        assert_eq!(polarity_map_union(&u)["T"], Polarity::Mixed);
        assert_eq!(polarity_map_union(&u)["R"], Polarity::Positive);
    }

    #[test]
    fn safety_check() {
        let q = parse_cq("q() :- R(x), !S(x)").unwrap();
        assert!(is_safe(&q));
    }
}
