//! The `ExoShap` rewriting (Algorithm 1, Section 4.2).
//!
//! Given a self-join-free CQ¬ `q` over a schema with exogenous relations
//! `X`, and assuming `q` has no non-hierarchical path, three
//! Shapley-preserving rewriting steps produce a *hierarchical* query:
//!
//! 1. **Complementation** (Lemma C.3) — every negated exogenous atom is
//!    replaced by a positive atom over the complement relation,
//!    materialized over the active domain (extended with the query's
//!    constants).
//! 2. **Component merging** (Lemma 4.6) — each connected component of
//!    the exogenous atom graph `g_x(q)` is joined into a single fresh
//!    exogenous relation; afterwards every exogenous variable occurs in
//!    exactly one atom. Components without non-exogenous variables are
//!    constant under `E`: they are evaluated once and either dropped or
//!    short-circuit the query to *false*.
//! 3. **Projection and padding** (Lemma 4.8) — exogenous variables are
//!    projected away, and each exogenous atom is padded (by a Cartesian
//!    product with the domain) to exactly the variables of a covering
//!    non-exogenous atom, which exists by Lemma 4.4.
//!
//! The output database only ever *adds* relations, so fact ids are
//! preserved — the Shapley value of every endogenous fact is unchanged,
//! and the probability domain reuses the same rewriting for Theorem 4.10
//! (see the crate-private `plan` module).

use std::collections::{BTreeSet, HashSet};

use cqshap_db::{complement::complement_tuples, ConstId, Database, Provenance, Tuple, World};
use cqshap_engine::answers;
use cqshap_query::{
    has_self_join, is_hierarchical, non_hierarchical_path, Atom, ConjunctiveQuery, QueryBuilder,
    Term, Var,
};

use crate::error::CoreError;

/// The result of the rewriting.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    /// The rewritten database (a superset of the input: fresh exogenous
    /// relations added, nothing removed — fact ids are stable).
    pub db: Database,
    /// The rewritten, hierarchical query. Meaningless when
    /// [`RewriteOutcome::always_false`] is set.
    pub query: ConjunctiveQuery,
    /// Set when a fully-exogenous component evaluated to *false*: the
    /// query is unsatisfiable whatever `E` is, so every Shapley value is
    /// zero and [`RewriteOutcome::query`] must not be used.
    pub always_false: bool,
    /// Human-readable rendering of the query after each stage, mirroring
    /// Figure 3 of the paper.
    pub stages: Vec<String>,
}

/// Applies the `ExoShap` rewriting. The set `X` is taken from `db`'s
/// declared exogenous relations.
///
/// # Errors
/// * [`CoreError::NotSelfJoinFree`] — precondition;
/// * [`CoreError::HasNonHierarchicalPath`] — the query is in the hard
///   case of Theorem 4.3 and cannot be rewritten;
/// * [`CoreError::Db`] with [`cqshap_db::DbError::BudgetExceeded`] —
///   a materialization exceeded `tuple_budget`.
pub fn rewrite(
    db: &Database,
    q: &ConjunctiveQuery,
    tuple_budget: usize,
) -> Result<RewriteOutcome, CoreError> {
    if has_self_join(q) {
        return Err(CoreError::NotSelfJoinFree {
            query: q.to_string(),
        });
    }
    let mut exo_names: HashSet<String> = db.exogenous_relation_names().into_iter().collect();
    if let Some(p) = non_hierarchical_path(q, &exo_names) {
        let path: Vec<&str> = p.path.iter().map(|&v| q.var_name(v)).collect();
        return Err(CoreError::HasNonHierarchicalPath {
            witness: format!("path {}", path.join("-")),
        });
    }

    let mut work = db.clone();
    let mut stages = vec![format!("input: {q}")];

    // Domain: active domain extended with the query's constants, so that
    // complements behave identically to the original negated atoms even
    // for constants absent from the data.
    for atom in q.atoms() {
        for t in &atom.terms {
            if let Term::Const(c) = t {
                work.intern(c);
            }
        }
    }
    let mut domain = work.active_domain();
    for atom in q.atoms() {
        for t in &atom.terms {
            if let Term::Const(c) = t {
                #[expect(
                    clippy::expect_used,
                    reason = "the constant was interned earlier in this rewrite pass"
                )]
                let id = work.interner().get(c).expect("interned above");
                if !domain.contains(&id) {
                    domain.push(id);
                }
            }
        }
    }

    // Make sure every query relation exists in the working database.
    for atom in q.atoms() {
        work.add_relation(&atom.relation, atom.terms.len())?;
    }

    let mut atoms: Vec<Atom> = q.atoms().to_vec();

    // ---- Step 1: complement negated exogenous atoms (Lemma C.3) ----
    for atom in atoms.iter_mut() {
        if !atom.negated || !exo_names.contains(&atom.relation) {
            continue;
        }
        #[expect(
            clippy::expect_used,
            reason = "the relation was registered earlier in this rewrite pass"
        )]
        let rel = work.schema().id(&atom.relation).expect("registered above");
        let comp = complement_tuples(&work, rel, &domain, tuple_budget)?;
        let comp_name = work.schema().fresh_name(&format!("Not{}", atom.relation));
        let comp_rel = work.add_relation(&comp_name, atom.terms.len())?;
        work.declare_exogenous_relation(comp_rel)?;
        for t in comp {
            work.insert_tuple(comp_rel, t, Provenance::Exogenous)?;
        }
        exo_names.insert(comp_name.clone());
        atom.relation = comp_name;
        atom.negated = false;
    }
    stages.push(format!("after complementation: {}", render(q, &atoms)));

    // ---- Step 2: merge the components of g_x(q) (Lemma 4.6) ----
    let components = atom_components(q, &atoms, &exo_names);
    let mut always_false = false;
    let mut remove: BTreeSet<usize> = BTreeSet::new();
    let mut replacements: Vec<(usize, Atom)> = Vec::new();
    for comp in components {
        // Union-find components are never empty.
        let Some(&first) = comp.first() else {
            continue;
        };
        let members: Vec<&Atom> = comp.iter().filter_map(|&i| atoms.get(i)).collect();
        // Variables of the component in first-occurrence order.
        let mut comp_vars: Vec<Var> = Vec::new();
        for atom in &members {
            for t in &atom.terms {
                if let Term::Var(v) = t {
                    if !comp_vars.contains(v) {
                        comp_vars.push(*v);
                    }
                }
            }
        }
        let exo_vs = exogenous_variables(q, &atoms, &exo_names);
        let non_exo_vars: Vec<Var> = comp_vars
            .iter()
            .copied()
            .filter(|v| !exo_vs.contains(v))
            .collect();

        // Join the component over the (exogenous) data.
        let sub_atoms: Vec<Atom> = members
            .iter()
            .map(|&atom| Atom {
                negated: false,
                ..atom.clone()
            })
            .collect();
        let tuples = join_component(&work, q, &sub_atoms, &comp_vars, tuple_budget)?;

        if non_exo_vars.is_empty() {
            // Constant under E: drop or short-circuit.
            if tuples.is_empty() {
                always_false = true;
            }
            remove.extend(comp.iter().copied());
            continue;
        }

        let merged_name = work.schema().fresh_name("Join");
        let merged_rel = work.add_relation(&merged_name, comp_vars.len())?;
        work.declare_exogenous_relation(merged_rel)?;
        for t in tuples {
            work.insert_tuple(merged_rel, Tuple::from(t), Provenance::Exogenous)?;
        }
        exo_names.insert(merged_name.clone());
        replacements.push((
            first,
            Atom {
                relation: merged_name,
                terms: comp_vars.iter().map(|&v| Term::Var(v)).collect(),
                negated: false,
            },
        ));
        remove.extend(comp.iter().skip(1).copied());
    }
    for (idx, atom) in replacements {
        if let Some(slot) = atoms.get_mut(idx) {
            *slot = atom;
        }
    }
    let mut atoms: Vec<Atom> = atoms
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !remove.contains(i))
        .map(|(_, a)| a)
        .collect();
    stages.push(format!("after component merging: {}", render(q, &atoms)));

    if always_false {
        return Ok(RewriteOutcome {
            db: work,
            query: q.clone(),
            always_false: true,
            stages,
        });
    }

    // ---- Step 3: project exogenous variables away and pad (Lemma 4.8) ----
    let exo_vs = exogenous_variables(q, &atoms, &exo_names);
    let non_exo_atoms: Vec<Atom> = atoms
        .iter()
        .filter(|a| !exo_names.contains(&a.relation))
        .cloned()
        .collect();
    for atom in atoms.iter_mut() {
        if !exo_names.contains(&atom.relation) {
            continue;
        }
        let atom_vars: Vec<Var> = distinct_vars(atom);
        let keep: Vec<Var> = atom_vars
            .iter()
            .copied()
            .filter(|v| !exo_vs.contains(v))
            .collect();
        debug_assert!(
            !keep.is_empty(),
            "fully exogenous components were dropped in step 2"
        );
        // A covering non-exogenous atom exists by Lemma 4.4.
        let beta = non_exo_atoms
            .iter()
            .find(|b| {
                let bv = distinct_vars(b);
                keep.iter().all(|v| bv.contains(v))
            })
            .ok_or_else(|| {
                CoreError::Unsupported(
                    "no covering non-exogenous atom: query has a non-hierarchical path".into(),
                )
            })?;
        let target: Vec<Var> = distinct_vars(beta);
        // Project the atom's relation onto `keep`.
        #[expect(
            clippy::expect_used,
            reason = "the rewrite that emitted this atom registered its relation"
        )]
        let rel = work.schema().id(&atom.relation).expect("exists");
        #[expect(
            clippy::expect_used,
            reason = "kept variables are drawn from this atom's own variable set"
        )]
        let keep_positions: Vec<usize> = keep
            .iter()
            .map(|v| {
                atom.terms
                    .iter()
                    .position(|t| *t == Term::Var(*v))
                    .expect("kept variable occurs in atom")
            })
            .collect();
        let mut projected: BTreeSet<Vec<ConstId>> = BTreeSet::new();
        for &fid in work.relation_facts(rel) {
            let vals = work.fact(fid).tuple.values();
            let row: Option<Vec<ConstId>> = keep_positions
                .iter()
                .map(|&p| vals.get(p).copied())
                .collect();
            projected.extend(row);
        }
        // Pad with every combination of domain values for the extra vars.
        let extra: Vec<Var> = target
            .iter()
            .copied()
            .filter(|v| !keep.contains(v))
            .collect();
        let needed = projected.len().saturating_mul(
            domain
                .len()
                .checked_pow(extra.len() as u32)
                .unwrap_or(usize::MAX),
        );
        if needed > tuple_budget {
            return Err(CoreError::Db(cqshap_db::DbError::BudgetExceeded {
                context: format!("padding of {}", atom.relation),
                budget: tuple_budget,
                required: needed,
            }));
        }
        let padded_name = work.schema().fresh_name(&format!("Pad{}", atom.relation));
        let padded_rel = work.add_relation(&padded_name, target.len())?;
        work.declare_exogenous_relation(padded_rel)?;
        if !extra.is_empty() && domain.is_empty() {
            // No domain values to pad with: the padded relation is empty.
            projected.clear();
        }
        for p in &projected {
            let mut combo = vec![0usize; extra.len()];
            loop {
                let tuple: Option<Vec<ConstId>> = target
                    .iter()
                    .map(|v| match keep.iter().position(|k| k == v) {
                        Some(i) => p.get(i).copied(),
                        None => extra
                            .iter()
                            .position(|x| x == v)
                            .and_then(|e| combo.get(e))
                            .and_then(|&c| domain.get(c))
                            .copied(),
                    })
                    .collect();
                let tuple = tuple.ok_or_else(|| {
                    CoreError::Unsupported(
                        "internal: a padding variable is neither kept nor extra".into(),
                    )
                })?;
                work.insert_tuple(padded_rel, Tuple::from(tuple), Provenance::Exogenous)?;
                if !advance_odometer(&mut combo, domain.len()) {
                    break;
                }
            }
        }
        exo_names.insert(padded_name.clone());
        *atom = Atom {
            relation: padded_name,
            terms: target.iter().map(|&v| Term::Var(v)).collect(),
            negated: false,
        };
    }
    stages.push(format!("after projection/padding: {}", render(q, &atoms)));

    // ---- Rebuild the final query ----
    let mut builder = QueryBuilder::new(format!("{}_exoshap", q.name()));
    for atom in &atoms {
        let terms: Vec<Term> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => Term::Var(builder.var(q.var_name(*v))),
                Term::Const(c) => Term::Const(c.clone()),
            })
            .collect();
        if atom.negated {
            builder.neg(&atom.relation, terms);
        } else {
            builder.pos(&atom.relation, terms);
        }
    }
    let query = builder.build()?;
    if !is_hierarchical(&query) {
        return Err(CoreError::Unsupported(format!(
            "internal: rewriting produced a non-hierarchical query {query}"
        )));
    }
    Ok(RewriteOutcome {
        db: work,
        query,
        always_false: false,
        stages,
    })
}

/// Advances `digits` (each in `0..base`, the last fastest) to the next
/// combination; `false` once they wrap around to all zeros.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the padding variables
fn advance_odometer(digits: &mut [usize], base: usize) -> bool {
    for d in digits.iter_mut().rev() {
        *d += 1;
        if *d < base {
            return true;
        }
        *d = 0;
    }
    false
}

// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over one query atom's terms
fn distinct_vars(atom: &Atom) -> Vec<Var> {
    let mut out = Vec::new();
    for t in &atom.terms {
        if let Term::Var(v) = t {
            if !out.contains(v) {
                out.push(*v);
            }
        }
    }
    out
}

fn render(q: &ConjunctiveQuery, atoms: &[Atom]) -> String {
    let parts: Vec<String> = atoms
        .iter()
        .map(|a| {
            let args: Vec<String> = a
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => q.var_name(*v).to_string(),
                    Term::Const(c) => format!("'{c}'"),
                })
                .collect();
            format!(
                "{}{}({})",
                if a.negated { "!" } else { "" },
                a.relation,
                args.join(", ")
            )
        })
        .collect();
    parts.join(", ")
}

/// Variables occurring only in exogenous atoms (over the *current* atom
/// list, which may differ from `q.atoms()` mid-rewrite).
fn exogenous_variables(
    q: &ConjunctiveQuery,
    atoms: &[Atom],
    exo_names: &HashSet<String>,
) -> BTreeSet<Var> {
    let mut exo: BTreeSet<Var> = BTreeSet::new();
    let mut non_exo: BTreeSet<Var> = BTreeSet::new();
    for atom in atoms {
        let target = if exo_names.contains(&atom.relation) {
            &mut exo
        } else {
            &mut non_exo
        };
        for t in &atom.terms {
            if let Term::Var(v) = t {
                target.insert(*v);
            }
        }
    }
    let _ = q;
    exo.difference(&non_exo).copied().collect()
}

/// Connected components of the exogenous atom graph over the current
/// atom list: exogenous atoms joined by shared *exogenous* variables.
fn atom_components(
    q: &ConjunctiveQuery,
    atoms: &[Atom],
    exo_names: &HashSet<String>,
) -> Vec<Vec<usize>> {
    let exo_vs = exogenous_variables(q, atoms, exo_names);
    let (idx, vars): (Vec<usize>, Vec<Vec<Var>>) = atoms
        .iter()
        .enumerate()
        .filter(|(_, a)| exo_names.contains(&a.relation))
        .map(|(i, a)| (i, distinct_vars(a)))
        .unzip();
    let mut parent: Vec<usize> = (0..idx.len()).collect();
    fn find(parent: &mut [usize], a: usize) -> usize {
        match parent.get(a).copied() {
            Some(p) if p != a => {
                let r = find(parent, p);
                if let Some(slot) = parent.get_mut(a) {
                    *slot = r;
                }
                r
            }
            _ => a,
        }
    }
    for (i, vi) in vars.iter().enumerate() {
        for (j, vj) in vars.iter().enumerate().skip(i + 1) {
            let shared = vj.iter().any(|v| vi.contains(v) && exo_vs.contains(v));
            if shared {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if let Some(slot) = parent.get_mut(ri).filter(|_| ri != rj) {
                    *slot = rj;
                }
            }
        }
    }
    let mut comps: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &atom) in idx.iter().enumerate() {
        let r = find(&mut parent, i);
        comps.entry(r).or_default().push(atom);
    }
    comps.into_values().collect()
}

/// Joins a component's (positive, exogenous) atoms over the database,
/// returning the distinct tuples over `comp_vars`.
fn join_component(
    work: &Database,
    q: &ConjunctiveQuery,
    sub_atoms: &[Atom],
    comp_vars: &[Var],
    tuple_budget: usize,
) -> Result<Vec<Vec<ConstId>>, CoreError> {
    let mut builder = QueryBuilder::new("qc");
    let mut head = Vec::new();
    for &v in comp_vars {
        head.push(builder.var(q.var_name(v)));
    }
    for atom in sub_atoms {
        let terms: Vec<Term> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => Term::Var(builder.var(q.var_name(*v))),
                Term::Const(c) => Term::Const(c.clone()),
            })
            .collect();
        builder.pos(&atom.relation, terms);
    }
    builder.head(head);
    let qc = builder.build()?;
    // Exogenous relations hold only exogenous facts, so the empty world
    // sees exactly the right data.
    let result = answers(work, &World::empty(work), &qc);
    if result.len() > tuple_budget {
        return Err(CoreError::Db(cqshap_db::DbError::BudgetExceeded {
            context: "component join".into(),
            budget: tuple_budget,
            required: result.len(),
        }));
    }
    Ok(result.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqshap_query::parse_cq;

    /// Example 4.1's publications database, at a small scale.
    fn publications() -> Database {
        let mut db = Database::parse(
            "exorel Pub\nexorel Citations\n\
             endo Author(alice, inst1)\nendo Author(bob, inst2)\n\
             exo Pub(alice, p1)\nexo Pub(alice, p2)\nexo Pub(bob, p3)\nexo Pub(carol, p4)\n\
             exo Citations(p1, c10)\nexo Citations(p3, c5)\n",
        )
        .unwrap();
        db.add_relation("__unused", 1).unwrap();
        db
    }

    #[test]
    fn example_4_1_rewrites_to_hierarchical() {
        let db = publications();
        let q = parse_cq("q() :- Author(x, y), Pub(x, z), Citations(z, w)").unwrap();
        let out = rewrite(&db, &q, 1_000_000).unwrap();
        assert!(!out.always_false);
        assert!(is_hierarchical(&out.query));
        assert_eq!(out.stages.len(), 4);
        // Endogenous facts preserved with identical ids.
        assert_eq!(out.db.endo_count(), db.endo_count());
        for &f in db.endo_facts() {
            assert_eq!(out.db.render_fact(f), db.render_fact(f));
        }
    }

    #[test]
    fn negated_exogenous_atom_is_complemented() {
        // q2 of the running example with Stud, Course exogenous.
        let db = Database::parse(
            "exorel Stud\nexorel Course\n\
             exo Stud(Adam)\nexo Stud(Caroline)\n\
             endo TA(Adam)\n\
             exo Course(OS, EE)\nexo Course(DB, CS)\n\
             endo Reg(Adam, OS)\nendo Reg(Caroline, DB)\n",
        )
        .unwrap();
        let q = parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')").unwrap();
        let out = rewrite(&db, &q, 1_000_000).unwrap();
        assert!(is_hierarchical(&out.query));
        // The negated non-exogenous atom ¬TA(x) must survive negated.
        let negs: Vec<&str> = out
            .query
            .atoms()
            .iter()
            .filter(|a| a.negated)
            .map(|a| a.relation.as_str())
            .collect();
        assert_eq!(negs, vec!["TA"]);
    }

    #[test]
    fn unsatisfiable_component_short_circuits() {
        // R is exogenous and empty; the component {R(u)} has no
        // non-exogenous variable and no tuples → always false.
        let mut db = Database::parse("endo S(a)\n").unwrap();
        let r = db.add_relation("R", 1).unwrap();
        db.declare_exogenous_relation(r).unwrap();
        let q = parse_cq("q() :- S(x), R(u)").unwrap();
        let out = rewrite(&db, &q, 1000).unwrap();
        assert!(out.always_false);
    }

    #[test]
    fn satisfied_constant_component_is_dropped() {
        let db = Database::parse("exorel R\nexo R(c)\nendo S(a)\n").unwrap();
        let q = parse_cq("q() :- S(x), R(u)").unwrap();
        let out = rewrite(&db, &q, 1000).unwrap();
        assert!(!out.always_false);
        let rels: Vec<&str> = out
            .query
            .atoms()
            .iter()
            .map(|a| a.relation.as_str())
            .collect();
        assert_eq!(rels, vec!["S"]);
    }

    #[test]
    fn hard_query_is_refused() {
        let db = Database::parse("endo R(a)\nexo S(a, b)\nendo T(b)\n").unwrap();
        let q = parse_cq("q() :- R(x), S(x, y), T(y)").unwrap();
        let err = rewrite(&db, &q, 1000).unwrap_err();
        assert!(matches!(err, CoreError::HasNonHierarchicalPath { .. }));
    }

    #[test]
    fn self_join_is_refused() {
        let db = Database::parse("endo R(a, b)\n").unwrap();
        let q = parse_cq("q() :- R(x, y), R(y, x)").unwrap();
        assert!(matches!(
            rewrite(&db, &q, 1000),
            Err(CoreError::NotSelfJoinFree { .. })
        ));
    }

    #[test]
    fn budget_propagates() {
        // Hierarchical query with an exogenous negated binary atom whose
        // complement (|domain|² tuples) exceeds a tiny budget.
        let mut db = Database::new();
        let p = db.add_relation("P", 2).unwrap();
        db.declare_exogenous_relation(p).unwrap();
        db.add_exo("P", &["c0", "c1"]).unwrap();
        for i in 0..6 {
            db.add_endo("R", &[&format!("c{i}"), &format!("c{}", (i + 1) % 6)])
                .unwrap();
        }
        let q = parse_cq("q() :- R(x, y), !P(x, y)").unwrap();
        let err = rewrite(&db, &q, 10).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Db(cqshap_db::DbError::BudgetExceeded { .. })
        ));
        // With a sufficient budget the same rewrite succeeds.
        assert!(rewrite(&db, &q, 100).is_ok());
    }
}
