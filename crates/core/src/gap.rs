//! The gap-property violation (Theorem 5.1).
//!
//! For positive CQs, a nonzero Shapley value is at least the reciprocal
//! of a polynomial in `|D|` (the *gap property*), which turns the
//! additive FPRAS into a multiplicative one. Theorem 5.1 shows that
//! *every* satisfiable, constant-free, positively-connected CQ¬ with at
//! least one negated atom admits databases where a nonzero Shapley value
//! is `2^{-Θ(n)}`:
//!
//! * `n` gadget copies `(D_q, f_i)` with `D_q ⊭ q` but `D_q ∖ {f_i} ⊨ q`
//!   — all of `f_1,…,f_n` must precede the distinguished fact;
//! * `n+1` minimal-model copies `(D'_q, f_i)` with `D'_q ⊨ q` but
//!   `D'_q ∖ {f_i} ⊭ q` — none of `f_{n+1},…,f_{2n}` may precede it;
//!
//! leaving exactly one admissible coalition, of size `n`, out of `2n+1`
//! players: `Shapley = n!·n!/(2n+1)!`.
//!
//! This module constructs the family for arbitrary qualifying queries
//! (searching for minimal models over variable-identification quotients)
//! and provides the Section 5.1 example `q() :- R(x), S(x,y), ¬R(y)`
//! directly.
// cqshap-lint: allow-file(no-panic, no-panic-index) -- Theorem 5.1 gadget builder: it owns the database it populates, names are fresh by construction, and the static query literal parses

use cqshap_db::{Database, FactId, Provenance, Tuple, World};
use cqshap_engine::satisfies;
use cqshap_numeric::{BigInt, BigRational, FactorialTable};
use cqshap_query::{is_positively_connected, parse_cq, ConjunctiveQuery, Term};

use crate::error::CoreError;

/// A database family member exhibiting an exponentially small value.
#[derive(Debug, Clone)]
pub struct GapInstance {
    /// The database (`|Dn| = 2n + 1`).
    pub db: Database,
    /// The distinguished fact `f_0`.
    pub f0: FactId,
    /// The scale parameter.
    pub n: usize,
    /// `|Shapley(D, q, f0)| = n!·n!/(2n+1)!`, exactly.
    pub expected_abs: BigRational,
}

/// `n!·n!/(2n+1)!` — the exact magnitude Theorem 5.1's construction
/// yields (≤ 2^{-n}).
pub fn expected_gap_value(n: usize) -> BigRational {
    let t = FactorialTable::new(2 * n + 1);
    BigRational::from_parts(
        BigInt::from_biguint(t.factorial(n) * t.factorial(n)),
        t.factorial(2 * n + 1).clone(),
    )
}

/// The Section 5.1 example: `q() :- R(x), S(x,y), ¬R(y)` with the
/// explicit database of the paper. Returns the query too.
pub fn section_5_1_example(n: usize) -> (ConjunctiveQuery, GapInstance) {
    assert!(n >= 1, "the construction needs n >= 1");
    let q = parse_cq("q() :- R(x), S(x, y), !R(y)").expect("static query parses");
    let mut db = Database::new();
    for i in 0..=2 * n {
        db.add_exo("S", &[&format!("cx{i}"), &format!("cy{i}")])
            .unwrap();
    }
    for i in 1..=n {
        db.add_exo("R", &[&format!("cx{i}")]).unwrap();
        db.add_endo("R", &[&format!("cy{i}")]).unwrap();
    }
    let f0 = db.add_endo("R", &["cx0"]).unwrap();
    for i in n + 1..=2 * n {
        db.add_endo("R", &[&format!("cx{i}")]).unwrap();
    }
    let expected_abs = expected_gap_value(n);
    (
        q,
        GapInstance {
            db,
            f0,
            n,
            expected_abs,
        },
    )
}

/// Builds the Theorem 5.1 family member at scale `n` for an arbitrary
/// qualifying CQ¬.
///
/// # Errors
/// [`CoreError::GapConstruction`] when `q` has constants, lacks negated
/// atoms, is not positively connected, or is unsatisfiable.
pub fn build_gap_family(q: &ConjunctiveQuery, n: usize) -> Result<GapInstance, CoreError> {
    if n == 0 {
        return Err(CoreError::GapConstruction("n must be at least 1".into()));
    }
    if q.has_constants() {
        return Err(CoreError::GapConstruction(
            "query must be constant-free".into(),
        ));
    }
    if q.negative_atom_indices().next().is_none() {
        return Err(CoreError::GapConstruction(
            "query must have a negated atom".into(),
        ));
    }
    if !is_positively_connected(q) {
        return Err(CoreError::GapConstruction(
            "query must be positively connected".into(),
        ));
    }

    // D'_q: a minimal satisfying database (every fact critical).
    let minimal = find_minimal_model(q)
        .ok_or_else(|| CoreError::GapConstruction("query is unsatisfiable".into()))?;
    // D_q: saturate negated relations until the query flips to false;
    // the last added fact is the gadget's endogenous fact.
    let gadget = build_violating_gadget(q, &minimal)?;

    let mut db = Database::new();
    let mut f0 = None;
    // Copy 0 and copies n+1..=2n: minimal models.
    for i in std::iter::once(0usize).chain(n + 1..=2 * n) {
        let f = append_copy(&mut db, &minimal.facts, minimal.critical, &format!("k{i}_"));
        if i == 0 {
            f0 = Some(f);
        }
    }
    // Copies 1..=n: violating gadgets.
    for i in 1..=n {
        append_copy(&mut db, &gadget.facts, gadget.critical, &format!("k{i}_"));
    }
    Ok(GapInstance {
        db,
        f0: f0.expect("copy 0 built"),
        n,
        expected_abs: expected_gap_value(n),
    })
}

/// A small fact list plus the index of its one endogenous ("critical")
/// fact.
struct FactList {
    /// `(relation, tuple of constant names)`.
    facts: Vec<(String, Vec<String>)>,
    /// Index of the critical fact within `facts`.
    critical: usize,
}

fn materialize(facts: &[(String, Vec<String>)]) -> Database {
    let mut db = Database::new();
    for (rel, args) in facts {
        let refs: Vec<&str> = args.iter().map(|s| &**s).collect();
        db.add_exo(rel, &refs).expect("gadget facts are distinct");
    }
    db
}

fn model_satisfies(q: &ConjunctiveQuery, facts: &[(String, Vec<String>)]) -> bool {
    let db = materialize(facts);
    satisfies(&db, &World::empty(&db), q)
}

/// Searches for a minimal satisfying database over variable quotients:
/// a constant-free CQ¬ is satisfiable iff some identification of its
/// variables maps the positive atoms to a fact set avoiding all negated
/// atom images. Greedy fact removal then enforces minimality, so every
/// remaining fact is critical.
fn find_minimal_model(q: &ConjunctiveQuery) -> Option<FactList> {
    let nvars = q.var_count();
    let assignment = try_partitions(q, &mut vec![0usize; nvars], 0, 0)?;
    let mut facts: Vec<(String, Vec<String>)> = Vec::new();
    for atom in q.atoms().iter().filter(|a| !a.negated) {
        let tuple: Vec<String> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => format!("m{}", assignment[v.index()]),
                Term::Const(_) => unreachable!("constant-free precondition"),
            })
            .collect();
        let entry = (atom.relation.clone(), tuple);
        if !facts.contains(&entry) {
            facts.push(entry);
        }
    }
    if !model_satisfies(q, &facts) {
        return None;
    }
    // Greedy minimization to a fixpoint.
    loop {
        let mut removed = false;
        for i in 0..facts.len() {
            let mut smaller = facts.clone();
            smaller.remove(i);
            if model_satisfies(q, &smaller) {
                facts = smaller;
                removed = true;
                break;
            }
        }
        if !removed {
            break;
        }
    }
    // Every remaining fact is critical; use the first.
    Some(FactList { facts, critical: 0 })
}

/// Enumerates set partitions of the variables in restricted-growth form,
/// returning the first whose canonical database satisfies `q`.
fn try_partitions(
    q: &ConjunctiveQuery,
    assignment: &mut Vec<usize>,
    idx: usize,
    max_block: usize,
) -> Option<Vec<usize>> {
    if idx == assignment.len() {
        let facts: Vec<(String, Vec<String>)> = {
            let mut out = Vec::new();
            for atom in q.atoms().iter().filter(|a| !a.negated) {
                let tuple: Vec<String> = atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => format!("m{}", assignment[v.index()]),
                        Term::Const(_) => unreachable!("constant-free precondition"),
                    })
                    .collect();
                let entry = (atom.relation.clone(), tuple);
                if !out.contains(&entry) {
                    out.push(entry);
                }
            }
            out
        };
        return model_satisfies(q, &facts).then(|| assignment.clone());
    }
    for b in 0..=max_block {
        assignment[idx] = b;
        let next_max = if b == max_block {
            max_block + 1
        } else {
            max_block
        };
        if let Some(found) = try_partitions(q, assignment, idx + 1, next_max) {
            return Some(found);
        }
    }
    None
}

/// Builds `D_q` (gadget with `D_q ⊭ q`, `D_q ∖ {last} ⊨ q`) by adding
/// domain tuples to the negated relations one at a time.
fn build_violating_gadget(q: &ConjunctiveQuery, minimal: &FactList) -> Result<FactList, CoreError> {
    let mut facts = minimal.facts.clone();
    // The active domain of the minimal model.
    let mut domain: Vec<String> = Vec::new();
    for (_, args) in &facts {
        for a in args {
            if !domain.contains(a) {
                domain.push(a.clone());
            }
        }
    }
    // Negated relations (deduplicated, in atom order) with their arities.
    let mut neg_rels: Vec<(String, usize)> = Vec::new();
    for i in q.negative_atom_indices() {
        let atom = &q.atoms()[i];
        let entry = (atom.relation.clone(), atom.terms.len());
        if !neg_rels.contains(&entry) {
            neg_rels.push(entry);
        }
    }
    for (rel, arity) in neg_rels {
        let mut combo = vec![0usize; arity];
        loop {
            let tuple: Vec<String> = combo.iter().map(|&i| domain[i].clone()).collect();
            let entry = (rel.clone(), tuple);
            if !facts.contains(&entry) {
                facts.push(entry);
                if !model_satisfies(q, &facts) {
                    let critical = facts.len() - 1;
                    return Ok(FactList { facts, critical });
                }
            }
            // Odometer.
            let mut pos = arity;
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                combo[pos] += 1;
                if combo[pos] < domain.len() {
                    break;
                }
                combo[pos] = 0;
                if pos == 0 {
                    break;
                }
            }
            if arity == 0 || combo.iter().all(|&c| c == 0) {
                break;
            }
        }
    }
    Err(CoreError::GapConstruction(
        "saturating the negated relations never violated the query".into(),
    ))
}

/// Appends a renamed copy of `facts` to `db`; the critical fact becomes
/// endogenous, everything else exogenous. Returns the critical fact's id.
fn append_copy(
    db: &mut Database,
    facts: &[(String, Vec<String>)],
    critical: usize,
    prefix: &str,
) -> FactId {
    let mut out = None;
    for (i, (rel, args)) in facts.iter().enumerate() {
        let rel_id = db.add_relation(rel, args.len()).expect("consistent arity");
        let tuple: Vec<cqshap_db::ConstId> = args
            .iter()
            .map(|a| db.intern(&format!("{prefix}{a}")))
            .collect();
        let provenance = if i == critical {
            Provenance::Endogenous
        } else {
            Provenance::Exogenous
        };
        let fid = db
            .insert_tuple(rel_id, Tuple::from(tuple), provenance)
            .expect("fresh facts");
        if i == critical {
            out = Some(fid);
        }
    }
    out.expect("critical fact inserted")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anyquery::AnyQuery;
    use crate::satcount::BruteForceCounter;
    use crate::shapley::{shapley_by_permutations, shapley_via_counts};

    #[test]
    fn expected_value_decays_exponentially() {
        for n in 1..=40usize {
            let v = expected_gap_value(n);
            assert!(v.is_positive());
            // n!n!/(2n+1)! = 1/((2n+1)·C(2n,n)) ≤ 2^-n.
            let bound = BigRational::from_i64_ratio(1, 1 << n.min(62));
            assert!(v <= bound, "n={n}");
        }
    }

    #[test]
    fn section_5_1_example_matches_brute_force() {
        for n in 1..=2usize {
            let (q, inst) = section_5_1_example(n);
            assert_eq!(inst.db.endo_count(), 2 * n + 1);
            let v = shapley_via_counts(
                &inst.db,
                AnyQuery::Cq(&q),
                inst.f0,
                &BruteForceCounter::default(),
            )
            .unwrap();
            assert_eq!(v.abs(), inst.expected_abs, "n={n}");
            assert!(v.is_positive());
        }
    }

    #[test]
    fn general_construction_on_section_5_1_query() {
        let q = parse_cq("q() :- R(x), S(x, y), !R(y)").unwrap();
        for n in 1..=2usize {
            let inst = build_gap_family(&q, n).unwrap();
            assert_eq!(inst.db.endo_count(), 2 * n + 1);
            let v = shapley_by_permutations(&inst.db, AnyQuery::Cq(&q), inst.f0, 9, None).unwrap();
            assert_eq!(v.abs(), inst.expected_abs, "n={n}");
            assert!(!v.is_zero());
        }
    }

    #[test]
    fn general_construction_on_other_queries() {
        for text in [
            "q() :- R(x), S(x, y), !T(y)",
            "q() :- A(x), !B(x)",
            "q() :- R(x, y), !R(y, x)",
        ] {
            let q = parse_cq(text).unwrap();
            let inst = build_gap_family(&q, 1).unwrap();
            let v = shapley_by_permutations(&inst.db, AnyQuery::Cq(&q), inst.f0, 9, None).unwrap();
            assert_eq!(v.abs(), inst.expected_abs, "{text}");
            assert!(!v.is_zero(), "{text}");
        }
    }

    #[test]
    fn preconditions_enforced() {
        let with_const = parse_cq("q() :- R(x), !S(x, 'c')").unwrap();
        assert!(matches!(
            build_gap_family(&with_const, 1),
            Err(CoreError::GapConstruction(_))
        ));
        let no_neg = parse_cq("q() :- R(x), S(x, y)").unwrap();
        assert!(matches!(
            build_gap_family(&no_neg, 1),
            Err(CoreError::GapConstruction(_))
        ));
        let disconnected = parse_cq("q() :- R(x), T(y), !S(x, y)").unwrap();
        assert!(matches!(
            build_gap_family(&disconnected, 1),
            Err(CoreError::GapConstruction(_))
        ));
        let unsat = parse_cq("q() :- R(x, x), !R(x, x)").unwrap();
        assert!(matches!(
            build_gap_family(&unsat, 1),
            Err(CoreError::GapConstruction(_))
        ));
        let (q, _) = section_5_1_example(1);
        assert!(matches!(
            build_gap_family(&q, 0),
            Err(CoreError::GapConstruction(_))
        ));
    }
}
