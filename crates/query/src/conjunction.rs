//! Conjoining the disjuncts of a UCQ¬ — the building block of the
//! inclusion–exclusion lift of `CntSat` to unions (Section 5.2).
//!
//! For a union `U = q₁ ∨ ⋯ ∨ q_d` and a subset `S ⊆ [d]`, the counting
//! identity
//!
//! ```text
//! |Sat(D, U, k)| = Σ_{∅ ≠ S ⊆ [d]} (−1)^{|S|+1} |Sat(D, ⋀_{i∈S} qᵢ, k)|
//! ```
//!
//! reduces union counting to counting over *conjunctions* of CQ¬s. A
//! conjunction of Boolean CQ¬s is itself a CQ¬ once the disjuncts'
//! variables are renamed apart; this module builds it, and classifies
//! the two degenerate cases the counting layer needs to know about:
//!
//! * the conjunction is **unsatisfiable** because one disjunct asserts a
//!   ground atom another denies (its counts are identically zero, so the
//!   subset drops out of the signed sum);
//! * the conjunction **induces a self-join** because two disjuncts share
//!   a relation through non-identical atoms — the compiled hierarchical
//!   counter does not apply and the caller must fall back.
//!
//! Identical ground atoms appearing in several disjuncts are merged
//! (conjunction is idempotent), which keeps e.g. `R(0) ∧ R(0)` both
//! self-join-free and satisfiable.

use std::collections::BTreeSet;

use crate::ast::{ConjunctiveQuery, QueryBuilder, Term};
use crate::error::QueryError;

/// The conjunction of a subset of disjuncts, as the counting layer
/// consumes it.
#[derive(Debug, Clone)]
pub enum DisjunctConjunction {
    /// The conjoined CQ¬ (variables renamed apart, duplicate ground
    /// atoms merged).
    Query(ConjunctiveQuery),
    /// Two disjuncts contradict on a ground atom: `|Sat| ≡ 0` and the
    /// subset contributes nothing to the inclusion–exclusion sum.
    Unsatisfiable,
}

impl DisjunctConjunction {
    /// The conjoined query, unless the conjunction is unsatisfiable.
    pub fn as_query(&self) -> Option<&ConjunctiveQuery> {
        match self {
            DisjunctConjunction::Query(q) => Some(q),
            DisjunctConjunction::Unsatisfiable => None,
        }
    }
}

/// Conjoins Boolean CQ¬s into one CQ¬ named `name`.
///
/// Variables are renamed apart (`x` of disjunct `i` becomes `x~i`), so
/// the conjunction's homomorphisms are exactly the products of the
/// disjuncts' homomorphisms. Duplicate ground atoms are merged;
/// contradictory ground atoms short-circuit to
/// [`DisjunctConjunction::Unsatisfiable`].
///
/// # Errors
/// [`QueryError::Malformed`] when `disjuncts` is empty or a disjunct has
/// a non-empty head (conjunction is defined for Boolean queries; unions
/// enforce Boolean disjuncts by construction).
// cqshap-lint: allow(cancellation-reachability) -- bounded by the query: loops over its disjuncts' atoms
pub fn conjoin_disjuncts(
    name: &str,
    disjuncts: &[&ConjunctiveQuery],
) -> Result<DisjunctConjunction, QueryError> {
    if disjuncts.is_empty() {
        return Err(QueryError::Malformed(
            "conjunction of zero disjuncts".into(),
        ));
    }
    if let Some(d) = disjuncts.iter().find(|d| !d.is_boolean()) {
        return Err(QueryError::Malformed(format!(
            "disjunct {} has a non-empty head",
            d.name()
        )));
    }
    let mut builder = QueryBuilder::new(name);
    let mut ground_seen: BTreeSet<(String, Vec<String>, bool)> = BTreeSet::new();
    for (i, d) in disjuncts.iter().enumerate() {
        for atom in d.atoms() {
            let terms: Vec<Term> = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Term::constant(c),
                    Term::Var(v) => {
                        // Rename apart: unique because every variable of
                        // disjunct i gets the same `~i` suffix and the
                        // suffix decomposes unambiguously from the right.
                        Term::Var(builder.var(&format!("{}~{i}", d.var_name(*v))))
                    }
                })
                .collect();
            if let Some(consts) = ground_key(&terms) {
                let pos_key = (atom.relation.clone(), consts.clone(), !atom.negated);
                if ground_seen.contains(&pos_key) {
                    // The opposite polarity of this exact ground atom was
                    // already asserted: the conjunction cannot hold.
                    return Ok(DisjunctConjunction::Unsatisfiable);
                }
                if !ground_seen.insert((atom.relation.clone(), consts, atom.negated)) {
                    continue; // identical ground atom already present
                }
            }
            if atom.negated {
                builder.neg(&atom.relation, terms);
            } else {
                builder.pos(&atom.relation, terms);
            }
        }
    }
    Ok(DisjunctConjunction::Query(builder.build()?))
}

/// The constant names of a fully-ground term list, or `None` if the
/// atom has a variable.
fn ground_key(terms: &[Term]) -> Option<Vec<String>> {
    terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(_) => None,
        })
        .collect()
}

/// A human-readable label for the subset of a union's disjuncts selected
/// by `mask` (bit `i` = disjunct `i`), e.g. `q1 ∧ q3`.
pub fn subset_label(disjuncts: &[ConjunctiveQuery], mask: usize) -> String {
    let names: Vec<&str> = disjuncts
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, d)| d.name())
        .collect();
    names.join(" ∧ ")
}

/// The relation shared by two *distinct* atoms of `q`, if any — the
/// witness that a conjunction induced a self-join.
// cqshap-lint: allow(cancellation-reachability) -- bounded by the query: loops over its atoms, terms and variables
pub fn self_join_witness(q: &ConjunctiveQuery) -> Option<&str> {
    let atoms = q.atoms();
    for (i, a) in atoms.iter().enumerate() {
        if atoms[i + 1..].iter().any(|b| b.relation == a.relation) {
            return Some(&a.relation);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_cq, parse_ucq};

    fn conjoin_texts(texts: &[&str]) -> DisjunctConjunction {
        let qs: Vec<ConjunctiveQuery> = texts.iter().map(|t| parse_cq(t).unwrap()).collect();
        let refs: Vec<&ConjunctiveQuery> = qs.iter().collect();
        conjoin_disjuncts("conj", &refs).unwrap()
    }

    #[test]
    fn renames_variables_apart() {
        let c = conjoin_texts(&["q1() :- R(x), !S(x)", "q2() :- T(x, y)"]);
        let q = c.as_query().unwrap();
        assert_eq!(q.to_string(), "conj() :- R(x~0), !S(x~0), T(x~1, y~1)");
        assert_eq!(q.var_count(), 3);
        assert!(crate::analysis::is_safe(q));
    }

    #[test]
    fn merges_duplicate_ground_atoms() {
        let c = conjoin_texts(&["q1() :- R(0)", "q2() :- R(0), S(x)"]);
        let q = c.as_query().unwrap();
        assert_eq!(q.atoms().len(), 2);
        assert!(self_join_witness(q).is_none());
    }

    #[test]
    fn detects_ground_contradiction() {
        let c = conjoin_texts(&["q1() :- R(0), S(x)", "q2() :- T(x), !R(0)"]);
        assert!(matches!(c, DisjunctConjunction::Unsatisfiable));
        assert!(conjoin_texts(&["q1() :- R(0)", "q2() :- !R(0)"])
            .as_query()
            .is_none());
    }

    #[test]
    fn shared_relations_become_self_joins() {
        let c = conjoin_texts(&["q1() :- R(x), S(x)", "q2() :- R(y)"]);
        let q = c.as_query().unwrap();
        assert_eq!(self_join_witness(q), Some("R"));
    }

    #[test]
    fn suffixes_cannot_collide() {
        // Disjunct 0's variable is literally named `x~1` — impossible
        // through the parser ([alnum_] identifiers only) but legal via
        // the builder. Disjunct 1 uses `x`, whose renamed form is the
        // clashing-looking `x~1`; the suffix decomposes unambiguously
        // from the right, so the two stay distinct.
        let mut b = QueryBuilder::new("q1");
        let v = b.var("x~1");
        b.pos("R", [b.v(v)]);
        let a = b.build().unwrap();
        let other = parse_cq("q2() :- S(x)").unwrap();
        let c = conjoin_disjuncts("conj", &[&a, &other]).unwrap();
        let q = c.as_query().unwrap();
        assert_eq!(q.var_count(), 2);
        assert_eq!(q.to_string(), "conj() :- R(x~1~0), S(x~1)");
    }

    #[test]
    fn rejects_empty_and_headed_inputs() {
        assert!(conjoin_disjuncts("conj", &[]).is_err());
        let headed = parse_cq("q(x) :- R(x)").unwrap();
        assert!(conjoin_disjuncts("conj", &[&headed]).is_err());
    }

    #[test]
    fn subset_labels() {
        let u = parse_ucq("qa() :- R(x); qb() :- S(x); qc() :- T(x)").unwrap();
        assert_eq!(subset_label(u.disjuncts(), 0b101), "qa ∧ qc");
        assert_eq!(subset_label(u.disjuncts(), 0b010), "qb");
    }
}
