//! The seed lifted-inference traversal, retained as a reference oracle.
//!
//! Production evaluation routes through
//! [`cqshap_core::CompiledProbability`] — the compiled
//! resolution/scope/component/root-group pipeline instantiated at the
//! probability domain — so this module no longer backs
//! [`crate::ProbDatabase::query_probability`]. It survives as an
//! *independent implementation of the same recursion* (`CntSat` with
//! probabilities in place of counts: component probabilities multiply,
//! the disjunction over root values becomes `1 − Π (1 − P_c)`), used by
//! the proptests to pin the unified path and by the bench harness as the
//! uncompiled baseline. Arithmetic is exact [`BigRational`], so oracle
//! comparisons are bit-identical, not epsilon-close.
#![expect(
    clippy::indexing_slicing,
    reason = "lifted inference indexes per-atom tables sized at build"
)]

use cqshap_core::{CoreError, FactProbabilities};
use cqshap_db::{ConstId, Database, FactId};
use cqshap_numeric::BigRational;
use cqshap_query::{has_self_join, is_hierarchical, ConjunctiveQuery, Term};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LiftedTerm {
    Var(u32),
    Const(ConstId),
}

#[derive(Debug, Clone)]
pub(crate) struct LiftedAtom {
    pub(crate) negated: bool,
    pub(crate) terms: Vec<LiftedTerm>,
}

impl LiftedAtom {
    pub(crate) fn matches(&self, values: &[ConstId]) -> bool {
        let mut bound: Vec<(u32, ConstId)> = Vec::new();
        for (t, &val) in self.terms.iter().zip(values) {
            match t {
                LiftedTerm::Const(c) => {
                    if *c != val {
                        return false;
                    }
                }
                LiftedTerm::Var(v) => match bound.iter().find(|(bv, _)| bv == v) {
                    Some((_, bval)) => {
                        if *bval != val {
                            return false;
                        }
                    }
                    None => bound.push((*v, val)),
                },
            }
        }
        true
    }

    fn has_vars(&self) -> bool {
        self.terms.iter().any(|t| matches!(t, LiftedTerm::Var(_)))
    }

    fn vars(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .terms
            .iter()
            .filter_map(|t| match t {
                LiftedTerm::Var(v) => Some(*v),
                LiftedTerm::Const(_) => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[expect(
        clippy::unreachable,
        reason = "callers scan variables collected from this atom's own terms"
    )]
    fn value_of(&self, v: u32, values: &[ConstId]) -> ConstId {
        for (t, &val) in self.terms.iter().zip(values) {
            if *t == LiftedTerm::Var(v) {
                return val;
            }
        }
        unreachable!("variable does not occur in atom");
    }

    fn substitute(&self, v: u32, c: ConstId) -> LiftedAtom {
        LiftedAtom {
            negated: self.negated,
            terms: self
                .terms
                .iter()
                .map(|t| {
                    if *t == LiftedTerm::Var(v) {
                        LiftedTerm::Const(c)
                    } else {
                        *t
                    }
                })
                .collect(),
        }
    }
}

/// `Pr[D ⊨ q]` by the seed traversal: atom resolution against the
/// database, then the uncompiled lifted-inference recursion. Exogenous
/// facts are deterministic; endogenous facts draw from `probs`.
///
/// # Errors
/// [`CoreError::NotSelfJoinFree`] / [`CoreError::NotHierarchical`] when
/// the structural preconditions fail, exactly like the compiled path.
pub fn oracle_probability(
    db: &Database,
    probs: &FactProbabilities,
    q: &ConjunctiveQuery,
) -> Result<BigRational, CoreError> {
    if has_self_join(q) {
        return Err(CoreError::NotSelfJoinFree {
            query: q.to_string(),
        });
    }
    if !is_hierarchical(q) {
        return Err(CoreError::NotHierarchical {
            query: q.to_string(),
        });
    }
    let mut atoms: Vec<LiftedAtom> = Vec::new();
    let mut scopes: Vec<Vec<FactId>> = Vec::new();
    for atom in q.atoms() {
        let rel = db.schema().id(&atom.relation);
        let mut unknown = false;
        let terms: Vec<LiftedTerm> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => LiftedTerm::Var(v.0),
                Term::Const(name) => match db.interner().get(name) {
                    Some(c) => LiftedTerm::Const(c),
                    None => {
                        unknown = true;
                        LiftedTerm::Var(u32::MAX)
                    }
                },
            })
            .collect();
        if rel.is_none() || unknown {
            if atom.negated {
                continue; // the negated fact can never exist
            }
            return Ok(BigRational::zero()); // unsatisfiable positive atom
        }
        let a = LiftedAtom {
            negated: atom.negated,
            terms,
        };
        #[expect(
            clippy::expect_used,
            reason = "the guard above returns early unless a relation matched"
        )]
        let rel = rel.expect("checked");
        let scope: Vec<FactId> = db
            .relation_facts(rel)
            .iter()
            .copied()
            .filter(|&f| a.matches(db.fact(f).tuple.values()))
            .collect();
        atoms.push(a);
        scopes.push(scope);
    }
    if atoms.is_empty() {
        return Ok(BigRational::one()); // all atoms were vacuous negations
    }
    // Dense per-fact presence probabilities (deterministic facts at 1).
    let dense: Vec<BigRational> = db
        .fact_ids()
        .map(|f| {
            if db.endo_index(f).is_some() {
                probs.get(f).clone()
            } else {
                BigRational::one()
            }
        })
        .collect();
    Ok(probability(db, &dense, &atoms, &scopes))
}

/// `Pr[q satisfied]` for pattern-filtered scopes (every fact in
/// `scopes[i]` matches `atoms[i]`).
fn probability(
    db: &Database,
    probs: &[BigRational],
    atoms: &[LiftedAtom],
    scopes: &[Vec<FactId>],
) -> BigRational {
    // Ground base case.
    if atoms.iter().all(|a| !a.has_vars()) {
        let mut p = BigRational::one();
        for (atom, scope) in atoms.iter().zip(scopes) {
            debug_assert!(scope.len() <= 1);
            let present = scope
                .first()
                .map_or(BigRational::zero(), |&f| probs[f.index()].clone());
            let factor = if atom.negated {
                BigRational::one() - &present
            } else {
                present
            };
            p = p * &factor;
            if p.is_zero() {
                return p;
            }
        }
        return p;
    }

    // Disconnected components multiply.
    let comps = components(atoms);
    if comps.len() > 1 {
        let mut p = BigRational::one();
        for comp in comps {
            let sub_atoms: Vec<LiftedAtom> = comp.iter().map(|&i| atoms[i].clone()).collect();
            let sub_scopes: Vec<Vec<FactId>> = comp.iter().map(|&i| scopes[i].clone()).collect();
            p = p * &probability(db, probs, &sub_atoms, &sub_scopes);
            if p.is_zero() {
                return p;
            }
        }
        return p;
    }

    // Connected with variables: decompose over the root variable.
    #[expect(
        clippy::expect_used,
        reason = "hierarchical connected sub-queries always expose a root variable"
    )]
    let root = find_root(atoms).expect("hierarchical connected sub-query has a root variable");
    let mut candidates: Option<Vec<ConstId>> = None;
    for (atom, scope) in atoms.iter().zip(scopes) {
        if atom.negated {
            continue;
        }
        let mut vals: Vec<ConstId> = scope
            .iter()
            .map(|&f| atom.value_of(root, db.fact(f).tuple.values()))
            .collect();
        vals.sort_unstable();
        vals.dedup();
        candidates = Some(match candidates {
            None => vals,
            Some(prev) => prev
                .into_iter()
                .filter(|c| vals.binary_search(c).is_ok())
                .collect(),
        });
    }
    #[expect(
        clippy::expect_used,
        reason = "a connected sub-query contains at least one positive atom"
    )]
    let candidates = candidates.expect("connected sub-query has a positive atom");
    let mut p_unsat = BigRational::one();
    for c in candidates {
        let sub_atoms: Vec<LiftedAtom> = atoms.iter().map(|a| a.substitute(root, c)).collect();
        let sub_scopes: Vec<Vec<FactId>> = atoms
            .iter()
            .zip(scopes)
            .map(|(atom, scope)| {
                scope
                    .iter()
                    .copied()
                    .filter(|&f| atom.value_of(root, db.fact(f).tuple.values()) == c)
                    .collect()
            })
            .collect();
        let p_c = probability(db, probs, &sub_atoms, &sub_scopes);
        p_unsat = p_unsat * &(BigRational::one() - &p_c);
        if p_unsat.is_zero() {
            return BigRational::one();
        }
    }
    BigRational::one() - &p_unsat
}

fn components(atoms: &[LiftedAtom]) -> Vec<Vec<usize>> {
    let n = atoms.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, a: usize) -> usize {
        if parent[a] == a {
            a
        } else {
            let r = find(parent, parent[a]);
            parent[a] = r;
            r
        }
    }
    for i in 0..n {
        for j in i + 1..n {
            let vi = atoms[i].vars();
            if atoms[j].vars().iter().any(|v| vi.binary_search(v).is_ok()) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut out: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..n {
        let r = find(&mut parent, i);
        out.entry(r).or_default().push(i);
    }
    out.into_values().collect()
}

fn find_root(atoms: &[LiftedAtom]) -> Option<u32> {
    let first = atoms.first()?.vars();
    first
        .into_iter()
        .find(|v| atoms.iter().all(|a| a.vars().binary_search(v).is_ok()))
}
