//! The seed lifted-inference traversal, kept as the probability oracle.
//!
//! Production evaluation routes through [`crate::CompiledProbability`],
//! the compiled pipeline instantiated at the probability domain. This
//! module is an *independent implementation of the same recursion*
//! (`CntSat` with probabilities in place of counts: component
//! probabilities multiply, the disjunction over root values becomes
//! `1 − Π (1 − P_c)`), used by the proptests to pin the compiled path
//! and by the bench harness as the uncompiled baseline. Arithmetic is
//! exact [`BigRational`], so oracle comparisons are bit-identical, not
//! epsilon-close.

use cqshap_db::{ConstId, Database, FactId};
use cqshap_numeric::BigRational;
use cqshap_query::{has_self_join, is_hierarchical, ConjunctiveQuery, Term};

use crate::domain::FactProbabilities;
use crate::error::CoreError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LiftedTerm {
    Var(u32),
    Const(ConstId),
}

/// A query atom resolved against the database, with the facts it can
/// match (every fact of `scope` matches the atom's pattern).
#[derive(Debug, Clone)]
struct LiftedAtom {
    negated: bool,
    terms: Vec<LiftedTerm>,
    scope: Vec<FactId>,
}

impl LiftedAtom {
    // cqshap-lint: allow(cancellation-reachability) -- bounded by the atom's arity
    fn matches(&self, values: &[ConstId]) -> bool {
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

    /// The constant a fact of this atom binds `v` to (`None` when `v`
    /// does not occur in the atom).
    fn value_of(&self, v: u32, values: &[ConstId]) -> Option<ConstId> {
        self.terms
            .iter()
            .zip(values)
            .find(|(t, _)| **t == LiftedTerm::Var(v))
            .map(|(_, &val)| val)
    }

    /// The atom with `v` bound to `c`, its scope narrowed to the facts
    /// agreeing with the binding.
    fn substitute(&self, db: &Database, v: u32, c: ConstId) -> LiftedAtom {
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
            scope: self
                .scope
                .iter()
                .copied()
                .filter(|&f| self.value_of(v, db.fact(f).tuple.values()) == Some(c))
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
    for atom in q.atoms() {
        let terms: Option<Vec<LiftedTerm>> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => Some(LiftedTerm::Var(v.0)),
                Term::Const(name) => db.interner().get(name).map(LiftedTerm::Const),
            })
            .collect();
        let (Some(rel), Some(terms)) = (db.schema().id(&atom.relation), terms) else {
            if atom.negated {
                continue; // the negated fact can never exist
            }
            return Ok(BigRational::zero()); // unsatisfiable positive atom
        };
        let mut lifted = LiftedAtom {
            negated: atom.negated,
            terms,
            scope: Vec::new(),
        };
        lifted.scope = db
            .relation_facts(rel)
            .iter()
            .copied()
            .filter(|&f| lifted.matches(db.fact(f).tuple.values()))
            .collect();
        atoms.push(lifted);
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
    Ok(probability(db, &dense, &atoms))
}

/// `Pr[q satisfied]` for atoms with pattern-filtered scopes.
fn probability(db: &Database, probs: &[BigRational], atoms: &[LiftedAtom]) -> BigRational {
    // Ground base case.
    if atoms.iter().all(|a| !a.has_vars()) {
        let mut p = BigRational::one();
        for atom in atoms {
            debug_assert!(atom.scope.len() <= 1);
            let present = atom
                .scope
                .first()
                .and_then(|f| probs.get(f.index()))
                .cloned()
                .unwrap_or_else(BigRational::zero);
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
            p = p * &probability(db, probs, &comp);
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
    for atom in atoms.iter().filter(|a| !a.negated) {
        let mut vals: Vec<ConstId> = atom
            .scope
            .iter()
            .filter_map(|&f| atom.value_of(root, db.fact(f).tuple.values()))
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
        let sub: Vec<LiftedAtom> = atoms.iter().map(|a| a.substitute(db, root, c)).collect();
        let p_c = probability(db, probs, &sub);
        p_unsat = p_unsat * &(BigRational::one() - &p_c);
        if p_unsat.is_zero() {
            return BigRational::one();
        }
    }
    BigRational::one() - &p_unsat
}

/// The connected components of the atoms' shared-variable graph, each
/// in the atoms' original order.
fn components(atoms: &[LiftedAtom]) -> Vec<Vec<LiftedAtom>> {
    // (variables, atom indices) per component found so far; an atom
    // joins every component it shares a variable with.
    let mut comps: Vec<(Vec<u32>, Vec<usize>)> = Vec::new();
    for (i, atom) in atoms.iter().enumerate() {
        let mut vars = atom.vars();
        let (joined, apart): (Vec<_>, Vec<_>) = comps
            .into_iter()
            .partition(|(cv, _)| cv.iter().any(|v| vars.binary_search(v).is_ok()));
        let mut members = vec![i];
        for (cv, cm) in joined {
            vars.extend(cv);
            members.extend(cm);
        }
        vars.sort_unstable();
        vars.dedup();
        members.sort_unstable();
        comps = apart;
        comps.push((vars, members));
    }
    comps.sort_unstable_by_key(|(_, members)| members.first().copied());
    comps
        .into_iter()
        .map(|(_, members)| {
            members
                .into_iter()
                .filter_map(|i| atoms.get(i).cloned())
                .collect()
        })
        .collect()
}

fn find_root(atoms: &[LiftedAtom]) -> Option<u32> {
    let first = atoms.first()?.vars();
    first
        .into_iter()
        .find(|v| atoms.iter().all(|a| a.vars().binary_search(v).is_ok()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anyquery::AnyQuery;
    use crate::domain::probability_by_enumeration;
    use cqshap_query::parse_cq;

    fn rat(p: i64, q: i64) -> BigRational {
        BigRational::from_i64_ratio(p, q)
    }

    fn university() -> Database {
        Database::parse(
            "exo Stud(Adam)\nexo Stud(Ben)\nexo Stud(Caroline)\nexo Stud(David)\n\
             endo TA(Adam)\nendo TA(Ben)\nendo TA(David)\n\
             exo Course(OS, EE)\nexo Course(IC, EE)\nexo Course(DB, CS)\nexo Course(AI, CS)\n\
             endo Reg(Adam, OS)\nendo Reg(Adam, AI)\nendo Reg(Ben, OS)\n\
             endo Reg(Caroline, DB)\nendo Reg(Caroline, IC)\n",
        )
        .unwrap()
    }

    #[test]
    fn oracle_matches_enumeration_on_the_running_example() {
        let db = university();
        let mut probs = FactProbabilities::uniform(rat(1, 2));
        let cycle = [rat(1, 10), rat(3, 10), rat(0, 1), rat(7, 10), rat(1, 1)];
        for (&f, p) in db.endo_facts().iter().zip(cycle.iter().cycle()) {
            probs.set(f, p.clone());
        }
        for text in [
            "q() :- Stud(x), !TA(x), Reg(x, y)",
            "q() :- Reg(x, y)",
            "q() :- TA(x), Reg(x, y)",
            "q() :- Stud(x), !TA(x)",
            "q() :- Reg(x, 'OS'), !TA(x)",
            "q() :- TA(x), Course(y, 'CS')",
            // Vacuous and unsatisfiable atoms.
            "q() :- Ghost(x)",
            "q() :- !Ghost('a')",
            "q() :- Stud(x), !TA('Nobody')",
        ] {
            let q = parse_cq(text).unwrap();
            let want = probability_by_enumeration(&db, AnyQuery::Cq(&q), &probs, None, 20).unwrap();
            assert_eq!(oracle_probability(&db, &probs, &q).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn oracle_refuses_outside_its_fragment() {
        let db = university();
        let probs = FactProbabilities::uniform(rat(1, 2));
        let path = parse_cq("q() :- Stud(x), Reg(x, y), Course(y, z)").unwrap();
        assert!(matches!(
            oracle_probability(&db, &probs, &path),
            Err(CoreError::NotHierarchical { .. })
        ));
        let self_join = parse_cq("q() :- Reg(x, y), Reg(y, x)").unwrap();
        assert!(matches!(
            oracle_probability(&db, &probs, &self_join),
            Err(CoreError::NotSelfJoinFree { .. })
        ));
    }
}
