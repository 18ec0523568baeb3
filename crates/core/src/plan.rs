//! The routing plan shared by both evaluation domains.
//!
//! The paper's dichotomies (Theorems 3.1 and 4.3) decompose a Boolean
//! query one way: a hierarchical CQ¬ is counted directly, a CQ¬
//! without a non-hierarchical path is first rewritten by `ExoShap`
//! (Algorithm 1), and anything else is enumerated. [`resolve`] makes
//! that decision once, independently of the domain, and returns a
//! [`Plan`]: a signed sum of conjunctive terms, or enumeration. A
//! [`crate::session::ShapleySession`] resolves it at prepare and keeps
//! it; each domain compiles from the kept plan on its first read.
//!
//! A term is `coeff · q` evaluated on the session database or on a
//! rewritten copy of it:
//!
//! * a hierarchical CQ¬ is one term on the session database;
//! * an `ExoShap` CQ¬ is one term on its rewritten database, and an
//!   always-false rewriting is no term at all;
//! * a UCQ¬ `U = q₁ ∨ ⋯ ∨ q_d` is its inclusion–exclusion expansion
//!
//!   ```text
//!   |Sat(D, U, k)| = Σ_{∅ ≠ S ⊆ [d]} (−1)^{|S|+1} |Sat(D, ⋀_{i∈S} qᵢ, k)|
//!   ```
//!
//!   whose subset conjunctions are built by
//!   [`cqshap_query::conjoin_disjuncts`]. Both the Shapley value and
//!   `Pr[q]` are linear in these signed counts, so each domain sums the
//!   signed term values. Compiled on the session database, conjunctions
//!   that collide structurally share one term carrying their net
//!   coefficient, and classes whose coefficients cancel are dropped;
//!   under `ExoShap`, every subset conjunction is rewritten on its own.
//!
//! A domain instantiates the terms as a [`TermList`] of compiled
//! engines: [`CompiledCount`] for Shapley values (every term keeps the
//! original `Dn`, so the numerators share the denominator
//! `lcm(1..m)`), or [`CompiledProbability`] for `Pr[q]` and expected
//! marginals. A rewritten database is shared between the two domains.
//!
//! ## Probabilistic databases (Section 4.3)
//!
//! Endogenous facts are independently present with their session
//! probabilities, and exogenous facts (all facts of a declared
//! exogenous relation among them) are deterministic: a tuple-independent
//! database with deterministic relations. Fink and Olteanu showed that
//! `Pr[q]` is in PTIME for hierarchical self-join-free CQ¬s and
//! `FP^#P`-complete otherwise. Theorem 4.10 extends this with
//! deterministic relations: evaluation is polynomial exactly when the
//! query has no non-hierarchical path, through the same `ExoShap`
//! rewriting the Shapley dichotomy uses. The rewriting preserves fact
//! ids and adds only exogenous facts, so the probabilities carry over
//! unchanged and the probability domain compiles the same terms. The
//! seed lifted-inference traversal survives as the oracle
//! [`crate::reference::oracle_probability`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::{Add, Mul, Neg};
use std::sync::{Arc, OnceLock};

use cqshap_db::{Database, FactId};
use cqshap_numeric::{BigInt, BigRational};
use cqshap_query::{
    conjoin_disjuncts, is_hierarchical, self_join_witness, subset_label, ConjunctiveQuery,
    DisjunctConjunction, Term as QueryTerm, UnionQuery,
};

use crate::anyquery::AnyQuery;
use crate::compiled::{CompiledCount, CompiledProbability, EngineUpdate};
use crate::error::CoreError;
use crate::exoshap;
use crate::shapley::{resolve_strategy, BatchedEngine, ResolvedStrategy, ShapleyOptions, Strategy};

/// Cap on the number of disjuncts of a union (the expansion has
/// `2^d − 1` subset conjunctions).
const MAX_DISJUNCTS: usize = 10;

/// One signed, weighted term of a [`Plan`]: `coeff · query`, evaluated
/// on `db` when the term was rewritten, on the session database
/// otherwise. The coefficient is an inclusion–exclusion sign, times an
/// aggregate candidate's weight for the terms of an aggregate.
pub(crate) struct PlanTerm {
    pub(crate) coeff: BigInt,
    pub(crate) db: Option<Arc<Database>>,
    pub(crate) query: ConjunctiveQuery,
}

/// How a Boolean query is answered, in either evaluation domain.
pub(crate) enum Plan {
    /// A signed sum of conjunctive terms. `rewritten` marks terms
    /// derived by the `ExoShap` rewriting of the database itself: an
    /// update invalidates them, even when there are none.
    Terms {
        terms: Vec<PlanTerm>,
        rewritten: bool,
    },
    /// Enumeration over the endogenous facts.
    Enumerate(Enumeration),
}

/// Which enumeration a [`Plan::Enumerate`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Enumeration {
    /// `2^|Dn|` subsets.
    Subsets,
    /// `|Dn|!` permutations.
    Permutations,
}

impl Plan {
    /// The algorithm the plan runs, as reported by
    /// [`crate::session::ShapleySession::strategy`].
    pub(crate) fn strategy(&self) -> ResolvedStrategy {
        match self {
            Plan::Terms {
                rewritten: false, ..
            } => ResolvedStrategy::Hierarchical,
            Plan::Terms {
                rewritten: true, ..
            } => ResolvedStrategy::ExoShap,
            Plan::Enumerate(Enumeration::Subsets) => ResolvedStrategy::BruteForce,
            Plan::Enumerate(Enumeration::Permutations) => ResolvedStrategy::Permutations,
        }
    }
}

/// Resolves `strategy` for `query` on `db` into a plan. `Auto` descends
/// the dichotomy ladder: the compiled terms when every conjunction is
/// hierarchical, then the `ExoShap` rewriting, then subset enumeration
/// within [`ShapleyOptions::brute_force_limit`]; past the limit it
/// returns the reason the better routes refused.
///
/// # Errors
/// For a CQ¬, what [`exoshap::rewrite`] raises, plus
/// [`CoreError::TooManyEndogenousFacts`] /
/// [`CoreError::HasNonHierarchicalPath`] when `Auto` finds no route.
/// For a UCQ¬, [`CoreError::IntractableIntersection`] naming the
/// disjunct intersection no route covers, and
/// [`CoreError::Unsupported`] beyond ten disjuncts.
pub(crate) fn resolve(
    db: &Database,
    query: AnyQuery<'_>,
    strategy: Strategy,
    options: &ShapleyOptions,
) -> Result<Plan, CoreError> {
    let options = options.strategy(strategy);
    match query {
        AnyQuery::Cq(q) => {
            let resolved = resolve_strategy(db, q, &options)?;
            cq_plan(db, q, resolved, options.tuple_budget)
        }
        AnyQuery::Union(u) => union_plan(db, u, &options),
    }
}

/// [`resolve`] for a UCQ¬.
fn union_plan(db: &Database, u: &UnionQuery, options: &ShapleyOptions) -> Result<Plan, CoreError> {
    match options.strategy {
        Strategy::BruteForcePermutations => Ok(Plan::Enumerate(Enumeration::Permutations)),
        Strategy::BruteForceSubsets => Ok(Plan::Enumerate(Enumeration::Subsets)),
        Strategy::Hierarchical => compiled_union_plan(u),
        Strategy::ExoShap => exoshap_union_plan(db, u, options.tuple_budget),
        Strategy::Auto => match compiled_union_plan(u) {
            Err(e) if compiled_union_inapplicable(&e) => {
                exoshap_union_plan(db, u, options.tuple_budget).or_else(|_| {
                    if db.endo_count() <= options.brute_force_limit {
                        Ok(Plan::Enumerate(Enumeration::Subsets))
                    } else {
                        Err(e)
                    }
                })
            }
            other => other,
        },
    }
}

/// The plan of a CQ¬ whose strategy is already resolved.
///
/// # Errors
/// What [`exoshap::rewrite`] raises.
pub(crate) fn cq_plan(
    db: &Database,
    q: &ConjunctiveQuery,
    resolved: ResolvedStrategy,
    tuple_budget: usize,
) -> Result<Plan, CoreError> {
    Ok(match resolved {
        ResolvedStrategy::Hierarchical => Plan::Terms {
            terms: vec![PlanTerm {
                coeff: BigInt::one(),
                db: None,
                query: q.clone(),
            }],
            rewritten: false,
        },
        ResolvedStrategy::ExoShap => Plan::Terms {
            terms: rewritten_term(BigInt::one(), exoshap::rewrite(db, q, tuple_budget)?)
                .into_iter()
                .collect(),
            rewritten: true,
        },
        ResolvedStrategy::BruteForce => Plan::Enumerate(Enumeration::Subsets),
        ResolvedStrategy::Permutations => Plan::Enumerate(Enumeration::Permutations),
    })
}

/// Should `Auto` look past this compiled-union refusal (the union is
/// outside the compiled fragment) rather than propagate it (a genuine
/// input error)?
fn compiled_union_inapplicable(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::IntractableIntersection { .. }
            | CoreError::NotHierarchical { .. }
            | CoreError::NotSelfJoinFree { .. }
            | CoreError::Unsupported(_)
    )
}

/// The term of one rewriting outcome, or none when the rewriting proved
/// the query always false.
fn rewritten_term(coeff: BigInt, outcome: exoshap::RewriteOutcome) -> Option<PlanTerm> {
    (!outcome.always_false).then(|| PlanTerm {
        coeff,
        db: Some(Arc::new(outcome.db)),
        query: outcome.query,
    })
}

/// Enumerates the non-empty subset conjunctions of `u`, skipping the
/// unsatisfiable ones. Returns `(sign, label, query)` triples, the sign
/// being `(−1)^{|S|+1}`; the label names the intersection for
/// diagnostics.
///
/// # Errors
/// [`CoreError::Unsupported`] beyond [`MAX_DISJUNCTS`] disjuncts,
/// [`CoreError::Query`] if a conjunction fails to build.
fn subset_conjunctions(u: &UnionQuery) -> Result<Vec<(i64, String, ConjunctiveQuery)>, CoreError> {
    let d = u.disjuncts().len();
    if d > MAX_DISJUNCTS {
        return Err(CoreError::Unsupported(format!(
            "union has {d} disjuncts; the inclusion–exclusion engine compiles 2^d − 1 \
             conjunctions and caps d at {MAX_DISJUNCTS}"
        )));
    }
    let mut out = Vec::with_capacity((1usize << d) - 1);
    for mask in 1usize..(1usize << d) {
        let subset: Vec<&ConjunctiveQuery> = u
            .disjuncts()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, q)| q)
            .collect();
        let label = subset_label(u.disjuncts(), mask);
        let name = format!("{}_cap{mask:x}", u.name());
        match conjoin_disjuncts(&name, &subset)? {
            DisjunctConjunction::Unsatisfiable => continue,
            DisjunctConjunction::Query(q) => {
                let sign = if mask.count_ones() % 2 == 0 { -1 } else { 1 };
                out.push((sign, label, q));
            }
        }
    }
    Ok(out)
}

/// Checks that a subset conjunction lies in the compiled fragment,
/// converting failures into [`CoreError::IntractableIntersection`]
/// naming the intersection.
fn check_tractable(label: &str, q: &ConjunctiveQuery) -> Result<(), CoreError> {
    if let Some(rel) = self_join_witness(q) {
        return Err(CoreError::IntractableIntersection {
            intersection: label.to_string(),
            reason: format!("the conjunction has a self-join on relation {rel}"),
        });
    }
    if !is_hierarchical(q) {
        return Err(CoreError::IntractableIntersection {
            intersection: label.to_string(),
            reason: "the conjunction is not hierarchical".to_string(),
        });
    }
    Ok(())
}

/// A term of [`canonical_key`]: constants verbatim, variables by rank of
/// first occurrence over the canonically ordered atoms.
#[derive(Clone, PartialEq, Eq, Hash)]
enum CanonTerm {
    Var(u32),
    Const(String),
}

/// A structural canonical form for a *self-join-free* conjunction: atoms
/// sorted by `(negated, relation)` — unique, since no relation repeats —
/// with variables renamed by first occurrence over that order. Two
/// subset conjunctions with equal keys count exactly the same worlds
/// (they differ only in query name and variable names), so one term
/// serves both.
fn canonical_key(q: &ConjunctiveQuery) -> Vec<(bool, String, Vec<CanonTerm>)> {
    let mut atoms: Vec<_> = q.atoms().iter().collect();
    atoms.sort_by_key(|a| (a.negated, a.relation.clone()));
    let mut rank: HashMap<u32, u32> = HashMap::new();
    atoms
        .into_iter()
        .map(|a| {
            let terms = a
                .terms
                .iter()
                .map(|t| match t {
                    QueryTerm::Const(c) => CanonTerm::Const(c.clone()),
                    QueryTerm::Var(v) => {
                        let next = rank.len() as u32;
                        CanonTerm::Var(*rank.entry(v.0).or_insert(next))
                    }
                })
                .collect();
            (a.negated, a.relation.clone(), terms)
        })
        .collect()
}

/// The union's subset conjunctions on the session database, one term
/// per structural class with the class's net coefficient; cancelled
/// classes are dropped. Tractability is checked per subset, so an error
/// names the offending intersection rather than its class.
///
/// # Errors
/// [`CoreError::IntractableIntersection`] when some conjunction leaves
/// the compiled fragment, plus what [`subset_conjunctions`] raises.
fn compiled_union_plan(u: &UnionQuery) -> Result<Plan, CoreError> {
    let mut classes: HashMap<Vec<(bool, String, Vec<CanonTerm>)>, usize> = HashMap::new();
    let mut terms: Vec<PlanTerm> = Vec::new();
    for (sign, label, query) in subset_conjunctions(u)? {
        check_tractable(&label, &query)?;
        match classes.entry(canonical_key(&query)) {
            Entry::Occupied(e) => {
                if let Some(t) = terms.get_mut(*e.get()) {
                    t.coeff += &BigInt::from_i64(sign);
                }
            }
            Entry::Vacant(e) => {
                e.insert(terms.len());
                terms.push(PlanTerm {
                    coeff: BigInt::from_i64(sign),
                    db: None,
                    query,
                });
            }
        }
    }
    terms.retain(|t| !t.coeff.is_zero());
    Ok(Plan::Terms {
        terms,
        rewritten: false,
    })
}

/// The `ExoShap` rewriting applied per subset conjunction (the values
/// are linear in the signed counts, so each term may be rewritten on
/// its own); always-false outcomes contribute nothing.
///
/// # Errors
/// [`CoreError::IntractableIntersection`] naming the intersection whose
/// conjunction the rewriting rejects.
fn exoshap_union_plan(
    db: &Database,
    u: &UnionQuery,
    tuple_budget: usize,
) -> Result<Plan, CoreError> {
    let mut terms = Vec::new();
    for (sign, label, q) in subset_conjunctions(u)? {
        let outcome = exoshap::rewrite(db, &q, tuple_budget).map_err(|e| {
            CoreError::IntractableIntersection {
                intersection: label,
                reason: e.to_string(),
            }
        })?;
        terms.extend(rewritten_term(BigInt::from_i64(sign), outcome));
    }
    Ok(Plan::Terms {
        terms,
        rewritten: true,
    })
}

/// An engine a [`TermList`] can hold: maintained in place across a
/// database update, like [`CompiledCount::update`].
pub(crate) trait TermEngine {
    /// Patches the engine after one update; `Ok(false)` asks for a
    /// recompile.
    fn update(&mut self, db: &Database, change: EngineUpdate) -> Result<bool, CoreError>;
}

impl TermEngine for CompiledCount {
    fn update(&mut self, db: &Database, change: EngineUpdate) -> Result<bool, CoreError> {
        CompiledCount::update(self, db, change)
    }
}

impl TermEngine for CompiledProbability {
    fn update(&mut self, db: &Database, change: EngineUpdate) -> Result<bool, CoreError> {
        CompiledProbability::update(self, db, change)
    }
}

/// One compiled term.
struct Term<E> {
    coeff: BigInt,
    /// The rewritten database, when the term has its own (shared with
    /// the plan and the other domain's terms).
    db: Option<Arc<Database>>,
    engine: E,
}

/// A plan's terms compiled in one evaluation domain. Free of any
/// database borrow, like its engines: reads re-supply the session
/// database, which every term without its own evaluates on.
pub(crate) struct TermList<E> {
    terms: Vec<Term<E>>,
    rewritten: bool,
    /// Dense combined bucket id per endogenous fact plus the bucket
    /// count (see [`TermList::bucket_index`]), built lazily on first
    /// use — the single-fact value paths never consult it.
    bucket_index: OnceLock<(HashMap<FactId, usize>, usize)>,
}

impl<E: TermEngine> TermList<E> {
    /// Compiles every term of a [`Plan::Terms`] with `compile`, which
    /// receives the term's database and query. The plan is left intact,
    /// so the other domain can compile from it too.
    ///
    /// # Errors
    /// The first error `compile` returns.
    pub(crate) fn compile(
        db: &Database,
        terms: &[PlanTerm],
        rewritten: bool,
        mut compile: impl FnMut(&Database, &ConjunctiveQuery) -> Result<E, CoreError>,
    ) -> Result<Self, CoreError> {
        let terms = terms
            .iter()
            .map(|t| {
                let engine = compile(t.db.as_deref().unwrap_or(db), &t.query)?;
                Ok(Term {
                    coeff: t.coeff.clone(),
                    db: t.db.clone(),
                    engine,
                })
            })
            .collect::<Result<_, CoreError>>()?;
        Ok(TermList {
            terms,
            rewritten,
            bucket_index: OnceLock::new(),
        })
    }

    /// Does the list have no term (the query is false on every world)?
    pub(crate) fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Patches every term after one in-place update of the session
    /// database (already mutated). Returns `Ok(false)` when the list
    /// must be rebuilt: it was derived by rewriting the database, or
    /// some term's structure shifted.
    ///
    /// # Errors
    /// Anything a term's update raises.
    pub(crate) fn update(
        &mut self,
        db: &Database,
        change: EngineUpdate,
    ) -> Result<bool, CoreError> {
        if self.rewritten {
            return Ok(false);
        }
        for t in &mut self.terms {
            if !t.engine.update(db, change)? {
                return Ok(false);
            }
        }
        self.bucket_index = OnceLock::new();
        Ok(true)
    }

    /// Each term with the database it evaluates on.
    fn each<'a>(
        &'a self,
        db: &'a Database,
    ) -> impl Iterator<Item = (&'a BigInt, &'a Database, &'a E)> {
        self.terms
            .iter()
            .map(move |t| (&t.coeff, t.db.as_deref().unwrap_or(db), &t.engine))
    }
}

/// `Σ coeff · v` over `(coeff, v)` pairs, `None` for no pair. The sum
/// starts from the first value, so a one-term sum comes back as it
/// went in: no copy, and no reduction of an exact rational. A `±1`
/// coefficient (every term of a Boolean query) costs no multiply.
// cqshap-lint: allow(cancellation-reachability) -- one multiply-add per plan term, over values whose evaluation polled
pub(crate) fn signed_sum<'a, T>(terms: impl IntoIterator<Item = (&'a BigInt, T)>) -> Option<T>
where
    T: Neg<Output = T> + Add<Output = T> + Mul<Output = T> + From<BigInt>,
{
    let mut acc: Option<T> = None;
    for (coeff, v) in terms {
        let v = match (coeff.magnitude().is_one(), coeff.is_negative()) {
            (true, false) => v,
            (true, true) => -v,
            _ => v * T::from(coeff.clone()),
        };
        acc = Some(match acc {
            Some(sum) => sum + v,
            None => v,
        });
    }
    acc
}

impl TermList<CompiledCount> {
    /// The exact Shapley value of `f`: the signed numerator sum over the
    /// shared `lcm(1..m)`, normalized once.
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`.
    pub(crate) fn value(&self, db: &Database, f: FactId) -> Result<BigRational, CoreError> {
        let num = self.shapley_numerator(db, f)?;
        Ok(self.normalize_numerator(num))
    }

    /// The signed sum of the terms' Shapley numerators over `lcm(1..m)`.
    /// Each term contracts over its own non-null players `m′` and lifts
    /// its numerator to the session's `lcm(1..m)` before the sum.
    fn shapley_numerator(&self, db: &Database, f: FactId) -> Result<BigInt, CoreError> {
        if db.endo_index(f).is_none() {
            return Err(CoreError::FactNotEndogenous {
                fact: db.render_fact(f),
            });
        }
        let nums = self
            .each(db)
            .map(|(coeff, db, engine)| Ok((coeff, engine.shapley_numerator(db, f)?)))
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(signed_sum(nums).unwrap_or_else(BigInt::zero))
    }

    /// `num / lcm(1..m)` in lowest terms, through the first term's
    /// memoized reduction over `lcm(1..m)` (every term shares `m`, and
    /// none reduces over its own weights' `lcm(1..m′)`).
    fn normalize_numerator(&self, num: BigInt) -> BigRational {
        match self.terms.first() {
            Some(t) => t.engine.normalize_numerator(num),
            None => BigRational::zero(),
        }
    }

    /// Combined bucket layout: facts sharing every term's bucket share
    /// recount state across the whole signed sum, so the report fan-out
    /// keeps them on one thread.
    fn bucket_index(&self, db: &Database) -> &(HashMap<FactId, usize>, usize) {
        self.bucket_index.get_or_init(|| {
            let mut key_ids: HashMap<Vec<usize>, usize> = HashMap::new();
            let mut bucket_ids = HashMap::with_capacity(db.endo_count());
            for &f in db.endo_facts() {
                let key: Vec<usize> = self.terms.iter().map(|t| t.engine.bucket_of(f)).collect();
                let next = key_ids.len();
                let id = *key_ids.entry(key).or_insert(next);
                bucket_ids.insert(f, id);
            }
            (bucket_ids, key_ids.len().max(1))
        })
    }
}

impl BatchedEngine for TermList<CompiledCount> {
    fn buckets(&self, db: &Database) -> usize {
        match self.terms.as_slice() {
            [t] => t.engine.buckets(),
            _ => self.bucket_index(db).1,
        }
    }
    fn bucket_of(&self, db: &Database, f: FactId) -> usize {
        match self.terms.as_slice() {
            [t] => t.engine.bucket_of(f),
            _ => self.bucket_index(db).0.get(&f).copied().unwrap_or(0),
        }
    }
    fn numerator(&self, db: &Database, f: FactId) -> Result<BigInt, CoreError> {
        self.shapley_numerator(db, f)
    }
    fn normalize(&self, num: BigInt) -> BigRational {
        self.normalize_numerator(num)
    }
}

impl TermList<CompiledProbability> {
    /// `Pr[q]`: the signed sum of the terms' probabilities.
    pub(crate) fn probability(&self) -> BigRational {
        signed_sum(
            self.terms
                .iter()
                .map(|t| (&t.coeff, t.engine.probability().clone())),
        )
        .unwrap_or_else(BigRational::zero)
    }

    /// `Pr[q | f present] − Pr[q | f absent]`: conditionals obey the
    /// same signed sum as the totals, and the difference is linear in
    /// them.
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`.
    pub(crate) fn expected_marginal(
        &self,
        db: &Database,
        f: FactId,
    ) -> Result<BigRational, CoreError> {
        let marginals = self
            .each(db)
            .map(|(coeff, db, engine)| Ok((coeff, engine.expected_marginal(db, f)?)))
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(signed_sum(marginals).unwrap_or_else(BigRational::zero))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satcount::{BruteForceCounter, SatCountOracle};
    use crate::shapley::shapley_via_counts;
    use cqshap_db::FactMask;
    use cqshap_query::parse_ucq;

    fn db_two_sides() -> Database {
        Database::parse(
            "exo Stud(a)\nexo Stud(b)\n\
             endo TA(a)\n\
             endo Reg(a, c1)\nendo Reg(b, c2)\n\
             exo Lab(l1)\nexo Lab(l2)\n\
             endo Asst(l1, a)\nendo Asst(l2, b)\nendo Closed(l1)\n",
        )
        .unwrap()
    }

    fn union_two_sides() -> UnionQuery {
        parse_ucq(
            "q1() :- Stud(x), !TA(x), Reg(x, y)\n\
             q2() :- Lab(l), Asst(l, a), !Closed(l)\n",
        )
        .unwrap()
    }

    /// The compiled counting terms of `u` on `db`.
    fn compiled_terms(db: &Database, u: &UnionQuery) -> TermList<CompiledCount> {
        let Plan::Terms { terms, rewritten } = compiled_union_plan(u).unwrap() else {
            panic!("a compiled union plan is a term list");
        };
        TermList::compile(db, &terms, rewritten, |db, q| {
            CompiledCount::compile(db, q, 0, None)
        })
        .unwrap()
    }

    /// Term-list union values must be bit-identical to brute force on
    /// the union itself.
    fn agrees_with_brute_force(db: &Database, u: &UnionQuery) {
        let compiled = compiled_terms(db, u);
        let brute = BruteForceCounter::default();
        for &f in db.endo_facts() {
            let want = shapley_via_counts(db, AnyQuery::Union(u), f, &brute).unwrap();
            let got = compiled.value(db, f).unwrap();
            assert_eq!(got, want, "{} for {u}", db.render_fact(f));
        }
    }

    #[test]
    fn two_disjunct_union_matches_brute_force() {
        let db = db_two_sides();
        agrees_with_brute_force(&db, &union_two_sides());
    }

    #[test]
    fn overlapping_ground_disjuncts() {
        let db = Database::parse("endo R(a)\nendo S(b)\nendo T(c)\n").unwrap();
        for text in [
            "q1() :- R('a'); q2() :- S('b')",
            "q1() :- R('a'); q2() :- R('a'), S('b')", // shared ground atom merges
            "q1() :- R('a'), !S('b'); q2() :- S('b'), T('c')", // contradictory pair drops
            "q1() :- R(x); q2() :- S(x); q3() :- T(x)",
        ] {
            agrees_with_brute_force(&db, &parse_ucq(text).unwrap());
        }
    }

    #[test]
    fn absorbed_disjuncts_share_terms() {
        let db = Database::parse("endo R(a)\nendo S(b)\nendo T(c)\n").unwrap();
        // q2 absorbs q1's atom, so {2} and {1,2} conjoin to the same
        // query with opposite signs: the class cancels and only {1}
        // survives — one term for three subsets.
        let u = parse_ucq("q1() :- R('a'); q2() :- R('a'), S('b')").unwrap();
        assert_eq!(subset_conjunctions(&u).unwrap().len(), 3);
        assert_eq!(compiled_terms(&db, &u).terms.len(), 1);
        agrees_with_brute_force(&db, &u);
        // Structurally repeated disjuncts collapse wholesale: all three
        // subsets conjoin to R('a') ∧ ¬T('c'), net +1 +1 −1 = 1 — a
        // single term with coefficient one.
        let v = parse_ucq("q1() :- R('a'), !T('c'); q2() :- R('a'), !T('c')").unwrap();
        let compiled = compiled_terms(&db, &v);
        assert_eq!(compiled.terms.len(), 1);
        assert_eq!(compiled.terms[0].coeff, BigInt::one());
        agrees_with_brute_force(&db, &v);
    }

    #[test]
    fn single_disjunct_union_matches_cq_engine() {
        let db = db_two_sides();
        let u = parse_ucq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let compiled = compiled_terms(&db, &u);
        let cq_engine = CompiledCount::compile(&db, &u.disjuncts()[0], 0, None).unwrap();
        for &f in db.endo_facts() {
            assert_eq!(
                compiled.value(&db, f).unwrap(),
                cq_engine.value(&db, f).unwrap()
            );
        }
    }

    #[test]
    fn intersection_self_join_is_named() {
        let u = parse_ucq("qa() :- R(x); qb() :- R(y), S(z)").unwrap();
        let Err(err) = compiled_union_plan(&u).map(|_| ()) else {
            panic!("intersection with a self-join must be rejected");
        };
        match err {
            CoreError::IntractableIntersection {
                intersection,
                reason,
            } => {
                assert_eq!(intersection, "qa ∧ qb");
                assert!(reason.contains('R'), "{reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn counts_recombine_via_inclusion_exclusion() {
        // Cross-check the identity at the level of raw counts too:
        // |Sat(U)| from the signed sum of subset totals vs brute force.
        let db = db_two_sides();
        let u = union_two_sides();
        let m = db.endo_count();
        let mut signed = vec![BigInt::zero(); m + 1];
        for (sign, _, q) in subset_conjunctions(&u).unwrap() {
            let engine = CompiledCount::compile(&db, &q, 0, None).unwrap();
            for (k, c) in engine.total_counts().iter().enumerate() {
                signed[k] += &(BigInt::from_biguint(c.clone()) * BigInt::from_i64(sign));
            }
        }
        let brute = BruteForceCounter::default()
            .counts_masked(&db, AnyQuery::Union(&u), FactMask::None)
            .unwrap();
        for (k, want) in brute.iter().enumerate() {
            assert_eq!(
                signed[k],
                BigInt::from_biguint(want.clone()),
                "k = {k} of {u}"
            );
        }
    }

    #[test]
    fn buckets_cover_all_facts() {
        let db = db_two_sides();
        let compiled = compiled_terms(&db, &union_two_sides());
        assert!(compiled.terms.len() >= 2);
        for &f in db.endo_facts() {
            assert!(compiled.bucket_of(&db, f) < compiled.buckets(&db));
        }
    }

    #[test]
    fn non_endogenous_fact_rejected() {
        let db = db_two_sides();
        let compiled = compiled_terms(&db, &union_two_sides());
        let stud = db.find_fact("Stud", &["a"]).unwrap();
        assert!(matches!(
            compiled.value(&db, stud),
            Err(CoreError::FactNotEndogenous { .. })
        ));
    }

    #[test]
    fn auto_resolves_a_rewritable_union_through_exoshap() {
        // qa is not hierarchical, but with R exogenous it has no
        // non-hierarchical path: Auto rewrites every subset term.
        let db =
            Database::parse("exorel R\nexo R(a)\nendo S(a, b)\nendo T(b)\nendo U(c)\nendo V(c)\n")
                .unwrap();
        let u = parse_ucq("qa() :- R(x), S(x, y), T(y); qb() :- U(z), !V(z)").unwrap();
        let plan = resolve(
            &db,
            AnyQuery::Union(&u),
            Strategy::Auto,
            &ShapleyOptions::auto(),
        )
        .unwrap();
        assert_eq!(plan.strategy(), ResolvedStrategy::ExoShap);
        let Plan::Terms { terms, .. } = plan else {
            panic!("an ExoShap plan is a term list");
        };
        assert!(terms.iter().all(|t| t.db.is_some()));
    }
}
