//! The batched all-facts Shapley engine for UCQ¬s: inclusion–exclusion
//! over compiled per-subset structures.
//!
//! For a union `U = q₁ ∨ ⋯ ∨ q_d`, a world satisfies `U` iff it
//! satisfies some disjunct, so the satisfying-coalition counts obey
//!
//! ```text
//! |Sat(D, U, k)| = Σ_{∅ ≠ S ⊆ [d]} (−1)^{|S|+1} |Sat(D, ⋀_{i∈S} qᵢ, k)|
//! ```
//!
//! and the Shapley reduction, being *linear* in the count differences
//! `N⁺_k − N_k`, splits over the same signed sum:
//!
//! ```text
//! Shapley(D, U, f) = Σ_S (−1)^{|S|+1} · Shapley(D, ⋀_{i∈S} qᵢ, f).
//! ```
//!
//! [`CompiledUnionCount`] therefore compiles [`CompiledCount`] engines
//! for the non-empty subsets of disjuncts — each conjunction built by
//! [`cqshap_query::conjoin_disjuncts`] with variables renamed apart —
//! and answers every fact by the signed sum of the subset engines'
//! masked recounts. Contradictory conjunctions (a ground atom asserted
//! and denied) contribute identically zero and are skipped at compile
//! time; conjunctions outside the compiled fragment (an induced
//! self-join or a non-hierarchical join structure) abort compilation
//! with [`CoreError::IntractableIntersection`] naming the offending
//! intersection, so strategy routing can fall back or report precisely.
//!
//! Distinct subsets routinely conjoin to the *same* query — a disjunct
//! absorbed by another (shared ground atoms merge) makes `S` and
//! `S ∪ {i}` collide, and structurally repeated disjuncts collide
//! wholesale. Compiling each collision class once, the engines are
//! keyed by a canonical form of the conjunction and carry the *net*
//! signed coefficient `Σ_S (−1)^{|S|+1}` of their class; classes whose
//! coefficients cancel to zero are dropped before compilation. The
//! signed sum over `2^d − 1` subsets thus runs over (often far) fewer
//! compiled engines without changing a single term of the identity.
//!
//! Everything stays exact: each engine's value is a reduced rational
//! over `m!`, and the signed sum is exact rational arithmetic, so the
//! result is bit-identical to the per-fact reference paths.

use std::collections::HashMap;
use std::sync::OnceLock;

use cqshap_db::{Database, FactId};
use cqshap_numeric::{BigInt, BigRational};
use cqshap_query::{
    conjoin_disjuncts, is_hierarchical, self_join_witness, subset_label, ConjunctiveQuery,
    DisjunctConjunction, Term as QueryTerm, UnionQuery,
};

use crate::budget::{self, CancelToken};
use crate::compiled::{CompiledCount, EngineUpdate};
use crate::error::CoreError;

/// One signed inclusion–exclusion term: the compiled engine shared by a
/// class of structurally identical subset conjunctions, with the class's
/// net signed coefficient.
struct SignedTerm {
    /// `Σ_S (−1)^{|S|+1}` over the subsets whose conjunctions share this
    /// engine's canonical form. Never zero — cancelled classes are
    /// dropped before compilation.
    coeff: i64,
    engine: CompiledCount,
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
/// (they differ only in query name and variable names), so one compiled
/// engine serves both.
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

/// A `(db, union)` pair compiled for batched all-facts Shapley
/// computation via inclusion–exclusion. Shared immutably across report
/// worker threads, like [`CompiledCount`] — and, like it, free of any
/// database borrow: query-time methods take `&Database`, and
/// [`CompiledUnionCount::update`] maintains every subset engine across
/// an in-place database update.
pub struct CompiledUnionCount {
    terms: Vec<SignedTerm>,
    /// Dense combined bucket id per endogenous fact plus the bucket
    /// count (see [`CompiledUnionCount::bucket_of`]), built lazily on
    /// first use — the single-fact value paths never consult it.
    bucket_index: OnceLock<(HashMap<FactId, usize>, usize)>,
}

impl CompiledUnionCount {
    /// Cap on the number of disjuncts (the engine compiles `2^d − 1`
    /// subset conjunctions).
    pub const MAX_DISJUNCTS: usize = 10;

    /// Enumerates the non-empty subset conjunctions of `u`, skipping the
    /// unsatisfiable ones. Returns `(negative-sign, label, query)`
    /// triples; the label names the intersection for diagnostics.
    ///
    /// # Errors
    /// [`CoreError::Unsupported`] beyond [`Self::MAX_DISJUNCTS`]
    /// disjuncts, [`CoreError::Query`] if a conjunction fails to build.
    pub(crate) fn subset_conjunctions(
        u: &UnionQuery,
    ) -> Result<Vec<(bool, String, ConjunctiveQuery)>, CoreError> {
        let d = u.disjuncts().len();
        if d > Self::MAX_DISJUNCTS {
            return Err(CoreError::Unsupported(format!(
                "union has {d} disjuncts; the inclusion–exclusion engine compiles 2^d − 1 \
                 conjunctions and caps d at {}",
                Self::MAX_DISJUNCTS
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
                    out.push((mask.count_ones() % 2 == 0, label, q));
                }
            }
        }
        Ok(out)
    }

    /// Checks that a subset conjunction lies in the compiled fragment,
    /// converting failures into [`CoreError::IntractableIntersection`]
    /// naming the intersection.
    pub(crate) fn check_tractable(label: &str, q: &ConjunctiveQuery) -> Result<(), CoreError> {
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

    /// Compiles `u` against `db`: one [`CompiledCount`] per satisfiable
    /// non-empty subset conjunction, each with worker cap `threads` for
    /// its parallel product trees (`0` = all available cores). `cancel`
    /// (if any) is polled between and inside the per-class subset
    /// compiles; the cap and the token stick across maintenance.
    ///
    /// # Errors
    /// [`CoreError::IntractableIntersection`] when some conjunction
    /// leaves the compiled fragment (the message names the intersection),
    /// plus anything [`CompiledCount::compile`] raises;
    /// [`CoreError::DeadlineExceeded`] when `cancel` trips, whose
    /// `partial` reports how many subset engines had compiled.
    pub fn compile(
        db: &Database,
        u: &UnionQuery,
        threads: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, CoreError> {
        let _span = cqshap_obs::Span::enter(cqshap_obs::phase::UNION_COMPILE);
        // Bucket the subset conjunctions by canonical form first: one
        // engine per class, weighted by the class's net coefficient.
        // Tractability is checked per subset so the error still names
        // the offending intersection, not its class representative.
        let mut classes: HashMap<Vec<(bool, String, Vec<CanonTerm>)>, usize> = HashMap::new();
        let mut pending: Vec<(i64, ConjunctiveQuery)> = Vec::new();
        for (negative, label, q) in Self::subset_conjunctions(u)? {
            Self::check_tractable(&label, &q)?;
            let sign = if negative { -1 } else { 1 };
            let next = pending.len();
            match classes.entry(canonical_key(&q)) {
                // cqshap-lint: allow(no-panic-index) -- the entry's stored index was pushed into pending when the class was created
                std::collections::hash_map::Entry::Occupied(e) => pending[*e.get()].0 += sign,
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(next);
                    pending.push((sign, q));
                }
            }
        }
        let mut terms = Vec::new();
        for (coeff, q) in pending {
            if coeff == 0 {
                continue;
            }
            if let Some(token) = cancel {
                budget::check_partial(token, cqshap_obs::phase::UNION_COMPILE, Some(terms.len()))?;
            }
            let engine = CompiledCount::compile(db, &q, threads, cancel)?;
            terms.push(SignedTerm { coeff, engine });
        }
        Ok(CompiledUnionCount {
            terms,
            bucket_index: OnceLock::new(),
        })
    }

    /// Patches every subset engine after one in-place database update
    /// (the database must already be mutated). Returns `Ok(false)` when
    /// any subset engine reports structural drift — the caller must
    /// recompile the whole union engine.
    ///
    /// # Errors
    /// Anything [`CompiledCount::update`] raises.
    pub fn update(&mut self, db: &Database, change: EngineUpdate) -> Result<bool, CoreError> {
        for t in &mut self.terms {
            if !t.engine.update(db, change)? {
                return Ok(false);
            }
        }
        self.bucket_index = OnceLock::new();
        Ok(true)
    }

    /// Combined bucket layout: facts sharing every subset engine's
    /// bucket share recount state across the whole signed sum, so the
    /// report fan-out keeps them on one thread.
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

    /// Number of compiled inclusion–exclusion terms: satisfiable subset
    /// conjunctions after merging structurally identical ones and
    /// dropping classes whose signed coefficients cancel.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Is `f`'s Shapley value known to be zero without any recounting in
    /// *every* subset engine?
    pub fn is_structurally_null(&self, f: FactId) -> bool {
        self.terms.iter().all(|t| t.engine.is_structurally_null(f))
    }

    /// An opaque bucket id grouping facts that share recount state
    /// across all subset engines (see [`CompiledCount::bucket_of`]).
    pub fn bucket_of(&self, db: &Database, f: FactId) -> usize {
        self.bucket_index(db).0.get(&f).copied().unwrap_or(0)
    }

    /// Total number of bucket ids (all in `0..buckets()`).
    pub fn buckets(&self, db: &Database) -> usize {
        self.bucket_index(db).1
    }

    /// The exact Shapley value of `f` under the union: the signed sum of
    /// the subset engines' values, accumulated over the shared `m!`
    /// numerator domain (every subset engine counts the same `Dn`) and
    /// normalized once.
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`.
    pub fn value(&self, db: &Database, f: FactId) -> Result<BigRational, CoreError> {
        let num = self.shapley_numerator(db, f)?;
        Ok(self.normalize_numerator(num))
    }

    /// The signed numerator sum over the common denominator `m!` — see
    /// [`CompiledCount::shapley_numerator`].
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`.
    pub fn shapley_numerator(&self, db: &Database, f: FactId) -> Result<BigInt, CoreError> {
        if db.endo_index(f).is_none() {
            return Err(CoreError::FactNotEndogenous {
                fact: db.render_fact(f),
            });
        }
        let mut acc = BigInt::zero();
        for t in &self.terms {
            let n = t.engine.shapley_numerator(db, f)?;
            if !n.is_zero() {
                acc += &(n * BigInt::from_i64(t.coeff));
            }
        }
        Ok(acc)
    }

    /// `num / m!` in lowest terms, through the first subset engine's
    /// memoized reduction (all engines share `m`).
    pub fn normalize_numerator(&self, num: BigInt) -> BigRational {
        match self.terms.first() {
            Some(t) => t.engine.normalize_numerator(num),
            None => {
                debug_assert!(num.is_zero(), "no terms, no contributions");
                BigRational::zero()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anyquery::AnyQuery;
    use crate::satcount::{BruteForceCounter, SatCountOracle};
    use crate::shapley::shapley_via_counts;
    use cqshap_db::FactMask;
    use cqshap_numeric::BigInt;
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

    /// Batched union values must be bit-identical to brute force on
    /// the union itself.
    fn agrees_with_brute_force(db: &Database, u: &UnionQuery) {
        let compiled = CompiledUnionCount::compile(db, u, 0, None).unwrap();
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
    fn absorbed_disjuncts_share_engines() {
        let db = Database::parse("endo R(a)\nendo S(b)\nendo T(c)\n").unwrap();
        // q2 absorbs q1's atom, so {2} and {1,2} conjoin to the same
        // query with opposite signs: the class cancels and only {1}
        // survives — one engine for three subsets.
        let u = parse_ucq("q1() :- R('a'); q2() :- R('a'), S('b')").unwrap();
        assert_eq!(
            CompiledUnionCount::subset_conjunctions(&u).unwrap().len(),
            3
        );
        let compiled = CompiledUnionCount::compile(&db, &u, 0, None).unwrap();
        assert_eq!(compiled.term_count(), 1);
        agrees_with_brute_force(&db, &u);
        // Structurally repeated disjuncts (same shape up to renaming)
        // collapse wholesale: {1}, {2} and {1,2}·(−1)... the pairwise
        // conjunction R(x) ∧ R(x') would self-join, so use ground atoms.
        let v = parse_ucq("q1() :- R('a'), !T('c'); q2() :- R('a'), !T('c')").unwrap();
        let compiled = CompiledUnionCount::compile(&db, &v, 0, None).unwrap();
        // All three subsets conjoin to R('a') ∧ ¬T('c'); net 1 − ... =
        // +1 +1 −1 = 1 → a single engine with coefficient one.
        assert_eq!(compiled.term_count(), 1);
        agrees_with_brute_force(&db, &v);
    }

    #[test]
    fn single_disjunct_union_matches_cq_engine() {
        let db = db_two_sides();
        let u = parse_ucq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let compiled = CompiledUnionCount::compile(&db, &u, 0, None).unwrap();
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
        let db = Database::parse("endo R(a)\nendo S(b)\n").unwrap();
        let u = parse_ucq("qa() :- R(x); qb() :- R(y), S(z)").unwrap();
        let Err(err) = CompiledUnionCount::compile(&db, &u, 0, None).map(|_| ()) else {
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
        for (negative, _, q) in CompiledUnionCount::subset_conjunctions(&u).unwrap() {
            let engine = CompiledCount::compile(&db, &q, 0, None).unwrap();
            for (k, c) in engine.total_counts().iter().enumerate() {
                let c = BigInt::from_biguint(c.clone());
                if negative {
                    signed[k] -= &c;
                } else {
                    signed[k] += &c;
                }
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
        let compiled = CompiledUnionCount::compile(&db, &union_two_sides(), 0, None).unwrap();
        assert!(compiled.term_count() >= 2);
        for &f in db.endo_facts() {
            assert!(compiled.bucket_of(&db, f) < compiled.buckets(&db));
        }
        // Facts of the two sides never share recount state with the
        // other side's grouped facts... but structural nulls can share
        // bucket 0; just check nulls are consistent.
        for &f in db.endo_facts() {
            if compiled.is_structurally_null(f) {
                assert!(compiled.value(&db, f).unwrap().is_zero());
            }
        }
    }

    #[test]
    fn non_endogenous_fact_rejected() {
        let db = db_two_sides();
        let compiled = CompiledUnionCount::compile(&db, &union_two_sides(), 0, None).unwrap();
        let stud = db.find_fact("Stud", &["a"]).unwrap();
        assert!(matches!(
            compiled.value(&db, stud),
            Err(CoreError::FactNotEndogenous { .. })
        ));
    }
}
