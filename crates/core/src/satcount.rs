//! Counting satisfying coalitions: `|Sat(D, q, k)|`.
//!
//! `Sat(D, q, k)` is the set of `k`-subsets `E ⊆ Dn` with `Dx ∪ E ⊨ q`.
//! Livshits et al. reduce the Shapley value to these counts (see
//! [`crate::shapley`]); Lemma 3.2 of the paper extends their `CntSat`
//! algorithm to hierarchical self-join-free CQ¬s by fixing the ground
//! base case. [`HierarchicalCounter`] implements that algorithm:
//!
//! 1. **Ground base case** — with all atoms ground, a subset satisfies
//!    the query iff it contains every endogenous fact matching a positive
//!    atom and none matching a negative atom (and no *exogenous* fact
//!    matches a negative atom); the count is a single binomial.
//! 2. **Disconnected query** — components touch disjoint relations
//!    (self-join-freeness), so counts compose by convolution.
//! 3. **Connected query with variables** — a *root variable* occurs in
//!    every atom (a structural fact about connected hierarchical
//!    queries); each fact is consistent with at most one root value, so
//!    the *unsatisfying* counts factor as a convolution over root values
//!    (facts with no satisfiable root value are free "junk" choices),
//!    and satisfaction is obtained by complementing.
//!
//! Every entry point also accepts a [`FactMask`]: the counts of the
//! Shapley reduction's modified databases (`D ∖ {f}`, `f` exogenized)
//! are answered on a zero-copy view of the original database instead of
//! a rebuilt clone — see [`SatCountOracle::counts_masked`].
//!
//! [`BruteForceCounter`] enumerates all `2^|Dn|` worlds and serves as the
//! oracle for the provably `FP^{#P}`-hard queries (at small scale) and as
//! the ground truth in tests.

use cqshap_db::{ConstId, Database, FactId, FactMask, World};
use cqshap_numeric::BigUint;
use cqshap_query::{has_self_join, is_hierarchical, ConjunctiveQuery, Term};

use crate::anyquery::AnyQuery;
use crate::budget::{self, CancelToken};
use crate::error::{CoreError, EnumerationLimit};

/// Anything that can compute the full vector
/// `[|Sat(D,q,0)|, …, |Sat(D,q,|Dn|)|]`.
///
/// Oracles must be `Sync`: [`crate::shapley::shapley_report`] fans the
/// per-fact computations out across threads.
pub trait SatCountOracle: Sync {
    /// Computes `counts[k] = |Sat(D, q, k)|` for `k = 0 ..= |Dn|`.
    fn counts(&self, db: &Database, q: AnyQuery<'_>) -> Result<Vec<BigUint>, CoreError>;

    /// Computes the counts of the database seen through `mask`.
    ///
    /// The default implementation materializes the modified copy and
    /// calls [`SatCountOracle::counts`]; the built-in oracles override
    /// it with clone-free implementations.
    fn counts_masked(
        &self,
        db: &Database,
        q: AnyQuery<'_>,
        mask: FactMask,
    ) -> Result<Vec<BigUint>, CoreError> {
        match mask {
            FactMask::None => self.counts(db, q),
            FactMask::Removed(f) => {
                let (modified, _) = db.without_fact(f)?;
                self.counts(&modified, q)
            }
            FactMask::Exogenous(f) => {
                let (modified, _) = db.with_fact_exogenous(f)?;
                self.counts(&modified, q)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Internal pattern representation
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PTerm {
    Var(u32),
    Const(ConstId),
}

#[derive(Debug, Clone)]
pub(crate) struct PAtom {
    pub(crate) negated: bool,
    pub(crate) terms: Vec<PTerm>,
}

impl PAtom {
    pub(crate) fn has_vars(&self) -> bool {
        self.terms.iter().any(|t| matches!(t, PTerm::Var(_)))
    }

    pub(crate) fn vars(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .terms
            .iter()
            .filter_map(|t| match t {
                PTerm::Var(v) => Some(*v),
                PTerm::Const(_) => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Does `fact_tuple` match this pattern (constants agree, positions
    /// sharing one variable agree)?
    // cqshap-lint: allow(cancellation-reachability) -- bounded by the atom's arity
    pub(crate) fn matches(&self, values: &[ConstId]) -> bool {
        debug_assert_eq!(values.len(), self.terms.len());
        let mut bound: Vec<(u32, ConstId)> = Vec::new();
        for (t, &val) in self.terms.iter().zip(values) {
            match t {
                PTerm::Const(c) => {
                    if *c != val {
                        return false;
                    }
                }
                PTerm::Var(v) => match bound.iter().find(|(bv, _)| bv == v) {
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

    /// The value a matching fact assigns to variable `v` (which must
    /// occur in this atom).
    #[expect(
        clippy::unreachable,
        reason = "callers scan variables collected from this atom's own terms"
    )]
    // cqshap-lint: allow(cancellation-reachability) -- bounded by the atom's arity
    pub(crate) fn value_of(&self, v: u32, values: &[ConstId]) -> ConstId {
        for (t, &val) in self.terms.iter().zip(values) {
            if *t == PTerm::Var(v) {
                return val;
            }
        }
        unreachable!("variable {v} does not occur in atom");
    }

    pub(crate) fn substitute(&self, v: u32, c: ConstId) -> PAtom {
        PAtom {
            negated: self.negated,
            terms: self
                .terms
                .iter()
                .map(|t| {
                    if *t == PTerm::Var(v) {
                        PTerm::Const(c)
                    } else {
                        *t
                    }
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Masked database view
// ---------------------------------------------------------------------

/// A database seen through a [`FactMask`] — the unit the recursion is
/// generic over, so one implementation serves the unmodified counts and
/// both per-fact modified instances.
#[derive(Clone, Copy)]
pub(crate) struct MaskedDb<'a> {
    pub(crate) db: &'a Database,
    pub(crate) mask: FactMask,
}

impl<'a> MaskedDb<'a> {
    pub(crate) fn new(db: &'a Database, mask: FactMask) -> Self {
        MaskedDb { db, mask }
    }

    pub(crate) fn is_endo(&self, f: FactId) -> bool {
        self.mask.is_endogenous(self.db, f)
    }
}

// ---------------------------------------------------------------------
// Query resolution against the database
// ---------------------------------------------------------------------

/// A hierarchical self-join-free query resolved against a database:
/// patterns plus the per-atom scopes of matching facts (unmasked).
pub(crate) enum ResolvedQuery {
    /// A positive atom can never match (unknown relation or constant).
    Unsatisfiable,
    /// Patterns, their relations, and their scopes. An empty atom list
    /// means every negation was vacuous: the query is a tautology.
    Atoms {
        atoms: Vec<PAtom>,
        rels: Vec<cqshap_db::RelId>,
        scopes: Vec<Vec<FactId>>,
    },
}

/// Resolves `q` against `db`, checking the structural preconditions of
/// the hierarchical counter.
///
/// # Errors
/// [`CoreError::NotSelfJoinFree`] / [`CoreError::NotHierarchical`] when
/// the preconditions fail, [`CoreError::Unsupported`] on arity clashes.
pub(crate) fn resolve_query(
    db: &Database,
    q: &ConjunctiveQuery,
) -> Result<ResolvedQuery, CoreError> {
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
    // A positive atom over an unknown relation or constant is
    // unsatisfiable; a negative one can never fire and is dropped.
    let mut atoms: Vec<PAtom> = Vec::new();
    let mut rels: Vec<cqshap_db::RelId> = Vec::new();
    let mut scopes: Vec<Vec<FactId>> = Vec::new();
    for atom in q.atoms() {
        let rel = db.schema().id(&atom.relation);
        let mut unknown_const = false;
        let terms: Vec<PTerm> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => PTerm::Var(v.0),
                Term::Const(name) => match db.interner().get(name) {
                    Some(c) => PTerm::Const(c),
                    None => {
                        unknown_const = true;
                        PTerm::Var(u32::MAX) // placeholder, never used
                    }
                },
            })
            .collect();
        let missing = rel.is_none() || unknown_const;
        if missing {
            if atom.negated {
                continue; // never fires
            }
            return Ok(ResolvedQuery::Unsatisfiable);
        }
        #[expect(
            clippy::expect_used,
            reason = "the guard above returns early unless a relation matched"
        )]
        let rel = rel.expect("checked above");
        if db.schema().arity(rel) != terms.len() {
            return Err(CoreError::Unsupported(format!(
                "atom {} disagrees with the arity of relation {}",
                q.render_atom(atom),
                atom.relation
            )));
        }
        let p = PAtom {
            negated: atom.negated,
            terms,
        };
        // Scope: facts of the relation matching the pattern. Non-matching
        // endogenous facts can never matter — they stay free.
        let scope: Vec<FactId> = db
            .relation_facts(rel)
            .iter()
            .copied()
            .filter(|&fid| p.matches(db.fact(fid).tuple.values()))
            .collect();
        atoms.push(p);
        rels.push(rel);
        scopes.push(scope);
    }
    Ok(ResolvedQuery::Atoms {
        atoms,
        rels,
        scopes,
    })
}

// ---------------------------------------------------------------------
// The hierarchical counter (CntSat, Lemma 3.2)
// ---------------------------------------------------------------------

/// Polynomial-time `|Sat|` counting for hierarchical self-join-free CQ¬s.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchicalCounter;

impl SatCountOracle for HierarchicalCounter {
    fn counts(&self, db: &Database, q: AnyQuery<'_>) -> Result<Vec<BigUint>, CoreError> {
        self.counts_masked(db, q, FactMask::None)
    }

    fn counts_masked(
        &self,
        db: &Database,
        q: AnyQuery<'_>,
        mask: FactMask,
    ) -> Result<Vec<BigUint>, CoreError> {
        let cq = q.as_cq().ok_or_else(|| {
            CoreError::Unsupported("the hierarchical counter handles single CQ¬s only".into())
        })?;
        count_sat_hierarchical_masked(db, cq, mask)
    }
}

/// Computes `[|Sat(D,q,k)|]_{k=0..|Dn|}` for a hierarchical
/// self-join-free CQ¬.
///
/// # Errors
/// [`CoreError::NotSelfJoinFree`] / [`CoreError::NotHierarchical`] when
/// the structural preconditions fail.
pub fn count_sat_hierarchical(
    db: &Database,
    q: &ConjunctiveQuery,
) -> Result<Vec<BigUint>, CoreError> {
    count_sat_hierarchical_masked(db, q, FactMask::None)
}

/// [`count_sat_hierarchical`] on the database seen through `mask` — the
/// counts of `D ∖ {f}` or of `D` with `f` exogenized, without building
/// either copy.
pub fn count_sat_hierarchical_masked(
    db: &Database,
    q: &ConjunctiveQuery,
    mask: FactMask,
) -> Result<Vec<BigUint>, CoreError> {
    crate::domain::eval_query_masked(&crate::domain::CountingDomain::new(None), db, q, mask)
}

pub(crate) fn scope_endo_count(view: MaskedDb<'_>, scopes: &[Vec<FactId>]) -> usize {
    scopes
        .iter()
        .flatten()
        .filter(|&&f| view.is_endo(f))
        .count()
}

/// `[C(n,k) - v[k]]_k` — flipping between satisfying and unsatisfying
/// counts over `n` endogenous facts. The Pascal row is stepped along
/// with `k` (`C(n, k+1) = C(n, k)·(n−k)/(k+1)`, word-size operations)
/// instead of recomputing each binomial from scratch.
pub(crate) fn complement_counts(v: &[BigUint], n: usize) -> Vec<BigUint> {
    debug_assert_eq!(v.len(), n + 1);
    let mut row = BigUint::one();
    let mut out = Vec::with_capacity(n + 1);
    for (k, vk) in v.iter().enumerate() {
        #[expect(
            clippy::expect_used,
            reason = "the running count is bounded by C(n, k) by construction"
        )]
        out.push(row.checked_sub(vk).expect("count bounded by C(n, k)"));
        if k < n {
            row.mul_u64_assign((n - k) as u64);
            let rem = row.div_rem_u64_assign((k + 1) as u64);
            debug_assert_eq!(rem, 0, "Pascal row entries divide exactly");
        }
    }
    out
}

/// Root values with *full positive support*: the candidates of case 3.
/// All other facts are junk (they can never participate in a satisfying
/// homomorphism of this sub-query).
pub(crate) fn root_candidates(
    view: MaskedDb<'_>,
    root: u32,
    atoms: &[PAtom],
    scopes: &[Vec<FactId>],
) -> Result<Vec<ConstId>, CoreError> {
    let mut candidates: Option<Vec<ConstId>> = None;
    for (atom, scope) in atoms.iter().zip(scopes) {
        if atom.negated {
            continue;
        }
        let mut vals: Vec<ConstId> = scope
            .iter()
            .map(|&f| atom.value_of(root, view.db.fact(f).tuple.values()))
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
    candidates
        .ok_or_else(|| CoreError::Unsupported("connected sub-query with no positive atom".into()))
}

/// The per-atom scopes of every root value's group, partitioned by one
/// sort of a sub-query's scope facts on their root value (each group
/// keeps the scope order).
pub(crate) struct RootGroups {
    atoms: usize,
    /// `(root value, atom, fact)`, ordered by root value.
    facts: Vec<(ConstId, usize, FactId)>,
}

impl RootGroups {
    /// Partitions `scopes` by the value each fact gives `root`.
    pub(crate) fn new(
        view: MaskedDb<'_>,
        root: u32,
        atoms: &[PAtom],
        scopes: &[Vec<FactId>],
    ) -> Self {
        let mut facts: Vec<(ConstId, usize, FactId)> = atoms
            .iter()
            .zip(scopes)
            .enumerate()
            .flat_map(|(i, (atom, scope))| {
                scope.iter().map(move |&f| {
                    let c = atom.value_of(root, view.db.fact(f).tuple.values());
                    (c, i, f)
                })
            })
            .collect();
        // Stable: within a root value, atoms and scopes keep their order.
        facts.sort_by_key(|&(c, _, _)| c);
        RootGroups {
            atoms: atoms.len(),
            facts,
        }
    }

    /// The per-atom scopes of the root-value-`c` group.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over one root group's facts
    pub(crate) fn group(&self, c: ConstId) -> Vec<Vec<FactId>> {
        let mut scopes = vec![Vec::new(); self.atoms];
        let start = self.facts.partition_point(|&(v, _, _)| v < c);
        let group = self
            .facts
            .iter()
            .skip(start)
            .take_while(|&&(v, _, _)| v == c);
        for &(_, i, f) in group {
            if let Some(scope) = scopes.get_mut(i) {
                scope.push(f);
            }
        }
        scopes
    }
}

/// Connected components of atoms under the shares-a-variable relation,
/// ordered by each component's union-find representative.
pub(crate) fn connected_components(atoms: &[PAtom]) -> Vec<Vec<usize>> {
    let vars: Vec<Vec<u32>> = atoms.iter().map(PAtom::vars).collect();
    let mut parent: Vec<usize> = (0..atoms.len()).collect();
    let find = |parent: &[usize], mut a: usize| {
        while let Some(&p) = parent.get(a) {
            if p == a {
                break;
            }
            a = p;
        }
        a
    };
    for (i, vi) in vars.iter().enumerate() {
        for (j, vj) in vars.iter().enumerate().skip(i + 1) {
            if vj.iter().any(|v| vi.binary_search(v).is_ok()) {
                let (ri, rj) = (find(&parent, i), find(&parent, j));
                if let Some(p) = parent.get_mut(ri) {
                    *p = rj;
                }
            }
        }
    }
    let mut comps: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..atoms.len() {
        comps.entry(find(&parent, i)).or_default().push(i);
    }
    comps.into_values().collect()
}

/// A variable occurring in every atom, if any.
pub(crate) fn find_root_var(atoms: &[PAtom]) -> Option<u32> {
    let first = atoms.first()?.vars();
    first
        .into_iter()
        .find(|v| atoms.iter().all(|a| a.vars().binary_search(v).is_ok()))
}

// ---------------------------------------------------------------------
// Brute force
// ---------------------------------------------------------------------

/// `|Sat|` counting by explicit enumeration of all `2^|Dn|` worlds.
///
/// The ground-truth oracle for tests, and the only exact option for the
/// queries the dichotomies classify as `FP^{#P}`-hard. Enumeration is
/// parallelized across threads for larger universes. Masked counts skip
/// the masked fact's bit entirely, halving the world count on top of
/// avoiding the database clone.
#[derive(Debug, Clone)]
pub struct BruteForceCounter {
    /// Maximum `|Dn|` accepted (default [`BruteForceCounter::DEFAULT_LIMIT`]).
    limit: usize,
    /// Cooperative cancellation token polled every few thousand worlds.
    cancel: Option<CancelToken>,
    /// Worker cap for the enumeration fan-out (`0` = all cores, capped
    /// at 16 — the [`crate::ShapleyOptions::threads`] convention).
    threads: usize,
}

impl BruteForceCounter {
    /// Default cap on `|Dn|` (2^26 worlds ≈ seconds of work).
    pub const DEFAULT_LIMIT: usize = 26;

    /// A counter accepting up to `limit` world bits, fanning the
    /// enumeration out across up to `threads` workers (`0` = all cores,
    /// capped at 16 — the [`crate::ShapleyOptions::threads`]
    /// convention). `cancel` (if any) is polled every `4096` worlds, and
    /// a tripped budget aborts with [`CoreError::DeadlineExceeded`]
    /// (phase `brute-force`). [`BruteForceCounter::default`] is
    /// `new(DEFAULT_LIMIT, 0, None)`.
    pub fn new(limit: usize, threads: usize, cancel: Option<&CancelToken>) -> Self {
        BruteForceCounter {
            limit,
            cancel: cancel.cloned(),
            threads,
        }
    }

    /// The configured `|Dn|` cap.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Enumerates worlds whose bit at `forced_pos` (if any) is pinned to
    /// `forced_value`, tallying by the count of the *other* bits.
    fn enumerate(
        &self,
        db: &Database,
        q: AnyQuery<'_>,
        bits: usize,
        forced: Option<(usize, bool)>,
    ) -> Result<Vec<BigUint>, CoreError> {
        if bits > self.limit {
            return Err(CoreError::TooManyEndogenousFacts {
                count: bits,
                limit: self.limit,
                kind: EnumerationLimit::SatCount,
            });
        }
        let compiled = q.compile(db);
        let total: u64 = 1u64 << bits;
        // Small universes stay sequential; larger ones fan out through
        // the sanctioned `parallel` module so the thread cap applies.
        let workers = if bits >= 18 {
            crate::parallel::resolve_thread_cap(self.threads).min(total.max(1) as usize)
        } else {
            1
        };
        let expand = |e: u64| -> u64 {
            match forced {
                None => e,
                Some((pos, value)) => {
                    let low = e & ((1u64 << pos) - 1);
                    let high = (e >> pos) << (pos + 1);
                    low | high | ((value as u64) << pos)
                }
            }
        };
        let chunk = total.div_ceil(workers as u64);
        let cancel = self.cancel.as_ref();
        let per_thread: Vec<Vec<u64>> = crate::parallel::par_map_with(workers, workers, |t| {
            let lo = t as u64 * chunk;
            let hi = (lo + chunk).min(total);
            let mut counts = vec![0u64; bits + 1];
            let mut world = World::empty(db);
            for e in lo..hi {
                if e & 0xFFF == 0 && cancel.is_some_and(|c| c.charge(1)) {
                    break;
                }
                world.assign_mask(expand(e));
                if compiled.satisfied(db, &world) {
                    if let Some(count) = counts.get_mut(e.count_ones() as usize) {
                        *count += 1;
                    }
                }
            }
            counts
        });
        if let Some(token) = &self.cancel {
            budget::check(token, cqshap_obs::phase::BRUTE_FORCE)?;
        }
        let mut out = vec![BigUint::zero(); bits + 1];
        for counts in per_thread {
            for (total, c) in out.iter_mut().zip(counts) {
                *total += &BigUint::from_u64(c);
            }
        }
        Ok(out)
    }
}

impl Default for BruteForceCounter {
    fn default() -> Self {
        Self::new(Self::DEFAULT_LIMIT, 0, None)
    }
}

impl SatCountOracle for BruteForceCounter {
    fn counts(&self, db: &Database, q: AnyQuery<'_>) -> Result<Vec<BigUint>, CoreError> {
        self.enumerate(db, q, db.endo_count(), None)
    }

    fn counts_masked(
        &self,
        db: &Database,
        q: AnyQuery<'_>,
        mask: FactMask,
    ) -> Result<Vec<BigUint>, CoreError> {
        match mask {
            FactMask::None => self.counts(db, q),
            FactMask::Removed(f) => match db.endo_index(f) {
                Some(pos) => self.enumerate(db, q, db.endo_count() - 1, Some((pos, false))),
                // An absent *exogenous* fact cannot be expressed as a
                // world bit — fall back to the materialized copy (which
                // also validates the id), matching the default impl.
                None => {
                    let (modified, _) = db.without_fact(f)?;
                    self.counts(&modified, q)
                }
            },
            FactMask::Exogenous(f) => match db.endo_index(f) {
                Some(pos) => self.enumerate(db, q, db.endo_count() - 1, Some((pos, true))),
                // Already exogenous: the identity view (the rebuild
                // validates the id and changes nothing).
                None => {
                    let (modified, _) = db.with_fact_exogenous(f)?;
                    self.counts(&modified, q)
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqshap_numeric::binomial;
    use cqshap_query::parse_cq;

    fn counts_match(db: &Database, q: &ConjunctiveQuery) {
        let fast = count_sat_hierarchical(db, q).unwrap();
        let slow = BruteForceCounter::default()
            .counts(db, AnyQuery::Cq(q))
            .unwrap();
        assert_eq!(fast, slow, "query {q} on\n{db}");
    }

    /// The masked counts must equal the counts of the materialized
    /// modified database, for both oracles and both masks.
    fn masked_counts_match(db: &Database, q: &ConjunctiveQuery) {
        let hier = HierarchicalCounter;
        let brute = BruteForceCounter::default();
        for &f in db.endo_facts() {
            let (minus, _) = db.without_fact(f).unwrap();
            let (plus, _) = db.with_fact_exogenous(f).unwrap();
            for (mask, materialized) in [
                (FactMask::Removed(f), &minus),
                (FactMask::Exogenous(f), &plus),
            ] {
                let want = count_sat_hierarchical(materialized, q).unwrap();
                let got = hier.counts_masked(db, AnyQuery::Cq(q), mask).unwrap();
                assert_eq!(got, want, "hierarchical {mask:?} on {}", db.render_fact(f));
                let want_bf = brute.counts(materialized, AnyQuery::Cq(q)).unwrap();
                let got_bf = brute.counts_masked(db, AnyQuery::Cq(q), mask).unwrap();
                assert_eq!(got_bf, want_bf, "brute {mask:?} on {}", db.render_fact(f));
            }
        }
    }

    fn university() -> Database {
        Database::parse(
            "exo Stud(Adam)\nexo Stud(Ben)\nexo Stud(Caroline)\nexo Stud(David)\n\
             endo TA(Adam)\nendo TA(Ben)\nendo TA(David)\n\
             exo Course(OS, EE)\nexo Course(IC, EE)\nexo Course(DB, CS)\nexo Course(AI, CS)\n\
             endo Reg(Adam, OS)\nendo Reg(Adam, AI)\nendo Reg(Ben, OS)\n\
             endo Reg(Caroline, DB)\nendo Reg(Caroline, IC)\n\
             exo Adv(Michael, Adam)\nexo Adv(Michael, Ben)\nexo Adv(Naomi, Caroline)\n\
             exo Adv(Michael, David)\n",
        )
        .unwrap()
    }

    #[test]
    fn q1_on_running_example() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        counts_match(&db, &q1);
        // Spot value: every world containing Reg(Caroline, DB) satisfies;
        // |Sat| at k = |Dn| = 8 is 1.
        let v = count_sat_hierarchical(&db, &q1).unwrap();
        assert_eq!(v.len(), 9);
        assert_eq!(v[8], BigUint::one());
        assert_eq!(v[0], BigUint::zero());
    }

    #[test]
    fn masked_counts_equal_materialized_copies() {
        let db = university();
        for text in [
            "q() :- Stud(x), !TA(x), Reg(x, y)",
            "q() :- Reg(x, y)",
            "q() :- Stud(x), !TA(x)",
            "q() :- TA('Adam'), !Reg('Ben', 'OS')",
            "q() :- TA(x), Course(y, 'CS')",
        ] {
            masked_counts_match(&db, &parse_cq(text).unwrap());
        }
    }

    #[test]
    fn masks_of_exogenous_facts_agree_with_materialized_copies() {
        let db = university();
        let q = parse_cq("q() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let stud = db.find_fact("Stud", &["Adam"]).unwrap();
        let oracles: [&dyn SatCountOracle; 2] =
            [&HierarchicalCounter, &BruteForceCounter::default()];
        for oracle in oracles {
            let (minus, _) = db.without_fact(stud).unwrap();
            let want_removed = oracle.counts(&minus, AnyQuery::Cq(&q)).unwrap();
            let got_removed = oracle
                .counts_masked(&db, AnyQuery::Cq(&q), FactMask::Removed(stud))
                .unwrap();
            assert_eq!(got_removed, want_removed);
            // Exogenizing an already-exogenous fact is the identity.
            let want_exo = oracle.counts(&db, AnyQuery::Cq(&q)).unwrap();
            let got_exo = oracle
                .counts_masked(&db, AnyQuery::Cq(&q), FactMask::Exogenous(stud))
                .unwrap();
            assert_eq!(got_exo, want_exo);
        }
    }

    #[test]
    fn dangling_mask_target_is_rejected_by_every_oracle() {
        let db = university();
        let q = parse_cq("q() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let bogus = cqshap_db::FactId(u32::MAX);
        let oracles: [&dyn SatCountOracle; 2] =
            [&HierarchicalCounter, &BruteForceCounter::default()];
        for oracle in oracles {
            for mask in [FactMask::Removed(bogus), FactMask::Exogenous(bogus)] {
                assert!(matches!(
                    oracle.counts_masked(&db, AnyQuery::Cq(&q), mask),
                    Err(CoreError::Db(cqshap_db::DbError::UnknownFact { .. }))
                ));
            }
        }
    }

    #[test]
    fn masked_counts_on_vacuous_and_unsatisfiable_queries() {
        let db = university();
        masked_counts_match(&db, &parse_cq("q() :- !Ghost('x'), TA('Adam')").unwrap());
        masked_counts_match(&db, &parse_cq("q() :- Ghost('x')").unwrap());
        masked_counts_match(&db, &parse_cq("q() :- !TA('Nobody')").unwrap());
    }

    #[test]
    fn purely_positive_hierarchical() {
        let db = university();
        for text in [
            "q() :- Reg(x, y)",
            "q() :- Stud(x), Reg(x, y)",
            "q() :- Stud(x), TA(x), Reg(x, y)",
            "q() :- Reg(x, 'OS')",
        ] {
            counts_match(&db, &parse_cq(text).unwrap());
        }
    }

    #[test]
    fn negation_heavy_hierarchical() {
        let db = university();
        for text in [
            "q() :- Stud(x), !TA(x)",
            "q() :- Stud(x), !Reg(x, 'OS')",
            "q() :- Reg(x, y), !TA(x)",
            "q() :- Stud(x), !TA(x), Reg(x, y), Adv(z, x)",
        ] {
            counts_match(&db, &parse_cq(text).unwrap());
        }
    }

    #[test]
    fn ground_queries() {
        let db = university();
        for text in [
            "q() :- TA('Adam')",
            "q() :- !TA('Adam')",
            "q() :- TA('Adam'), !Reg('Ben', 'OS')",
            "q() :- Stud('Adam')",
            "q() :- !Stud('Adam')",
            "q() :- TA('Nobody')",
            "q() :- !TA('Nobody')",
            "q() :- Ghost('x')",
            "q() :- !Ghost('x'), TA('Adam')",
        ] {
            counts_match(&db, &parse_cq(text).unwrap());
        }
    }

    #[test]
    fn disconnected_queries() {
        let db = university();
        for text in [
            "q() :- TA(x), Course(y, 'CS')",
            "q() :- TA(x), Course(y, f), !Reg('Caroline', y)",
            "q() :- Reg(x, 'OS'), Reg2(y, 'DB')",
        ] {
            counts_match(&db, &parse_cq(text).unwrap());
        }
    }

    #[test]
    fn repeated_variable_patterns() {
        let mut db = Database::new();
        db.add_endo("E", &["a", "a"]).unwrap();
        db.add_endo("E", &["a", "b"]).unwrap();
        db.add_endo("E", &["b", "b"]).unwrap();
        db.add_endo("R", &["a"]).unwrap();
        for text in ["q() :- E(x, x)", "q() :- R(x), !E(x, x)"] {
            counts_match(&db, &parse_cq(text).unwrap());
            masked_counts_match(&db, &parse_cq(text).unwrap());
        }
    }

    #[test]
    fn rejects_non_hierarchical_and_self_joins() {
        let db = university();
        let q = parse_cq("q() :- Stud(x), Reg(x, y), Course(y, z)").unwrap();
        assert!(matches!(
            count_sat_hierarchical(&db, &q),
            Err(CoreError::NotHierarchical { .. })
        ));
        let sj = parse_cq("q() :- Reg(x, y), Reg(y, x)").unwrap();
        assert!(matches!(
            count_sat_hierarchical(&db, &sj),
            Err(CoreError::NotSelfJoinFree { .. })
        ));
    }

    #[test]
    fn brute_force_limit() {
        let mut db = Database::new();
        for i in 0..5 {
            db.add_endo("R", &[&format!("c{i}")]).unwrap();
        }
        let q = parse_cq("q() :- R(x)").unwrap();
        let small = BruteForceCounter::new(4, 0, None);
        assert!(matches!(
            small.counts(&db, AnyQuery::Cq(&q)),
            Err(CoreError::TooManyEndogenousFacts {
                count: 5,
                limit: 4,
                kind: EnumerationLimit::SatCount
            })
        ));
        // The masked instances drop to 4 endogenous facts and fit.
        let f = db.endo_facts()[0];
        assert!(small
            .counts_masked(&db, AnyQuery::Cq(&q), FactMask::Removed(f))
            .is_ok());
        // counts for q() :- R(x): all nonempty subsets satisfy.
        let ok = BruteForceCounter::default()
            .counts(&db, AnyQuery::Cq(&q))
            .unwrap();
        assert_eq!(ok[0], BigUint::zero());
        for (k, c) in ok.iter().enumerate().skip(1) {
            assert_eq!(*c, binomial(5, k));
        }
    }

    #[test]
    fn running_pascal_row_matches_binomial() {
        for n in 0..=80usize {
            let zeros = vec![BigUint::zero(); n + 1];
            let row = complement_counts(&zeros, n);
            for (k, c) in row.iter().enumerate() {
                assert_eq!(*c, binomial(n, k), "C({n}, {k})");
            }
            // Subtracting the row itself leaves nothing.
            let full: Vec<BigUint> = (0..=n).map(|k| binomial(n, k)).collect();
            assert!(complement_counts(&full, n).iter().all(BigUint::is_zero));
        }
    }
}
