//! The **evaluation domain** abstraction: one recursion, many answers.
//!
//! Lemma 3.2's `CntSat` recursion and lifted inference over
//! tuple-independent probabilistic databases have *exactly* the same
//! shape — ground products, independent-component products, and a
//! root-variable decomposition whose disjunction is evaluated through
//! the complement. "When is Shapley Value Computation a Matter of
//! Counting?" (arXiv 2312.14529) makes the correspondence precise: both
//! are evaluations of the same satisfying-subset structure in different
//! semirings-with-complement.
//!
//! [`EvalDomain`] captures the handful of operations the recursion
//! actually needs (identity, combination over disjoint fact sets,
//! per-atom ground contributions, complementation, exact division for
//! incremental factor swaps). Two instances are provided:
//!
//! * [`CountingDomain`] — the existing exact counting domain. Values
//!   are size-indexed coalition-count polynomials `[|Sat(D,q,k)|]_k`
//!   over [`BigUint`]; combination is convolution (dispatched through
//!   [`cqshap_numeric::poly`]'s Karatsuba/NTT subsystem), a set of `n`
//!   free facts contributes the binomial row `[C(n,k)]_k`, and
//!   complementation is `C(n,k) − v[k]`. Bit-identical to the
//!   previously hard-wired arithmetic.
//! * [`ProbabilityDomain`] — the tuple-independent probability domain.
//!   Values are exact [`BigRational`] probabilities; combination is
//!   multiplication, free facts contribute `1`, and complementation is
//!   `1 − p`. Evaluating the *same* compiled structure in this domain
//!   yields `Pr[q]` under per-fact probabilities — lifted inference
//!   served by the counting engine's compile (see
//!   [`crate::compiled::CompiledProbability`]).
//!
//! The generic recursion (`eval_rec`) evaluates a query from scratch: it
//! is the implementation behind
//! [`crate::satcount::count_sat_hierarchical`] and the oracle the tests
//! hold the compiled engines to. The compiled engines evaluate the same
//! recursion compiled once into trees (`crate::tree`), so a per-fact
//! recount or an update walks one leaf-to-root path instead of
//! re-running it.
//!
//! The domains are internal to the crate; of this module only
//! [`FactProbabilities`] (a session's probability input) and
//! [`probability_by_enumeration`] (the world-enumeration oracle) are
//! public, re-exported at the crate root.

use std::collections::HashMap;

use cqshap_db::{Database, FactId, FactMask, World};
use cqshap_numeric::{poly, BigRational, BigUint, BinomialCache, CancelToken};

use crate::anyquery::AnyQuery;
use crate::budget;
use crate::error::{CoreError, EnumerationLimit};
use crate::satcount::{
    complement_counts, connected_components, find_root_var, resolve_query, root_candidates,
    scope_endo_count, MaskedDb, PAtom, ResolvedQuery, RootGroups,
};

/// The value algebra of the `CntSat`/lifted-inference recursion.
///
/// A domain assigns a *value* to every (sub-)query-over-scoped-facts
/// instance and explains how values compose:
///
/// * [`one`](EvalDomain::one) / [`combine`](EvalDomain::combine) — the
///   value of an empty conjunction and the composition over *disjoint*
///   endogenous fact sets (counting: convolution; probability:
///   product — independence of tuple events).
/// * [`present`](EvalDomain::present) / [`absent`](EvalDomain::absent)
///   — the ground atom contributions: the value of "this fact must be
///   in the coalition/world" and "must not be".
/// * [`free`](EvalDomain::free) — the value of `n` unconstrained
///   endogenous facts (counting: `[C(n,k)]_k`; probability: `1`). Such
///   facts are null players; the compiled engines leave them out of
///   every value and multiply this row in only where a full-database
///   value is read.
/// * [`complement`](EvalDomain::complement) — negation over `endo`
///   endogenous facts, turning unsatisfying values into satisfying
///   ones (counting: `C(endo,k) − v[k]`; probability: `1 − p`).
/// * [`try_divide`](EvalDomain::try_divide) — exact division by a
///   nonzero value, the enabler of incremental maintenance: swapping
///   one factor of a cached product is division by the old factor and
///   combination with the new one, and a root group's leave-one-out
///   environment is the product divided by the left-out factor. Zero
///   factors never reach it — the engines count them instead of
///   multiplying them in.
///
/// The remaining methods have sound defaults: [`CountingDomain`]
/// overrides [`product`](EvalDomain::product) with the parallel,
/// cancellable product trees of the `poly` subsystem, and both domains
/// share the prefix/suffix descent of
/// [`leave_one_out`](EvalDomain::leave_one_out). A product that finds the
/// domain's token tripped returns [`CoreError::DeadlineExceeded`] for the
/// caller's `phase` instead of a value, so every `Ok` value is exact.
pub(crate) trait EvalDomain: Sync {
    /// The value type: coalition-count polynomials for counting, exact
    /// probabilities for the tuple-independent domain.
    type Value: Clone + PartialEq + Send + Sync + std::fmt::Debug + 'static;

    /// The multiplicative identity (empty conjunction over no facts).
    fn one(&self) -> Self::Value;

    /// The annihilating zero, shaped for `endo` endogenous facts
    /// (counting: `endo + 1` zero coefficients; probability: `0`).
    fn zero(&self, endo: usize) -> Self::Value;

    /// Is `v` the zero value (no satisfying coalition at any size)?
    fn is_zero(&self, v: &Self::Value) -> bool;

    /// Composition over disjoint endogenous fact sets.
    fn combine(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// The value of `n` unconstrained ("free") endogenous facts: the
    /// factor a set of null players contributes to a full-database
    /// value.
    fn free(&self, n: usize) -> Self::Value;

    /// Negation over `endo` endogenous facts: the value of "not `v`".
    /// `v` is always an exact value — a cancelled kernel returns an
    /// error, never a value — so counting never underflows here.
    fn complement(&self, v: &Self::Value, endo: usize) -> Self::Value;

    /// Ground contribution of a positive atom matched by fact `f`
    /// (`endo` = is the fact endogenous under the current view).
    fn present(&self, f: FactId, endo: bool) -> Self::Value;

    /// Ground contribution of a negative atom matched by fact `f`.
    fn absent(&self, f: FactId, endo: bool) -> Self::Value;

    /// Exact division by a nonzero `den`: `Some(q)` with
    /// `combine(q, den) == num`, or `None` when the division is not
    /// exact (never when `den` is a factor of `num`). Callers pass only
    /// nonzero divisors; a zero one yields `None` rather than a panic.
    fn try_divide(&self, num: &Self::Value, den: &Self::Value) -> Option<Self::Value>;

    /// `⊛ factors` — the product of many values, for pipeline `phase`
    /// (an obs phase key naming the deadline if the product is cut).
    ///
    /// # Errors
    /// [`CoreError::DeadlineExceeded`] when the domain's token trips.
    fn product(
        &self,
        factors: &[&Self::Value],
        threads: usize,
        phase: &'static str,
    ) -> Result<Self::Value, CoreError> {
        let _ = (threads, phase);
        let mut acc = self.one();
        for f in factors {
            acc = self.combine(&acc, f);
        }
        Ok(acc)
    }

    /// For each `i`: `⊛_{j≠i} factors[j]` — the leave-one-out
    /// environments of a product's factors, for pipeline `phase`, by the
    /// prefix/suffix descent: the product of the factors before `i`
    /// times the product of those after it. Only the products some
    /// environment reads are formed — never the full product, the last
    /// prefix or the last suffix — so one or two factors cost no product
    /// at all, and `n ≥ 3` factors cost `3n − 6`.
    ///
    /// # Errors
    /// [`CoreError::DeadlineExceeded`] when the domain's token trips; it
    /// is charged once per product.
    fn leave_one_out(
        &self,
        factors: &[&Self::Value],
        phase: &'static str,
    ) -> Result<Vec<Self::Value>, CoreError> {
        // `acc ⊛ factor`, with `None` the empty product.
        let times = |acc: Option<&Self::Value>, factor: &Self::Value| -> Result<_, CoreError> {
            match acc {
                None => Ok(factor.clone()),
                Some(acc) => {
                    self.checkpoint(phase)?;
                    Ok(self.combine(acc, factor))
                }
            }
        };
        let n = factors.len();
        // prefixes[i] = ⊛ factors[..i].
        let mut prefixes: Vec<Option<Self::Value>> = Vec::with_capacity(n);
        let mut acc: Option<Self::Value> = None;
        for &factor in factors.iter().take(n.saturating_sub(1)) {
            let next = times(acc.as_ref(), factor)?;
            prefixes.push(acc.replace(next));
        }
        prefixes.push(acc);
        // The suffix products are folded from the right while the
        // environments are emitted.
        let mut suffix: Option<Self::Value> = None;
        let mut envs = Vec::with_capacity(n);
        for (i, (&factor, prefix)) in factors.iter().zip(prefixes).enumerate().rev() {
            envs.push(match &suffix {
                Some(suffix) => times(prefix.as_ref(), suffix)?,
                None => prefix.unwrap_or_else(|| self.one()),
            });
            if i > 0 {
                suffix = Some(times(suffix.as_ref(), factor)?);
            }
        }
        envs.reverse();
        Ok(envs)
    }

    /// Do isomorphic fact groups (equal canonical forms: constants
    /// renamed, endogeneity preserved) have equal values? True for
    /// counting — the recursion cannot tell renamed constants apart —
    /// but **false** for probabilities, where each fact carries its own
    /// parameter. Gates the per-isomorphism-class compile and recount
    /// memoizations.
    fn canon_determines_value(&self) -> bool {
        false
    }

    /// The cooperative cancellation token the domain's evaluation
    /// polls, if the engine was given one (see [`crate::Budget`]). The
    /// recursion checkpoints through it; [`CountingDomain`] also hands
    /// it to the polynomial kernels.
    fn cancel_token(&self) -> Option<&CancelToken> {
        None
    }

    /// Charges one work unit against the armed budget and converts a
    /// tripped token into [`CoreError::DeadlineExceeded`] for `phase` —
    /// an obs phase key, so the error and the trace name the phase
    /// identically. A no-op for budget-free domains.
    fn checkpoint(&self, phase: &'static str) -> Result<(), CoreError> {
        match self.cancel_token() {
            Some(token) if token.charge(1) => Err(budget::deadline(token, phase)),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// Counting domain
// ---------------------------------------------------------------------

/// The exact counting domain: values are the size-indexed coalition
/// count vectors `[|Sat(D,q,k)|]_{k=0..endo}` of Lemma 3.2, over
/// [`BigUint`]. Owns a [`BinomialCache`] so the binomial rows consumed
/// by [`EvalDomain::free`] are shared across the engine's lifetime.
#[derive(Debug, Default)]
pub(crate) struct CountingDomain {
    binoms: BinomialCache,
    cancel: Option<CancelToken>,
}

impl CountingDomain {
    /// A counting domain with an empty binomial cache, polling `cancel`
    /// (if any) from the recursion and the polynomial kernels.
    pub(crate) fn new(cancel: Option<CancelToken>) -> Self {
        CountingDomain {
            binoms: BinomialCache::default(),
            cancel,
        }
    }
}

impl EvalDomain for CountingDomain {
    type Value = Vec<BigUint>;

    fn one(&self) -> Vec<BigUint> {
        vec![BigUint::one()]
    }

    fn zero(&self, endo: usize) -> Vec<BigUint> {
        vec![BigUint::zero(); endo + 1]
    }

    fn is_zero(&self, v: &Vec<BigUint>) -> bool {
        v.iter().all(|c| c.is_zero())
    }

    fn combine(&self, a: &Vec<BigUint>, b: &Vec<BigUint>) -> Vec<BigUint> {
        poly::mul(a, b)
    }

    fn free(&self, n: usize) -> Vec<BigUint> {
        self.binoms.row(n).as_ref().clone()
    }

    fn complement(&self, v: &Vec<BigUint>, endo: usize) -> Vec<BigUint> {
        complement_counts(v, endo)
    }

    fn present(&self, _f: FactId, endo: bool) -> Vec<BigUint> {
        if endo {
            vec![BigUint::zero(), BigUint::one()]
        } else {
            vec![BigUint::one()]
        }
    }

    fn absent(&self, _f: FactId, endo: bool) -> Vec<BigUint> {
        if endo {
            vec![BigUint::one(), BigUint::zero()]
        } else {
            // A negative atom matched by an exogenous fact can never be
            // satisfied: the zero of the fold.
            vec![BigUint::zero()]
        }
    }

    fn try_divide(&self, num: &Vec<BigUint>, den: &Vec<BigUint>) -> Option<Vec<BigUint>> {
        poly::exact_div(num, den)
    }

    fn product(
        &self,
        factors: &[&Vec<BigUint>],
        threads: usize,
        phase: &'static str,
    ) -> Result<Vec<BigUint>, CoreError> {
        let refs: Vec<&[BigUint]> = factors.iter().map(|f| f.as_slice()).collect();
        let cancel = self.cancel.as_ref();
        poly::product_tree(&refs, threads, cancel).map_err(|e| budget::tripped(e, cancel, phase))
    }

    fn canon_determines_value(&self) -> bool {
        true
    }

    fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }
}

// ---------------------------------------------------------------------
// Probability domain
// ---------------------------------------------------------------------

/// Per-fact probabilities of a tuple-independent probabilistic
/// database: a default for every endogenous fact plus sparse per-fact
/// overrides. Exogenous facts are certain (probability `1`) by
/// construction — the evaluation consults the endogeneity flag, not
/// this map, for them.
#[derive(Debug, Clone, PartialEq)]
pub struct FactProbabilities {
    default: BigRational,
    overrides: HashMap<FactId, BigRational>,
}

impl FactProbabilities {
    /// Every endogenous fact present with probability `default`.
    ///
    /// # Panics
    /// Panics when `default ∉ [0, 1]` — validate with
    /// [`FactProbabilities::is_valid`] first at API boundaries.
    pub fn uniform(default: BigRational) -> Self {
        assert!(
            Self::is_valid(&default),
            "probability {default} outside [0, 1]"
        );
        FactProbabilities {
            default,
            overrides: HashMap::new(),
        }
    }

    /// Is `p` a probability (`0 ≤ p ≤ 1`)?
    pub fn is_valid(p: &BigRational) -> bool {
        !p.is_negative() && *p <= BigRational::one()
    }

    /// The probability of fact `f`.
    pub fn get(&self, f: FactId) -> &BigRational {
        self.overrides.get(&f).unwrap_or(&self.default)
    }

    /// Overrides the probability of fact `f`.
    ///
    /// # Panics
    /// Panics when `p ∉ [0, 1]`.
    pub fn set(&mut self, f: FactId, p: BigRational) {
        assert!(Self::is_valid(&p), "probability {p} outside [0, 1]");
        self.overrides.insert(f, p);
    }

    /// Drops `f`'s override, reverting it to the default.
    pub fn clear(&mut self, f: FactId) {
        self.overrides.remove(&f);
    }

    /// The default probability.
    pub fn default_probability(&self) -> &BigRational {
        &self.default
    }

    /// Replaces the default probability (overrides are kept).
    ///
    /// # Panics
    /// Panics when `p ∉ [0, 1]`.
    pub fn set_default(&mut self, p: BigRational) {
        assert!(Self::is_valid(&p), "probability {p} outside [0, 1]");
        self.default = p;
    }
}

/// The tuple-independent probability domain: values are exact
/// [`BigRational`] probabilities `Pr[q]`, evaluated at the per-fact
/// probabilities it owns. Evaluating the counting engine's compiled
/// structure in this domain *is* lifted inference — same recursion,
/// scalar arithmetic.
#[derive(Debug, Clone)]
pub(crate) struct ProbabilityDomain {
    probs: FactProbabilities,
    cancel: Option<CancelToken>,
}

impl PartialEq for ProbabilityDomain {
    /// Equality of the evaluation parameters only — the cancellation
    /// token is an execution-control handle, not part of the value.
    fn eq(&self, other: &Self) -> bool {
        self.probs == other.probs
    }
}

impl ProbabilityDomain {
    /// A domain evaluating at `probs`, polling `cancel` (if any) from
    /// the recursion.
    pub(crate) fn new(probs: FactProbabilities, cancel: Option<CancelToken>) -> Self {
        ProbabilityDomain { probs, cancel }
    }
}

impl EvalDomain for ProbabilityDomain {
    type Value = BigRational;

    fn one(&self) -> BigRational {
        BigRational::one()
    }

    fn zero(&self, _endo: usize) -> BigRational {
        BigRational::zero()
    }

    fn is_zero(&self, v: &BigRational) -> bool {
        v.is_zero()
    }

    fn combine(&self, a: &BigRational, b: &BigRational) -> BigRational {
        a * b
    }

    fn free(&self, _n: usize) -> BigRational {
        // Unconstrained facts marginalize out: Σ_worlds Π p = 1.
        BigRational::one()
    }

    fn complement(&self, v: &BigRational, _endo: usize) -> BigRational {
        BigRational::one() - v
    }

    fn present(&self, f: FactId, endo: bool) -> BigRational {
        if endo {
            self.probs.get(f).clone()
        } else {
            BigRational::one()
        }
    }

    fn absent(&self, f: FactId, endo: bool) -> BigRational {
        if endo {
            BigRational::one() - self.probs.get(f)
        } else {
            BigRational::zero()
        }
    }

    fn try_divide(&self, num: &BigRational, den: &BigRational) -> Option<BigRational> {
        if den.is_zero() {
            None
        } else {
            Some(num / den)
        }
    }

    fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }
}

// ---------------------------------------------------------------------
// The generic recursion
// ---------------------------------------------------------------------

/// The `CntSat` / lifted-inference recursion (Lemma 3.2), generic over
/// the evaluation domain. Invariant: every fact in `scopes[i]` matches
/// `atoms[i]`'s pattern, is admitted by the view's mask, and relations
/// across atoms are distinct.
pub(crate) fn eval_rec<D: EvalDomain>(
    dom: &D,
    view: MaskedDb<'_>,
    atoms: &[PAtom],
    scopes: &[Vec<FactId>],
) -> Result<D::Value, CoreError> {
    debug_assert_eq!(atoms.len(), scopes.len());
    dom.checkpoint(cqshap_obs::phase::EVALUATE)?;
    let total_endo = scope_endo_count(view, scopes);

    // Case 1: fully ground — fold the per-atom contributions.
    if atoms.iter().all(|a| !a.has_vars()) {
        let mut acc = dom.one();
        for (atom, scope) in atoms.iter().zip(scopes) {
            debug_assert!(scope.len() <= 1, "ground pattern matches at most one fact");
            let factor = match (atom.negated, scope.first()) {
                // A positive atom with no matching fact is unsatisfiable.
                (false, None) => dom.zero(0),
                (false, Some(&f)) => dom.present(f, view.is_endo(f)),
                // A negative atom with no matching fact always holds.
                (true, None) => continue,
                (true, Some(&f)) => dom.absent(f, view.is_endo(f)),
            };
            acc = dom.combine(&acc, &factor);
        }
        return Ok(acc);
    }

    // Case 2: disconnected components compose over disjoint fact sets.
    let components = connected_components(atoms);
    if components.len() > 1 {
        let mut acc = dom.one();
        for comp in components {
            let sub_atoms: Vec<PAtom> =
                comp.iter().filter_map(|&i| atoms.get(i).cloned()).collect();
            let sub_scopes: Vec<Vec<FactId>> = comp
                .iter()
                .filter_map(|&i| scopes.get(i).cloned())
                .collect();
            let sub = eval_rec(dom, view, &sub_atoms, &sub_scopes)?;
            acc = dom.combine(&acc, &sub);
        }
        return Ok(acc);
    }

    // Case 3: connected with variables → decompose over the root
    // variable; the *unsatisfying* values factor over root groups.
    let root = find_root_var(atoms).ok_or_else(|| {
        CoreError::Unsupported(
            "no root variable in a connected sub-query: the query is not hierarchical".into(),
        )
    })?;
    let candidates = root_candidates(view, root, atoms, scopes)?;
    let by_root = RootGroups::new(view, root, atoms, scopes);

    let mut unsat = dom.one();
    let mut grouped_endo = 0usize;
    for &c in &candidates {
        let sub_atoms: Vec<PAtom> = atoms.iter().map(|a| a.substitute(root, c)).collect();
        let sub_scopes = by_root.group(c);
        let group_endo = scope_endo_count(view, &sub_scopes);
        grouped_endo += group_endo;
        let sat_c = eval_rec(dom, view, &sub_atoms, &sub_scopes)?;
        let unsat_c = dom.complement(&sat_c, group_endo);
        unsat = dom.combine(&unsat, &unsat_c);
    }
    let junk = total_endo - grouped_endo;
    unsat = dom.combine(&unsat, &dom.free(junk));
    Ok(dom.complement(&unsat, total_endo))
}

/// Evaluates a full query under a mask: resolution, the recursion over
/// the scoped atoms, and the free-fact factor. The generic analogue of
/// [`crate::satcount::count_sat_hierarchical_masked`] (which is now a
/// wrapper instantiating this at [`CountingDomain`]).
pub(crate) fn eval_query_masked<D: EvalDomain>(
    dom: &D,
    db: &Database,
    q: &cqshap_query::ConjunctiveQuery,
    mask: FactMask,
) -> Result<D::Value, CoreError> {
    // Reject dangling ids up front, matching the error behavior of the
    // materializing oracles.
    if let Some(f) = mask.target() {
        if f.index() >= db.fact_count() {
            return Err(CoreError::Db(cqshap_db::DbError::UnknownFact { id: f.0 }));
        }
    }
    let view = MaskedDb::new(db, mask);
    let m = mask.endo_count(db);
    let (atoms, mut scopes) = match resolve_query(db, q)? {
        ResolvedQuery::Unsatisfiable => return Ok(dom.zero(m)),
        ResolvedQuery::Atoms { atoms, scopes, .. } => (atoms, scopes),
    };
    if atoms.is_empty() {
        // Every atom was a dropped (vacuous) negation: q is a tautology.
        return Ok(dom.free(m));
    }
    if let FactMask::Removed(f) = mask {
        for scope in &mut scopes {
            scope.retain(|&fid| fid != f);
        }
    }
    let scoped_endo = scope_endo_count(view, &scopes);
    #[expect(
        clippy::expect_used,
        reason = "sjf scopes are disjoint sets of endogenous facts, so their count is at most m"
    )]
    let free_endo = m
        .checked_sub(scoped_endo)
        .expect("scoped endogenous facts are disjoint across sjf atoms");
    let core = eval_rec(dom, view, &atoms, &scopes)?;
    Ok(dom.combine(&core, &dom.free(free_endo)))
}

// ---------------------------------------------------------------------
// Brute-force probability (test oracle / fallback)
// ---------------------------------------------------------------------

/// `Pr[q]` by explicit enumeration of all `2^|Dn|` worlds, in exact
/// rational arithmetic. `forced` pins one endogenous fact's bit, so
/// conditional probabilities `Pr[q | f present/absent]` enumerate half
/// the worlds. The ground-truth oracle for the lifted path and the
/// fallback for queries outside the compiled fragment.
///
/// # Errors
/// [`CoreError::TooManyEndogenousFacts`] beyond `limit` world bits.
pub fn probability_by_enumeration(
    db: &Database,
    q: AnyQuery<'_>,
    probs: &FactProbabilities,
    forced: Option<(FactId, bool)>,
    limit: usize,
) -> Result<BigRational, CoreError> {
    probability_by_enumeration_cancel(db, q, probs, forced, limit, None)
}

/// [`probability_by_enumeration`] polling a [`CancelToken`] every few
/// thousand worlds; a tripped budget returns
/// [`CoreError::DeadlineExceeded`] with phase `probability`. Crate
/// private: the public function keeps its token-free signature for
/// external callers, and sessions pass their own token here.
pub(crate) fn probability_by_enumeration_cancel(
    db: &Database,
    q: AnyQuery<'_>,
    probs: &FactProbabilities,
    forced: Option<(FactId, bool)>,
    limit: usize,
    cancel: Option<&CancelToken>,
) -> Result<BigRational, CoreError> {
    let m = db.endo_count();
    let forced = match forced {
        None => None,
        Some((f, value)) => {
            let pos = db
                .endo_index(f)
                .ok_or_else(|| CoreError::FactNotEndogenous {
                    fact: db.render_fact(f),
                })?;
            Some((pos, value))
        }
    };
    let bits = m - usize::from(forced.is_some());
    if bits > limit {
        return Err(CoreError::TooManyEndogenousFacts {
            count: bits,
            limit,
            kind: EnumerationLimit::Worlds,
        });
    }
    let compiled = q.compile(db);
    // Per-position presence/absence weights (exogenous facts are
    // certain and never appear among the world bits).
    let endo = db.endo_facts();
    let p_in: Vec<BigRational> = endo.iter().map(|&f| probs.get(f).clone()).collect();
    let p_out: Vec<BigRational> = p_in.iter().map(|p| BigRational::one() - p).collect();
    let expand = |e: u64| -> u64 {
        match forced {
            None => e,
            Some((pos, value)) => {
                let low = e & ((1u64 << pos) - 1);
                let high = (e >> pos) << (pos + 1);
                low | high | (u64::from(value) << pos)
            }
        }
    };
    let mut total = BigRational::zero();
    let mut world = World::empty(db);
    for e in 0..(1u64 << bits) {
        if e & 0xFFF == 0 {
            if let Some(token) = cancel {
                if token.charge(1) {
                    return Err(budget::deadline(token, cqshap_obs::phase::PROBABILITY));
                }
            }
        }
        let w = expand(e);
        world.assign_mask(w);
        if !compiled.satisfied(db, &world) {
            continue;
        }
        let mut weight = BigRational::one();
        for (i, (pi, po)) in p_in.iter().zip(&p_out).enumerate() {
            if let Some((pos, _)) = forced {
                if i == pos {
                    continue; // conditioned on, not weighted
                }
            }
            weight = weight * if w >> i & 1 == 1 { pi } else { po };
            if weight.is_zero() {
                break;
            }
        }
        total += &weight;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqshap_query::parse_cq;

    impl ProbabilityDomain {
        /// The per-fact probabilities (read by the compiled engines'
        /// tests).
        pub(crate) fn probabilities(&self) -> &FactProbabilities {
            &self.probs
        }
    }

    fn rat(p: i64, q: i64) -> BigRational {
        BigRational::from_i64_ratio(p, q)
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

    /// A cycle of non-dyadic and dyadic probabilities over `Dn`.
    fn cycled_probs(db: &Database) -> FactProbabilities {
        let cycle = [
            rat(1, 10),
            rat(3, 10),
            rat(1, 2),
            rat(7, 10),
            rat(9, 10),
            rat(1, 4),
            rat(3, 4),
            rat(3, 5),
        ];
        let mut probs = FactProbabilities::uniform(rat(1, 2));
        for (i, &f) in db.endo_facts().iter().enumerate() {
            probs.set(f, cycle[i % cycle.len()].clone());
        }
        probs
    }

    #[test]
    fn counting_instance_matches_hardwired_counter() {
        let db = university();
        let dom = CountingDomain::new(None);
        for text in [
            "q() :- Stud(x), !TA(x), Reg(x, y)",
            "q() :- Reg(x, y)",
            "q() :- TA('Adam'), !Reg('Ben', 'OS')",
            "q() :- TA(x), Course(y, 'CS')",
            "q() :- !TA('Nobody')",
            "q() :- Ghost(x)",
        ] {
            let q = parse_cq(text).unwrap();
            let generic = eval_query_masked(&dom, &db, &q, FactMask::None).unwrap();
            let wired = crate::satcount::count_sat_hierarchical(&db, &q).unwrap();
            assert_eq!(generic, wired, "{text}");
        }
    }

    #[test]
    fn probability_instance_matches_enumeration() {
        let db = university();
        let probs = cycled_probs(&db);
        let dom = ProbabilityDomain::new(probs.clone(), None);
        for text in [
            "q() :- Stud(x), !TA(x), Reg(x, y)",
            "q() :- Reg(x, y)",
            "q() :- Stud(x), !TA(x)",
            "q() :- TA('Adam'), !Reg('Ben', 'OS')",
            "q() :- TA(x), Course(y, 'CS')",
            "q() :- !TA('Nobody')",
            "q() :- Ghost(x)",
            "q() :- !Stud('Adam')",
        ] {
            let q = parse_cq(text).unwrap();
            let lifted = eval_query_masked(&dom, &db, &q, FactMask::None).unwrap();
            let brute =
                probability_by_enumeration(&db, AnyQuery::Cq(&q), &probs, None, 26).unwrap();
            assert_eq!(lifted, brute, "{text}");
        }
    }

    #[test]
    fn masked_probabilities_are_conditionals() {
        let db = university();
        let probs = cycled_probs(&db);
        let dom = ProbabilityDomain::new(probs.clone(), None);
        let q = parse_cq("q() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        for &f in db.endo_facts() {
            let plus = eval_query_masked(&dom, &db, &q, FactMask::Exogenous(f)).unwrap();
            let minus = eval_query_masked(&dom, &db, &q, FactMask::Removed(f)).unwrap();
            let want_plus =
                probability_by_enumeration(&db, AnyQuery::Cq(&q), &probs, Some((f, true)), 26)
                    .unwrap();
            let want_minus =
                probability_by_enumeration(&db, AnyQuery::Cq(&q), &probs, Some((f, false)), 26)
                    .unwrap();
            assert_eq!(plus, want_plus, "{} present", db.render_fact(f));
            assert_eq!(minus, want_minus, "{} absent", db.render_fact(f));
        }
    }

    #[test]
    fn tautology_and_unsatisfiable_probabilities() {
        let db = university();
        let dom = ProbabilityDomain::new(FactProbabilities::uniform(rat(1, 3)), None);
        let taut = parse_cq("q() :- !Ghost('x')").unwrap();
        assert_eq!(
            eval_query_masked(&dom, &db, &taut, FactMask::None).unwrap(),
            BigRational::one()
        );
        let unsat = parse_cq("q() :- Ghost(x)").unwrap();
        assert_eq!(
            eval_query_masked(&dom, &db, &unsat, FactMask::None).unwrap(),
            BigRational::zero()
        );
    }

    #[test]
    fn probabilities_validate_range() {
        assert!(FactProbabilities::is_valid(&rat(1, 2)));
        assert!(FactProbabilities::is_valid(&BigRational::zero()));
        assert!(FactProbabilities::is_valid(&BigRational::one()));
        assert!(!FactProbabilities::is_valid(&rat(3, 2)));
        assert!(!FactProbabilities::is_valid(&rat(-1, 2)));
    }

    #[test]
    fn enumeration_respects_limit() {
        let db = university();
        let probs = FactProbabilities::uniform(rat(1, 2));
        let q = parse_cq("q() :- Reg(x, y)").unwrap();
        assert!(matches!(
            probability_by_enumeration(&db, AnyQuery::Cq(&q), &probs, None, 4),
            Err(CoreError::TooManyEndogenousFacts { .. })
        ));
    }

    /// `⊛_{j≠i} factors[j]` folded directly: the oracle of the descent.
    fn naive_leave_one_out<D: EvalDomain>(dom: &D, factors: &[D::Value]) -> Vec<D::Value> {
        (0..factors.len())
            .map(|i| {
                factors
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .fold(dom.one(), |acc, (_, f)| dom.combine(&acc, f))
            })
            .collect()
    }

    /// Runs the descent over every rotation of `pool` cut to 0, 1, 2
    /// and 5 factors against the naive products, and checks that it
    /// charges one unit per product: none for up to two factors,
    /// `3n − 6` for `n ≥ 3`.
    fn descent_matches_naive<D: EvalDomain>(dom: impl Fn(CancelToken) -> D, pool: &[D::Value; 5]) {
        for n in [0usize, 1, 2, 5] {
            for r in 0..pool.len() {
                let token = CancelToken::unlimited();
                let dom = dom(token.clone());
                let factors: Vec<D::Value> =
                    (0..n).map(|i| pool[(i + r) % pool.len()].clone()).collect();
                let refs: Vec<&D::Value> = factors.iter().collect();
                let envs = dom.leave_one_out(&refs, "test").unwrap();
                assert_eq!(
                    envs,
                    naive_leave_one_out(&dom, &factors),
                    "n = {n}, r = {r}"
                );
                let products = if n < 3 { 0 } else { 3 * n as u64 - 6 };
                assert_eq!(token.work_done(), products, "n = {n}");
            }
        }
    }

    #[test]
    fn leave_one_out_descent_matches_naive_products() {
        let poly = |c: &[u64]| c.iter().map(|&x| BigUint::from_u64(x)).collect::<Vec<_>>();
        // A zero factor (all coefficients zero) lands at every position
        // of the 5-factor rotations.
        let counts = [
            poly(&[1, 2]),
            poly(&[0, 0, 0]),
            poly(&[3, 1, 4]),
            poly(&[1]),
            poly(&[2, 0, 5, 1]),
        ];
        descent_matches_naive(|t| CountingDomain::new(Some(t)), &counts);
        let probs = [rat(1, 3), rat(0, 1), rat(5, 7), rat(1, 1), rat(2, 9)];
        descent_matches_naive(
            |t| ProbabilityDomain::new(FactProbabilities::uniform(rat(1, 2)), Some(t)),
            &probs,
        );
    }

    #[test]
    fn tripped_leave_one_out_names_the_phase() {
        let token = CancelToken::unlimited();
        token.cancel();
        let dom = CountingDomain::new(Some(token));
        let f = vec![BigUint::one(), BigUint::one()];
        // Two factors need no product, so nothing polls the token.
        assert!(dom.leave_one_out(&[&f, &f], "compile").is_ok());
        match dom.leave_one_out(&[&f, &f, &f], "compile") {
            Err(CoreError::DeadlineExceeded { phase, .. }) => assert_eq!(phase, "compile"),
            other => panic!("expected a deadline, got {other:?}"),
        }
    }

    #[test]
    fn domain_division_supports_factor_swaps() {
        let cdom = CountingDomain::new(None);
        let a = vec![BigUint::one(), BigUint::from_u64(2)];
        let b = vec![BigUint::one(), BigUint::one(), BigUint::zero()];
        let prod = cdom.combine(&a, &b);
        assert_eq!(cdom.try_divide(&prod, &a), Some(b.clone()));
        assert!(cdom.try_divide(&prod, &cdom.zero(1)).is_none());
        let pdom = ProbabilityDomain::new(FactProbabilities::uniform(rat(1, 2)), None);
        let x = rat(3, 7);
        let y = rat(2, 5);
        let prod = pdom.combine(&x, &y);
        assert_eq!(pdom.try_divide(&prod, &x), Some(y));
        assert!(pdom.try_divide(&prod, &BigRational::zero()).is_none());
    }
}
