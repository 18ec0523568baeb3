//! Additive Monte-Carlo approximation of the Shapley value
//! (Section 5.1), plus the anytime stratified estimator behind the
//! degradation ladder.
//!
//! The Shapley value is the expectation, over a uniformly random
//! permutation `σ` of `Dn`, of the marginal contribution
//! `q(Dx ∪ σ_f ∪ {f}) − q(Dx ∪ σ_f) ∈ {−1, 0, 1}`. Averaging over
//! `⌈ln(2/δ)/(2ε²)⌉` sampled permutations gives an *additive*
//! ε-approximation with probability `≥ 1 − δ` by the Hoeffding bound.
//!
//! For positive CQs the "gap property" upgrades this to a multiplicative
//! FPRAS; Theorem 5.1 shows negation destroys that upgrade — Shapley
//! values can be exponentially small, so the sampled estimate of a
//! nonzero value is routinely 0. Experiment E6 exercises exactly this.
//!
//! ## The anytime estimator
//!
//! [`shapley_anytime`] is the budget-aware upgrade. It walks whole
//! permutations: each walk shuffles the endogenous facts once and
//! inserts them in that order, and the fact at position `k` contributes
//! its marginal on top of the `k` facts before it. One walk therefore
//! yields a marginal for *every* fact. Each marginal is post-stratified
//! by its position: a fact's position is uniform on `0..m`, and given
//! the position the preceding coalition is a uniform subset of that
//! size, so the mean of each (fact, position-stratum) cell is unbiased
//! for that stratum. Running means and variances per cell give a CLT
//! confidence interval per fact. Sampling stops after the first walk
//! that leaves every interval within `±ε`; a tripped [`CancelToken`]
//! returns the partial (still valid, just wider) intervals instead of
//! an error; and the [`AnytimeState`] is resumable — a second call
//! tightens the same estimates rather than starting over.
//!
//! ## Cost of a walk
//!
//! Before its first walk, [`shapley_anytime`] builds the query's
//! *lineage* over `D`. Each homomorphism of a disjunct's positive atoms
//! into all of `D` is a *match*. A match is kept as its distinct
//! endogenous positive facts and its *blockers*: the endogenous facts
//! its negative atoms ground to. A match that an exogenous fact blocks,
//! or that needs one fact both present and absent, holds on no
//! coalition and is dropped. A coalition satisfies `q` exactly when
//! some kept match has all its positive facts in it and none of its
//! blockers. The lineage is stored by fact: each endogenous fact lists
//! the matches it enters, and with which sign.
//!
//! A walk keeps one count per match: its positive facts still missing
//! plus its blockers already in. A match is live when its count is 0.
//! When a fact joins, only its own entries change: a positive entry
//! decrements its match's count, a negative one increments it, and the
//! number of live matches follows. The answer after the step is
//! whether any match is live. So a walk costs time linear in `m` plus
//! the lineage's size, and runs no query evaluation. This covers CQ¬s
//! and UCQ¬s alike, self-joins and mixed polarity (Example 5.3)
//! included. A match without endogenous facts is live on every
//! coalition, so the enumeration stops at the first one.
//!
//! A lineage of more than a fixed number of entries is not built, and
//! the walks evaluate instead. Such a walk reuses one [`World`],
//! cleared and then filled position by position, and evaluates the
//! query through its compiled hash-indexed join. It carries the
//! query's answer from step to step, so the answer before a fact joins
//! is never re-evaluated. When the fact's relation occurs only
//! positively, the fact cannot falsify `q`, so a satisfied coalition
//! stays satisfied; when it occurs only negatively, the fact cannot
//! satisfy `q`, so an unsatisfied coalition stays unsatisfied. A fact
//! whose relation the query never mentions needs no evaluation at all.
//!
//! The `approx.evals` and `approx.evals.skipped` counters, recorded
//! once per call, add up to one per walk step (`m` per walk); a step
//! answered from the lineage counts as skipped. `approx.walks` counts
//! the walks, and `approx.lineage.matches` the lineage's matches (0
//! when the walks evaluate). [`shapley_sampled`] draws one coalition
//! per sample for a single fact instead, and always evaluates: it
//! needs the answer on both sides of the fact, and its counters add up
//! to two per draw.

use std::time::Duration;

use cqshap_db::{Database, FactId, World};
use cqshap_engine::{for_each_positive_homomorphism, FactScope};
use cqshap_obs::{phase as obs_phase, Histogram, Span};
use cqshap_query::analysis::Polarity;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::anyquery::{AnyQuery, CompiledAnyQuery};
use crate::budget::CancelToken;
use crate::error::CoreError;

/// Parameters of the sampler.
#[derive(Debug, Clone, Copy)]
pub struct SampleParams {
    /// Additive error bound ε ∈ (0, 1).
    pub epsilon: f64,
    /// Failure probability δ ∈ (0, 1).
    pub delta: f64,
    /// RNG seed (deterministic runs).
    pub seed: u64,
    /// Worker threads (`0` = all available).
    pub threads: usize,
}

impl Default for SampleParams {
    fn default() -> Self {
        SampleParams {
            epsilon: 0.05,
            delta: 0.01,
            seed: 0xC0FFEE,
            threads: 0,
        }
    }
}

/// Rejects out-of-range ε / δ (both must lie in the open unit
/// interval).
fn check_epsilon_delta(epsilon: f64, delta: f64) -> Result<(), CoreError> {
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(CoreError::Unsupported(format!(
            "epsilon must be in (0, 1), got {epsilon}"
        )));
    }
    if !(delta > 0.0 && delta < 1.0) {
        return Err(CoreError::Unsupported(format!(
            "delta must be in (0, 1), got {delta}"
        )));
    }
    Ok(())
}

/// The Hoeffding sample count `⌈2·ln(2/δ)/ε²⌉` for marginal
/// contributions in `[-1, 1]`.
///
/// With values in an interval of width 2, Hoeffding gives
/// `Pr[|mean − μ| ≥ ε] ≤ 2·exp(−2·N·ε²/4)`; solving for `N` yields
/// `N ≥ 2·ln(2/δ)/ε²`.
///
/// # Errors
/// [`CoreError::Unsupported`] when ε or δ lies outside `(0, 1)`.
pub fn required_samples(epsilon: f64, delta: f64) -> Result<u64, CoreError> {
    check_epsilon_delta(epsilon, delta)?;
    Ok((2.0 * (2.0 / delta).ln() / (epsilon * epsilon)).ceil() as u64)
}

/// The sampler's output.
#[derive(Debug, Clone)]
pub struct ApproxShapley {
    /// The estimate (mean marginal contribution).
    pub estimate: f64,
    /// Number of sampled permutations.
    pub samples: u64,
    /// Samples where `f` flipped the answer false → true.
    pub positive_flips: u64,
    /// Samples where `f` flipped the answer true → false.
    pub negative_flips: u64,
}

impl ApproxShapley {
    /// Half-width of the Hoeffding confidence interval actually achieved
    /// by `samples` at confidence `1 − delta`.
    pub fn hoeffding_radius(&self, delta: f64) -> f64 {
        (2.0 * (2.0 / delta).ln() / self.samples as f64).sqrt()
    }
}

/// Estimates `Shapley(D, q, f)` by permutation sampling. Works for any
/// CQ¬ or UCQ¬ (self-joins included).
///
/// # Errors
/// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`;
/// [`CoreError::Unsupported`] for out-of-range ε / δ.
pub fn shapley_additive_approx(
    db: &Database,
    q: AnyQuery<'_>,
    f: FactId,
    params: &SampleParams,
) -> Result<ApproxShapley, CoreError> {
    let samples = required_samples(params.epsilon, params.delta)?;
    shapley_sampled(db, q, f, samples, params.seed, params.threads)
}

/// Estimates with an explicit sample budget.
///
/// # Errors
/// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`;
/// [`CoreError::Unsupported`] if a sampler worker panicked (the panic
/// is contained and reported instead of crossing the thread scope).
pub fn shapley_sampled(
    db: &Database,
    q: AnyQuery<'_>,
    f: FactId,
    samples: u64,
    seed: u64,
    threads: usize,
) -> Result<ApproxShapley, CoreError> {
    let target = db
        .endo_index(f)
        .ok_or_else(|| CoreError::FactNotEndogenous {
            fact: db.render_fact(f),
        })?;
    let m = db.endo_count();
    let compiled = q.compile(db);
    let polarity = q
        .polarities()
        .get(db.schema().name(db.fact(f).rel))
        .copied();
    // Fan out through the sanctioned `parallel` module so the
    // `ShapleyOptions::threads` cap applies; the `try` variant keeps a
    // worker panic on this side of the scope as a typed error.
    let workers = crate::parallel::resolve_thread_cap(threads)
        .min(samples.max(1) as usize)
        .max(1);
    let per_thread = samples / workers as u64;
    let remainder = samples % workers as u64;
    let tallies = crate::parallel::try_par_map_with(workers, workers, |t| {
        let n = per_thread + u64::from((t as u64) < remainder);
        let thread_seed = seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1));
        let mut rng = StdRng::seed_from_u64(thread_seed);
        let mut order: Vec<usize> = (0..m).collect();
        let mut marginals = Marginals::new(db, &compiled);
        let (mut pos, mut neg) = (0u64, 0u64);
        for _ in 0..n {
            order.shuffle(&mut rng);
            marginals.world.clear();
            for &p in order.iter().take_while(|&&p| p != target) {
                marginals.world.insert_pos(p);
            }
            match marginals.marginal(target, polarity) {
                1 => pos += 1,
                -1 => neg += 1,
                _ => {}
            }
        }
        (pos, neg, marginals.evals, marginals.skipped)
    })
    .map_err(|payload| {
        CoreError::Unsupported(format!(
            "a permutation-sampler worker panicked: {}",
            panic_text(payload.as_ref())
        ))
    })?;
    let (mut positive_flips, mut negative_flips) = (0u64, 0u64);
    let (mut evals, mut skipped) = (0u64, 0u64);
    for (p, n, e, s) in tallies {
        positive_flips += p;
        negative_flips += n;
        evals += e;
        skipped += s;
    }
    record_evals(evals, skipped);
    let sum = positive_flips as i64 - negative_flips as i64;
    Ok(ApproxShapley {
        estimate: if samples == 0 {
            0.0
        } else {
            sum as f64 / samples as f64
        },
        samples,
        positive_flips,
        negative_flips,
    })
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

// ---------------------------------------------------------------------
// Anytime stratified estimation
// ---------------------------------------------------------------------

/// How many position strata the anytime sampler keeps per fact: the
/// walk positions `0..m` are partitioned into at most this many
/// contiguous buckets, and each marginal lands in the bucket of its
/// position. One stratum per position would leave each cell about
/// `walks/m` marginals, and a cell below two marginals counts with the
/// worst-case variance, so every interval would stay wide for `Θ(m)`
/// walks for no variance benefit at bench sizes.
const MAX_STRATA: usize = 16;

/// Parameters of [`shapley_anytime`].
#[derive(Debug, Clone, Copy)]
pub struct AnytimeParams {
    /// Target half-width of each fact's confidence interval.
    pub epsilon: f64,
    /// Per-fact miscoverage: intervals hold with confidence `1 − δ`.
    pub delta: f64,
    /// RNG seed (deterministic runs, and the stream a resumed state
    /// continues).
    pub seed: u64,
}

impl Default for AnytimeParams {
    fn default() -> Self {
        AnytimeParams {
            epsilon: 0.05,
            delta: 0.05,
            seed: 0xC0FFEE,
        }
    }
}

/// Running moments of one (fact, position-stratum) cell.
#[derive(Debug, Clone, Copy, Default)]
struct StratumStats {
    /// Marginals recorded in this stratum.
    n: u64,
    /// Sum of the sampled marginal contributions.
    sum: f64,
    /// Sum of their squares.
    sumsq: f64,
}

impl StratumStats {
    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Sample variance, conservatively `1` (the bound for values in
    /// `[-1, 1]` centred anywhere) below two marginals, and floored at
    /// `1/n` afterwards: marginals take values in `{-1, 0, 1}`, so a
    /// cell whose `n` marginals all agreed may still hide a flip of
    /// probability `~1/n` (rule-of-three), worth about that much
    /// variance. Without the floor, two agreeing marginals collapse the
    /// interval to `±0` around a biased estimate.
    fn variance(&self) -> f64 {
        if self.n < 2 {
            return 1.0;
        }
        let n = self.n as f64;
        ((self.sumsq - self.sum * self.sum / n) / (n - 1.0)).max(1.0 / n)
    }

    /// This stratum's contribution to the estimator variance.
    fn variance_term(&self, weight: f64) -> f64 {
        weight * weight * self.variance() / self.n.max(1) as f64
    }

    fn record(&mut self, x: i64) {
        let x = x as f64;
        self.n += 1;
        self.sum += x;
        self.sumsq += x * x;
    }
}

/// Resumable state of the anytime sampler: per-fact, per-stratum
/// running moments plus the position of the deterministic walk stream.
/// Opaque — obtained empty via [`Default`] and threaded back into
/// [`shapley_anytime`]; invalidated (reset) automatically when the
/// database's endogenous facts changed since it was filled.
#[derive(Debug, Clone, Default)]
pub struct AnytimeState {
    /// The endogenous facts the moments describe, in database order.
    facts: Vec<FactId>,
    /// `[fact][stratum]` running moments.
    stats: Vec<Vec<StratumStats>>,
    /// Half-open coalition-size ranges of the strata.
    strata: Vec<(usize, usize)>,
    /// Total marginals recorded (walks × m), advancing the seed stream
    /// across resumes.
    draws: u64,
}

impl AnytimeState {
    /// Does this state describe `db`'s current endogenous facts?
    fn matches(&self, db: &Database) -> bool {
        self.facts == db.endo_facts()
    }

    fn fresh(db: &Database) -> AnytimeState {
        let facts: Vec<FactId> = db.endo_facts().to_vec();
        let m = facts.len();
        let buckets = m.clamp(1, MAX_STRATA);
        let strata: Vec<(usize, usize)> = (0..buckets)
            .map(|b| (b * m / buckets, (b + 1) * m / buckets))
            .filter(|(lo, hi)| lo < hi)
            .collect();
        AnytimeState {
            stats: vec![vec![StratumStats::default(); strata.len()]; m],
            facts,
            strata,
            draws: 0,
        }
    }
}

/// One fact's interval estimate within an [`AnytimeReport`].
#[derive(Debug, Clone)]
pub struct FactEstimate {
    /// The fact.
    pub fact: FactId,
    /// The fact, rendered.
    pub rendered: String,
    /// The stratified point estimate of the Shapley value.
    pub estimate: f64,
    /// CLT half-width: the true value lies in
    /// `estimate ± half_width` with confidence `1 − δ`.
    pub half_width: f64,
    /// Marginals recorded for this fact so far: one per walk.
    pub samples: u64,
    /// Did the interval reach the requested ±ε?
    pub converged: bool,
}

/// The anytime sampler's output: interval estimates for every
/// endogenous fact, flagged by convergence and budget status.
#[derive(Debug, Clone)]
pub struct AnytimeReport {
    /// Per-fact interval estimates, in database fact order.
    pub entries: Vec<FactEstimate>,
    /// The ε the run refined towards.
    pub epsilon: f64,
    /// The δ the intervals are computed at.
    pub delta: f64,
    /// Marginals recorded across all facts *in this call*: walks × m
    /// (a resumed state's earlier walks not included).
    pub spent_samples: u64,
    /// Did every fact converge to ±ε?
    pub converged: bool,
    /// Did the budget trip before convergence? (The report is still
    /// valid — the intervals are just wider than requested.)
    pub deadline_hit: bool,
    /// Wall-clock time of this call.
    pub elapsed: Duration,
}

impl AnytimeReport {
    /// The entry for `f`, if `f` is endogenous.
    pub fn entry(&self, f: FactId) -> Option<&FactEstimate> {
        self.entries.iter().find(|e| e.fact == f)
    }
}

/// Acklam's rational approximation of the standard normal quantile
/// function (inverse CDF), accurate to ~1.15e-9 over (0, 1) — more than
/// enough for confidence-interval z-scores.
#[expect(
    clippy::excessive_precision,
    reason = "Acklam's coefficients, verbatim"
)]
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// The stratified estimate and CLT half-width of one fact.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over a fact's strata
fn fact_interval(
    stats: &[StratumStats],
    strata: &[(usize, usize)],
    m: usize,
    z: f64,
) -> (f64, f64, u64) {
    let mut estimate = 0.0;
    let mut variance = 0.0;
    let mut samples = 0;
    for (cell, &(lo, hi)) in stats.iter().zip(strata) {
        let weight = (hi - lo) as f64 / m as f64;
        estimate += weight * cell.mean();
        variance += cell.variance_term(weight);
        samples += cell.n;
    }
    (estimate, z * variance.sqrt(), samples)
}

/// Marginal contributions over one reused coalition world, counting
/// the query evaluations run and skipped.
struct Marginals<'a> {
    db: &'a Database,
    compiled: &'a CompiledAnyQuery,
    /// The coalition of the current draw or walk.
    world: World,
    /// When set, walks are answered from it instead of evaluating.
    lineage: Option<Lineage>,
    evals: u64,
    skipped: u64,
}

/// The most incidence entries a [`Lineage`] may hold. A walk touches
/// every entry once and keeps one count per match, so a walk's time
/// and memory grow with the entries. At 8 bytes an entry the bound is
/// 8 MiB of incidence; a query whose lineage would be larger is
/// evaluated at every walk step instead.
const MAX_LINEAGE_ENTRIES: usize = 1 << 20;

/// One entry of a [`Lineage`]: a match the fact enters, and how.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The match.
    matched: u32,
    /// Does the fact block the match (occur in a negative atom), rather
    /// than satisfy one of its positive atoms?
    blocks: bool,
}

/// The query's lineage over `D`, stored by endogenous position (see
/// the [module docs](self)).
#[derive(Debug)]
struct Lineage {
    /// Position `p`'s entries are `entries[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<usize>,
    /// Each position's entries, in match order.
    entries: Vec<Entry>,
    /// Each match's count on the empty coalition: its endogenous
    /// positive facts, all still missing.
    start: Vec<u32>,
    /// Matches live on the empty coalition: those without endogenous
    /// positive facts.
    live: usize,
    /// Each match's count in the current walk.
    counts: Vec<u32>,
}

impl Lineage {
    /// The lineage of `compiled` over `db`, or `None` when it would
    /// hold more than `limit` entries. A match without endogenous facts
    /// is live on every coalition, and so is `q`: it is kept without
    /// entries, and the matches after it are not enumerated.
    fn build(db: &Database, compiled: &CompiledAnyQuery, limit: usize) -> Option<Lineage> {
        // (endogenous position, entry) pairs, in match order.
        let mut staged: Vec<(usize, Entry)> = Vec::new();
        let mut start: Vec<u32> = Vec::new();
        let mut always = false;
        let (mut positives, mut blockers): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        for query in &compiled.disjuncts {
            let complete = for_each_positive_homomorphism(db, FactScope::All, query, &mut |hit| {
                positives.clear();
                blockers.clear();
                for f in query.negative_facts(hit.assignment) {
                    match db.endo_index(f) {
                        Some(p) => blockers.push(p),
                        // Blocked on every coalition.
                        None => return true,
                    }
                }
                positives.extend(hit.matched_facts.iter().filter_map(|&f| db.endo_index(f)));
                positives.sort_unstable();
                positives.dedup();
                blockers.sort_unstable();
                blockers.dedup();
                if blockers.iter().any(|p| positives.binary_search(p).is_ok()) {
                    return true; // needs a fact both present and absent
                }
                if staged.len() + positives.len() + blockers.len() > limit {
                    return false;
                }
                let Ok(matched) = u32::try_from(start.len()) else {
                    return false;
                };
                let entry = |blocks| move |&p: &usize| (p, Entry { matched, blocks });
                staged.extend(positives.iter().map(entry(false)));
                staged.extend(blockers.iter().map(entry(true)));
                // At most one positive fact per atom of the query.
                start.push(positives.len() as u32);
                always = positives.is_empty() && blockers.is_empty();
                !always
            });
            if always {
                break;
            }
            if !complete {
                return None;
            }
        }
        // A stable sort groups the entries by position, each group
        // keeping match order.
        staged.sort_by_key(|&(p, _)| p);
        let offsets = (0..=db.endo_count())
            .map(|p| staged.partition_point(|&(q, _)| q < p))
            .collect();
        Some(Lineage {
            offsets,
            entries: staged.into_iter().map(|(_, entry)| entry).collect(),
            live: start.iter().filter(|&&count| count == 0).count(),
            counts: start.clone(),
            start,
        })
    }

    /// The number of matches kept.
    fn matches(&self) -> usize {
        self.start.len()
    }

    /// One permutation walk over the endogenous positions of `order`;
    /// `visit` as for [`Marginals::walk`].
    #[expect(
        clippy::indexing_slicing,
        reason = "the step loop: build() makes offsets m + 1 long and ascending, and every entry's match index a counts index"
    )]
    fn walk(&mut self, order: &[usize], mut visit: impl FnMut(usize, usize, i64)) {
        self.counts.copy_from_slice(&self.start);
        let mut live = self.live;
        for (k, &p) in order.iter().enumerate() {
            let before = live > 0;
            for entry in &self.entries[self.offsets[p]..self.offsets[p + 1]] {
                let count = &mut self.counts[entry.matched as usize];
                if entry.blocks {
                    live -= usize::from(*count == 0);
                    *count += 1;
                } else {
                    *count -= 1;
                    live += usize::from(*count == 0);
                }
            }
            visit(k, p, i64::from(live > 0) - i64::from(before));
        }
    }
}

/// Does the polarity rule settle the answer with a fact of this
/// polarity on top of a coalition whose answer is `answer`? A fact that
/// occurs only positively cannot falsify a satisfied query, and one
/// that occurs only negatively cannot satisfy an unsatisfied one.
fn settles(polarity: Polarity, answer: bool) -> bool {
    match polarity {
        Polarity::Positive => answer,
        Polarity::Negative => !answer,
        Polarity::Mixed => false,
    }
}

impl<'a> Marginals<'a> {
    fn new(db: &'a Database, compiled: &'a CompiledAnyQuery) -> Self {
        Marginals {
            db,
            compiled,
            world: World::empty(db),
            lineage: None,
            evals: 0,
            skipped: 0,
        }
    }

    /// The marginal contribution of the fact at endogenous position
    /// `target` on top of the coalition in `self.world`, which it then
    /// joins (unless the answer is settled without it). `polarity` is
    /// how the fact's relation occurs in the query, `None` if nowhere;
    /// see the [module docs](self) for the evaluations it saves.
    fn marginal(&mut self, target: usize, polarity: Option<Polarity>) -> i64 {
        let Some(polarity) = polarity else {
            self.skipped += 2;
            return 0;
        };
        let before = self.satisfied();
        if settles(polarity, before) {
            self.skipped += 1;
            return 0;
        }
        self.world.insert_pos(target);
        self.satisfied() as i64 - before as i64
    }

    /// One walk step: the fact at endogenous position `p` joins the
    /// coalition in `self.world`, whose answer is `before`; returns the
    /// answer after, evaluated only when the polarity rule cannot
    /// settle it.
    fn insert(&mut self, p: usize, polarity: Option<Polarity>, before: bool) -> bool {
        self.world.insert_pos(p);
        if polarity.is_none_or(|polarity| settles(polarity, before)) {
            self.skipped += 1;
            before
        } else {
            self.satisfied()
        }
    }

    /// One permutation walk: inserts the endogenous positions of
    /// `order` one by one into an empty coalition, answered from the
    /// lineage when there is one. Otherwise it clears the world and
    /// carries the evaluated answer from step to step (`empty` is the
    /// answer on the exogenous facts alone). `visit(k, p, x)` receives
    /// each step's position `k`, the fact's endogenous position `p` and
    /// its marginal contribution `x`.
    fn walk(
        &mut self,
        order: &[usize],
        polarities: &[Option<Polarity>],
        empty: bool,
        mut visit: impl FnMut(usize, usize, i64),
    ) {
        if let Some(lineage) = &mut self.lineage {
            lineage.walk(order, visit);
            self.skipped += order.len() as u64;
            return;
        }
        self.world.clear();
        let mut answer = empty;
        for (k, &p) in order.iter().enumerate() {
            let after = self.insert(p, polarities.get(p).copied().flatten(), answer);
            visit(k, p, after as i64 - answer as i64);
            answer = after;
        }
    }

    fn satisfied(&mut self) -> bool {
        self.evals += 1;
        self.compiled.satisfied(self.db, &self.world)
    }
}

/// Forwards a call's evaluation tallies to the recorder, if any.
fn record_evals(evals: u64, skipped: u64) {
    cqshap_obs::counter(obs_phase::CTR_APPROX_EVALS, evals);
    cqshap_obs::counter(obs_phase::CTR_APPROX_EVALS_SKIPPED, skipped);
}

/// The polarity of each endogenous fact's relation in `q` (`None` when
/// `q` never mentions it), by endogenous position.
fn fact_polarities(db: &Database, q: AnyQuery<'_>) -> Vec<Option<Polarity>> {
    let map = q.polarities();
    db.endo_facts()
        .iter()
        .map(|&f| map.get(db.schema().name(db.fact(f).rel)).copied())
        .collect()
}

// Sampler-exit distributions: how the marginals spread over the strata
// and how tight the per-fact intervals ended up (ppm of the unit range).
static STRATUM_DRAWS: Histogram = Histogram::new(obs_phase::HIST_ANYTIME_STRATUM_DRAWS);
static HALF_WIDTH_PPM: Histogram = Histogram::new(obs_phase::HIST_ANYTIME_HALF_WIDTH_PPM);

/// Anytime interval estimation of every endogenous fact's Shapley
/// value by permutation walks (see the [module docs](self)). `state` is
/// resumed when it matches the database's current endogenous facts and
/// reset otherwise; pass `&mut None` for one-shot use.
///
/// A tripped `cancel` token is *not* an error here: the report returns
/// with [`AnytimeReport::deadline_hit`] set and whatever interval
/// widths the spent budget bought. Each walk charges `m` work units.
///
/// # Errors
/// [`CoreError::Unsupported`] for out-of-range ε / δ.
pub fn shapley_anytime(
    db: &Database,
    q: AnyQuery<'_>,
    params: &AnytimeParams,
    cancel: Option<&CancelToken>,
    state_slot: &mut Option<AnytimeState>,
) -> Result<AnytimeReport, CoreError> {
    let _span = Span::enter(obs_phase::ANYTIME);
    check_epsilon_delta(params.epsilon, params.delta)?;
    let started = crate::budget::Stopwatch::start();
    let m = db.endo_count();
    let z = inverse_normal_cdf(1.0 - params.delta / 2.0);
    if m == 0 {
        return Ok(AnytimeReport {
            entries: Vec::new(),
            epsilon: params.epsilon,
            delta: params.delta,
            spent_samples: 0,
            converged: true,
            deadline_hit: false,
            elapsed: started.elapsed(),
        });
    }
    if !state_slot.as_ref().is_some_and(|s| s.matches(db)) {
        *state_slot = Some(AnytimeState::fresh(db));
    }
    #[expect(
        clippy::expect_used,
        reason = "the slot was filled with Some immediately above"
    )]
    let state = state_slot.as_mut().expect("installed above");
    let compiled = q.compile(db);
    let polarities = fact_polarities(db, q);
    let mut marginals = Marginals::new(db, &compiled);
    marginals.lineage = {
        let _span = Span::enter(obs_phase::ANYTIME_LINEAGE);
        Lineage::build(db, &compiled, MAX_LINEAGE_ENTRIES)
    };
    let empty = compiled.satisfied(db, &marginals.world);
    let strata = state.strata.clone();
    // The stratum of each walk position.
    let stratum_of: Vec<usize> = strata
        .iter()
        .enumerate()
        .flat_map(|(si, &(lo, hi))| std::iter::repeat_n(si, hi - lo))
        .collect();
    let mut order: Vec<usize> = (0..m).collect();
    let mut walks = 0u64;
    let mut deadline_hit = false;
    // The stream is seeded by how many marginals the state already
    // holds: resuming replays nothing and repeats nothing.
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(state.draws));
    // Where the last convergence check found a wide interval: it is
    // the likeliest to still be wide, so the next check starts there.
    let mut wide = 0;

    let refine_span = Span::enter(obs_phase::ANYTIME_REFINE);
    loop {
        let cells = state.stats.iter().enumerate();
        let still_wide = cells
            .clone()
            .skip(wide)
            .chain(cells.take(wide))
            .find(|(_, stats)| fact_interval(stats, &strata, m, z).1 > params.epsilon);
        let Some((target, _)) = still_wide else {
            break; // every fact is within ±ε
        };
        wide = target;
        if cancel.is_some_and(|token| token.charge(m as u64)) {
            deadline_hit = true;
            break;
        }
        order.shuffle(&mut rng);
        let stats = &mut state.stats;
        marginals.walk(&order, &polarities, empty, |k, p, x| {
            let cell = stratum_of
                .get(k)
                .and_then(|&s| stats.get_mut(p)?.get_mut(s));
            if let Some(cell) = cell {
                cell.record(x);
            }
        });
        walks += 1;
    }
    drop(refine_span);
    let spent = walks * m as u64;
    state.draws += spent;
    record_evals(marginals.evals, marginals.skipped);
    cqshap_obs::counter(obs_phase::CTR_APPROX_WALKS, walks);
    cqshap_obs::counter(
        obs_phase::CTR_APPROX_LINEAGE_MATCHES,
        marginals.lineage.as_ref().map_or(0, |l| l.matches() as u64),
    );

    // Sampler-exit observability: cumulative marginals per stratum and
    // the final interval widths, recorded once per call.
    if cqshap_obs::enabled() {
        (0..strata.len()).for_each(|si| {
            let draws: u64 = state
                .stats
                .iter()
                .map(|cells| cells.get(si).map_or(0, |c| c.n))
                .sum();
            STRATUM_DRAWS.record(draws);
        });
    }

    let mut entries = Vec::with_capacity(m);
    let mut converged = true;
    for (stats, &fact) in state.stats.iter().zip(&state.facts) {
        let (estimate, half_width, samples) = fact_interval(stats, &strata, m, z);
        let done = half_width <= params.epsilon;
        converged &= done;
        if cqshap_obs::enabled() {
            HALF_WIDTH_PPM.record((half_width * 1e6) as u64);
        }
        entries.push(FactEstimate {
            fact,
            rendered: db.render_fact(fact),
            estimate,
            half_width,
            samples,
            converged: done,
        });
    }
    Ok(AnytimeReport {
        entries,
        epsilon: params.epsilon,
        delta: params.delta,
        spent_samples: spent,
        converged,
        deadline_hit,
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use cqshap_db::Provenance;
    use cqshap_query::parse_cq;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn sample_count_formula() {
        // ε = 0.1, δ = 0.05: 2·ln(40)/0.01 = 737.7…
        assert_eq!(required_samples(0.1, 0.05).unwrap(), 738);
        assert!(required_samples(0.01, 0.01).unwrap() > required_samples(0.1, 0.01).unwrap());
    }

    #[test]
    fn bad_epsilon_and_delta_are_rejected() {
        for (eps, delta) in [(0.0, 0.5), (1.0, 0.5), (-0.1, 0.5), (0.1, 0.0), (0.1, 1.0)] {
            assert!(
                matches!(required_samples(eps, delta), Err(CoreError::Unsupported(_))),
                "({eps}, {delta}) should be rejected"
            );
        }
    }

    #[test]
    fn estimates_converge_to_exact_value() {
        let db = Database::parse(
            "exo Stud(a)\nexo Stud(b)\n\
             endo TA(a)\n\
             endo Reg(a, c1)\nendo Reg(b, c2)\n",
        )
        .unwrap();
        let q = parse_cq("q() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        for &f in db.endo_facts() {
            let exact = crate::shapley::shapley_by_permutations(&db, AnyQuery::Cq(&q), f, 9, None)
                .unwrap()
                .to_f64();
            let approx = shapley_sampled(&db, AnyQuery::Cq(&q), f, 20_000, 42, 0).unwrap();
            assert!(
                (approx.estimate - exact).abs() < 0.03,
                "{}: exact {exact} vs estimate {}",
                db.render_fact(f),
                approx.estimate
            );
        }
    }

    #[test]
    fn negative_values_estimated() {
        // TA(a) has Shapley -1/2 for q() :- Stud(x), !TA(x), Reg(x,y1)
        // on a 2-fact database {TA(a), Reg(a, c)}.
        let db = Database::parse("exo Stud(a)\nendo TA(a)\nendo Reg(a, c)\n").unwrap();
        let q = parse_cq("q() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let f = db.find_fact("TA", &["a"]).unwrap();
        let r = shapley_sampled(&db, AnyQuery::Cq(&q), f, 10_000, 7, 2).unwrap();
        assert!(r.negative_flips > 0);
        assert_eq!(r.positive_flips, 0);
        assert!((r.estimate + 0.5).abs() < 0.05, "estimate {}", r.estimate);
    }

    #[test]
    fn deterministic_given_seed() {
        let db = Database::parse("endo R(a)\nendo R(b)\nexo S(a, c)\n").unwrap();
        let q = parse_cq("q() :- R(x), S(x, y)").unwrap();
        let f = db.find_fact("R", &["a"]).unwrap();
        let a = shapley_sampled(&db, AnyQuery::Cq(&q), f, 1000, 99, 1).unwrap();
        let b = shapley_sampled(&db, AnyQuery::Cq(&q), f, 1000, 99, 1).unwrap();
        assert_eq!(a.estimate, b.estimate);
    }

    #[test]
    fn inverse_normal_quantiles_match_tables() {
        // Standard z-scores to 4 decimal places.
        for (p, z) in [
            (0.975, 1.959964),
            (0.95, 1.644854),
            (0.995, 2.575829),
            (0.5, 0.0),
            (0.025, -1.959964),
        ] {
            assert!(
                (inverse_normal_cdf(p) - z).abs() < 1e-4,
                "Φ⁻¹({p}) = {} vs {z}",
                inverse_normal_cdf(p)
            );
        }
    }

    #[test]
    fn anytime_intervals_cover_exact_values() {
        let db = Database::parse(
            "exo Stud(a)\nexo Stud(b)\n\
             endo TA(a)\n\
             endo Reg(a, c1)\nendo Reg(b, c2)\n",
        )
        .unwrap();
        let q = parse_cq("q() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        // δ = 0.002: the sequential stopping rule eats into nominal
        // coverage, so the test asserts containment at a confidence
        // level with real headroom.
        let params = AnytimeParams {
            epsilon: 0.04,
            delta: 0.002,
            seed: 11,
        };
        let mut state = None;
        let report = shapley_anytime(&db, AnyQuery::Cq(&q), &params, None, &mut state).unwrap();
        assert!(report.converged);
        assert!(!report.deadline_hit);
        for entry in &report.entries {
            let exact =
                crate::shapley::shapley_by_permutations(&db, AnyQuery::Cq(&q), entry.fact, 9, None)
                    .unwrap()
                    .to_f64();
            assert!(entry.converged);
            assert!(entry.half_width <= params.epsilon);
            assert!(
                (entry.estimate - exact).abs() <= entry.half_width + 1e-12,
                "{}: exact {exact} outside {} ± {}",
                entry.rendered,
                entry.estimate,
                entry.half_width
            );
        }
    }

    #[test]
    fn anytime_resumes_and_tightens() {
        let db = Database::parse(
            "exo Stud(a)\nexo Stud(b)\n\
             endo TA(a)\nendo Reg(a, c1)\nendo Reg(b, c2)\n",
        )
        .unwrap();
        let q = parse_cq("q() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        // First call under a tiny work budget: wide intervals.
        let tight_budget = Budget::work_units(8).token();
        let params = AnytimeParams {
            epsilon: 0.02,
            delta: 0.05,
            seed: 5,
        };
        let mut state = None;
        let first = shapley_anytime(
            &db,
            AnyQuery::Cq(&q),
            &params,
            Some(&tight_budget),
            &mut state,
        )
        .unwrap();
        assert!(first.deadline_hit);
        assert!(!first.converged);
        // Second call, unlimited, resumes the same state and converges.
        let second = shapley_anytime(&db, AnyQuery::Cq(&q), &params, None, &mut state).unwrap();
        assert!(second.converged, "resumed run should converge");
        for (a, b) in first.entries.iter().zip(&second.entries) {
            assert_eq!(a.fact, b.fact);
            assert!(
                b.samples >= a.samples,
                "resume must keep earlier draws ({} < {})",
                b.samples,
                a.samples
            );
            assert!(b.half_width <= a.half_width + 1e-12);
        }
    }

    /// Every marginal the polarity skip reports, over every coalition
    /// of every fact, equals the difference of two full evaluations;
    /// evaluations run plus skipped always come to two per draw.
    fn check_marginals(db: &Database, q: AnyQuery<'_>) -> (u64, u64) {
        let compiled = q.compile(db);
        let polarities = fact_polarities(db, q);
        let mut marginals = Marginals::new(db, &compiled);
        let m = db.endo_count();
        let mut draws = 0;
        for (target, &polarity) in polarities.iter().enumerate() {
            for mask in 0u64..1 << m {
                if mask & (1 << target) != 0 {
                    continue;
                }
                let mut world = World::empty(db);
                marginals.world.clear();
                for p in (0..m).filter(|p| mask & (1 << p) != 0) {
                    world.insert_pos(p);
                    marginals.world.insert_pos(p);
                }
                let before = compiled.satisfied(db, &world);
                world.insert_pos(target);
                let after = compiled.satisfied(db, &world);
                assert_eq!(
                    marginals.marginal(target, polarity),
                    after as i64 - before as i64,
                    "{} on coalition {mask:#b}",
                    db.render_fact(db.endo_facts()[target])
                );
                draws += 1;
            }
        }
        assert_eq!(marginals.evals + marginals.skipped, 2 * draws);
        (marginals.evals, marginals.skipped)
    }

    /// Runs `walks` seeded permutation walks twice over the same
    /// orders: evaluating, and from the lineage built under `limit`
    /// entries (which evaluates too when the lineage is over it). Every
    /// marginal of both equals the difference of two full evaluations
    /// of the coalitions before and after the step. Each walk's
    /// evaluations run plus skipped come to one per step, `walks × m`
    /// in all, and a walk answered from the lineage runs none. Returns
    /// the evaluating walk's tallies.
    fn check_walks(db: &Database, q: AnyQuery<'_>, walks: u64, limit: usize) -> (u64, u64) {
        let compiled = q.compile(db);
        let polarities = fact_polarities(db, q);
        let mut evaluating = Marginals::new(db, &compiled);
        let mut lineage = Marginals::new(db, &compiled);
        lineage.lineage = Lineage::build(db, &compiled, limit);
        let empty = compiled.satisfied(db, &World::empty(db));
        let m = db.endo_count();
        let mut rng = StdRng::seed_from_u64(17);
        let mut order: Vec<usize> = (0..m).collect();
        for _ in 0..walks {
            order.shuffle(&mut rng);
            let mut world = World::empty(db);
            let mut want = Vec::new();
            evaluating.walk(&order, &polarities, empty, |k, p, x| {
                assert_eq!(order[k], p);
                let before = compiled.satisfied(db, &world);
                world.insert_pos(p);
                let after = compiled.satisfied(db, &world);
                assert_eq!(
                    x,
                    after as i64 - before as i64,
                    "{} at position {k} of {order:?}",
                    db.render_fact(db.endo_facts()[p])
                );
                want.push(x);
            });
            assert_eq!(want.len(), m);
            let mut got = Vec::new();
            lineage.walk(&order, &polarities, empty, |k, p, x| {
                assert_eq!(order[k], p);
                got.push(x);
            });
            assert_eq!(got, want, "lineage walk over {order:?} on\n{db}");
        }
        for tallies in [&evaluating, &lineage] {
            assert_eq!(tallies.evals + tallies.skipped, walks * m as u64);
        }
        if lineage.lineage.is_some() {
            assert_eq!(lineage.evals, 0);
        }
        (evaluating.evals, evaluating.skipped)
    }

    /// Each position's `(match, blocks)` entries.
    fn incidence(lineage: &Lineage) -> Vec<Vec<(u32, bool)>> {
        lineage
            .offsets
            .windows(2)
            .map(|w| {
                lineage.entries[w[0]..w[1]]
                    .iter()
                    .map(|e| (e.matched, e.blocks))
                    .collect()
            })
            .collect()
    }

    /// A position enters each match at most once, and a match starts
    /// with one count per positive entry.
    fn check_incidence(lineage: &Lineage) {
        let mut positives = vec![0; lineage.matches()];
        for entries in incidence(lineage) {
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "{entries:?}");
            for (matched, blocks) in entries {
                positives[matched as usize] += u32::from(!blocks);
            }
        }
        assert_eq!(positives, lineage.start);
    }

    #[test]
    fn lineage_keeps_each_fact_of_a_match_once_and_drops_dead_matches() {
        // Endogenous positions: E(a, a) 0, A(a) 1, E(b, b) 2, E(c, d) 3,
        // E(d, c) 4; A(b) is exogenous.
        let db = Database::parse(
            "endo E(a, a)\nendo A(a)\nendo E(b, b)\nexo A(b)\n\
             endo E(c, d)\nendo E(d, c)\n",
        )
        .unwrap();
        let q = parse_cq("q() :- E(x, y), E(y, x), !A(x), !A(y)").unwrap();
        let lineage =
            Lineage::build(&db, &AnyQuery::Cq(&q).compile(&db), MAX_LINEAGE_ENTRIES).unwrap();
        // x = y = a: E(a, a) fills both positive atoms and A(a) both
        // negative ones, each entered once. The exogenous A(b) blocks
        // x = y = b. Then x, y = c, d and x, y = d, c.
        assert_eq!(lineage.start, [1, 2, 2]);
        assert_eq!(lineage.live, 0);
        assert_eq!(
            incidence(&lineage),
            [
                vec![(0, false)],
                vec![(0, true)],
                vec![],
                vec![(1, false), (2, false)],
                vec![(1, false), (2, false)],
            ]
        );
        // Example 5.3's shape: E(a, a) and E(b, b) would each have to be
        // both present and absent.
        let q = parse_cq("q() :- E(x, y), !E(y, x)").unwrap();
        let compiled = AnyQuery::Cq(&q).compile(&db);
        let lineage = Lineage::build(&db, &compiled, MAX_LINEAGE_ENTRIES).unwrap();
        assert_eq!(lineage.start, [1, 1]);
        assert_eq!(lineage.entries.len(), 4);
        // Over the bound, no lineage: the walks evaluate.
        assert!(Lineage::build(&db, &compiled, 3).is_none());
        // A(a) needs itself. A(b) alone is a match without endogenous
        // facts: live on every coalition, without entries.
        let q = parse_cq("q() :- A(x), !B(x)").unwrap();
        let lineage =
            Lineage::build(&db, &AnyQuery::Cq(&q).compile(&db), MAX_LINEAGE_ENTRIES).unwrap();
        assert_eq!(
            (lineage.start.as_slice(), lineage.live),
            ([1, 0].as_slice(), 1)
        );
        assert_eq!(lineage.entries.len(), 1);
        // Such a match settles q, so the enumeration stops at it: A(a),
        // after it, enters no match.
        let db = Database::parse("exo A(b)\nendo A(a)\n").unwrap();
        let lineage =
            Lineage::build(&db, &AnyQuery::Cq(&q).compile(&db), MAX_LINEAGE_ENTRIES).unwrap();
        assert_eq!(
            (lineage.start.as_slice(), lineage.live),
            ([0].as_slice(), 1)
        );
        assert!(lineage.entries.is_empty());
    }

    /// Relations of the random instances, with their arities.
    const RELATIONS: &[(&str, usize)] = &[("A", 1), ("B", 1), ("E", 2), ("F", 2)];

    /// A random database over [`RELATIONS`] and the constants `c0..c2`:
    /// each candidate fact present with probability 1/2, a third of
    /// those exogenous, then about one in eight retracted.
    fn random_db(rng: &mut StdRng) -> Database {
        let mut db = Database::new();
        for &(rel, arity) in RELATIONS {
            for code in 0..3usize.pow(arity as u32) {
                if rng.gen_bool(0.5) {
                    continue;
                }
                let args: Vec<String> = (0..arity)
                    .map(|i| format!("c{}", code / 3usize.pow(i as u32) % 3))
                    .collect();
                let args: Vec<&str> = args.iter().map(String::as_str).collect();
                let provenance = if rng.gen_bool(1.0 / 3.0) {
                    Provenance::Exogenous
                } else {
                    Provenance::Endogenous
                };
                db.insert(rel, &args, provenance).unwrap();
            }
        }
        let live: Vec<FactId> = db.fact_ids().collect();
        for f in live {
            if rng.gen_bool(0.125) {
                db.retract_fact(f).unwrap();
            }
        }
        db
    }

    /// A random safe Boolean CQ¬ body: one to three positive atoms over
    /// `x, y, z`, then up to two negative atoms over the variables they
    /// bind. Terms are mostly variables (so self-joins and `E(x, x)`
    /// arise), sometimes the known constant `'c1'` or the unknown
    /// `'zz'`; an atom now and then names the unknown relation `Nope`.
    fn random_body(rng: &mut StdRng) -> String {
        let relation = |rng: &mut StdRng| {
            if rng.gen_bool(0.05) {
                ("Nope", 1)
            } else {
                RELATIONS[rng.gen_range(0..RELATIONS.len())]
            }
        };
        let term = |rng: &mut StdRng, vars: &[&str]| -> String {
            match rng.gen_range(0..20) {
                0 | 1 => "'c1'".into(),
                2 => "'zz'".into(),
                _ => vars[rng.gen_range(0..vars.len())].into(),
            }
        };
        let mut atoms = Vec::new();
        let mut bound: Vec<&str> = Vec::new();
        for _ in 0..rng.gen_range(1..4) {
            let (rel, arity) = relation(rng);
            let args: Vec<String> = (0..arity).map(|_| term(rng, &["x", "y", "z"])).collect();
            for v in ["x", "y", "z"] {
                if args.iter().any(|a| a == v) && !bound.contains(&v) {
                    bound.push(v);
                }
            }
            atoms.push(format!("{rel}({})", args.join(", ")));
        }
        for _ in 0..rng.gen_range(0..3) {
            let (rel, arity) = relation(rng);
            let args: Vec<String> = (0..arity)
                .map(|_| {
                    if bound.is_empty() {
                        "'c0'".into()
                    } else {
                        term(rng, &bound)
                    }
                })
                .collect();
            atoms.push(format!("!{rel}({})", args.join(", ")));
        }
        atoms.join(", ")
    }

    /// Queries the random ones might miss: ground-only negation,
    /// `E(x, x)`, Example 5.3's mixed-polarity self-join, a union using
    /// `A` and `B` with both signs, and a positive self-join.
    const FIXED: &[&str] = &[
        "q() :- !A('c0')",
        "q() :- E(x, x), !A(x)",
        "q() :- E(x, y), !E(y, x)",
        "q() :- A(x), E(x, y), !B(y); q() :- B(y), E(x, y), !A(x)",
        "q() :- E(x, y), E(y, x), !F(x, y)",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Walks answered from the lineage agree with evaluating walks
        /// on every marginal, and the lineage is built exactly when its
        /// entries fit the bound (the walks evaluate otherwise).
        #[test]
        fn lineage_walks_match_evaluating_walks(
            seed in 0u64..1_000_000,
            pick in 0..FIXED.len() + 2,
            bound in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let db = random_db(&mut rng);
            let text = match FIXED.get(pick) {
                Some(fixed) => (*fixed).to_string(),
                None if pick == FIXED.len() => format!("q() :- {}", random_body(&mut rng)),
                None => format!(
                    "q() :- {}; q() :- {}",
                    random_body(&mut rng),
                    random_body(&mut rng)
                ),
            };
            let u = cqshap_query::parse_ucq(&text).unwrap();
            let q = AnyQuery::Union(&u);
            let compiled = q.compile(&db);
            let full = Lineage::build(&db, &compiled, usize::MAX).unwrap();
            check_incidence(&full);
            let limit = [0, 2, 5, MAX_LINEAGE_ENTRIES][bound];
            prop_assert_eq!(
                Lineage::build(&db, &compiled, limit).is_some(),
                full.entries.len() <= limit,
                "{} under {} entries on\n{}", text, limit, db
            );
            check_walks(&db, q, 12, limit);
        }
    }

    #[test]
    fn polarity_skip_settles_one_sided_relations() {
        let db = Database::parse(
            "endo R(a)\nendo R(b)\nendo S(a, c)\nendo S(b, d)\n\
             endo T(c)\nendo T(d)\nendo U(a)\n",
        )
        .unwrap();
        let q = parse_cq("q() :- R(x), S(x, y), !T(y)").unwrap();
        let (evals, skipped) = check_marginals(&db, AnyQuery::Cq(&q));
        assert!(evals > 0 && skipped > 0);
        let (evals, skipped) = check_walks(&db, AnyQuery::Cq(&q), 200, MAX_LINEAGE_ENTRIES);
        assert!(evals > 0 && skipped > 0);
        // U occurs nowhere in q: its marginal is 0 without evaluating.
        let u = db.find_fact("U", &["a"]).unwrap();
        let polarities = fact_polarities(&db, AnyQuery::Cq(&q));
        assert_eq!(polarities[db.endo_index(u).unwrap()], None);
        let r = shapley_sampled(&db, AnyQuery::Cq(&q), u, 200, 3, 1).unwrap();
        assert_eq!(
            (r.estimate, r.positive_flips, r.negative_flips),
            (0.0, 0, 0)
        );
    }

    #[test]
    fn polarity_skip_evaluates_both_sides_of_mixed_relations() {
        // Example 5.3: R occurs positively and negatively in one CQ.
        let db = Database::parse("endo R(1, 2)\nendo R(2, 1)\nendo R(3, 3)\n").unwrap();
        let q = parse_cq("q() :- R(x, y), !R(y, x)").unwrap();
        assert_eq!(check_marginals(&db, AnyQuery::Cq(&q)).1, 0);
        assert_eq!(
            check_walks(&db, AnyQuery::Cq(&q), 50, MAX_LINEAGE_ENTRIES).1,
            0
        );
        // A union with R positive in one disjunct, negative in the other.
        let db = Database::parse("endo R(a)\nendo R(b)\nendo S(a)\nendo T(b)\n").unwrap();
        let u = cqshap_query::parse_ucq("q() :- R(x), S(x); q() :- T(x), !R(x)").unwrap();
        let polarities = fact_polarities(&db, AnyQuery::Union(&u));
        assert_eq!(polarities[0], Some(Polarity::Mixed));
        let (evals, skipped) = check_marginals(&db, AnyQuery::Union(&u));
        // Only the one-sided S and T facts are ever settled early.
        assert!(evals > 0 && skipped > 0);
        let (evals, skipped) = check_walks(&db, AnyQuery::Union(&u), 100, MAX_LINEAGE_ENTRIES);
        assert!(evals > 0 && skipped > 0);
        let compiled = AnyQuery::Union(&u).compile(&db);
        let mut mixed = Marginals::new(&db, &compiled);
        mixed.marginal(0, polarities[0]);
        assert_eq!((mixed.evals, mixed.skipped), (2, 0));
    }

    #[test]
    fn anytime_state_resets_when_facts_change() {
        let mut db = Database::parse("endo R(a)\nexo S(a, c)\n").unwrap();
        let q = parse_cq("q() :- R(x), S(x, y)").unwrap();
        let params = AnytimeParams::default();
        let mut state = None;
        shapley_anytime(&db, AnyQuery::Cq(&q), &params, None, &mut state).unwrap();
        db.add_endo("R", &["b"]).unwrap();
        let report = shapley_anytime(&db, AnyQuery::Cq(&q), &params, None, &mut state).unwrap();
        assert_eq!(report.entries.len(), 2, "state rebuilt for the new facts");
    }
}
