//! Exact Shapley values via the `|Sat|` reduction.
//!
//! For any Boolean query `q`, with `m = |Dn|` and `f ∈ Dn`:
//!
//! ```text
//! Shapley(D, q, f) = Σ_{k=0}^{m-1}  k!·(m-1-k)!/m! · (N⁺_k − N_k)
//! ```
//!
//! where `N⁺_k` counts the `k`-subsets `E ⊆ Dn∖{f}` with
//! `Dx ∪ E ∪ {f} ⊨ q` and `N_k` those with `Dx ∪ E ⊨ q`. Both are
//! `|Sat(·, q, k)|` computations on a modified database (`f` made
//! exogenous, resp. removed), so any [`SatCountOracle`] yields exact
//! Shapley values — polynomial-time for hierarchical queries (Theorem
//! 3.1), for `ExoShap`-rewritable ones (Theorem 4.3), and exponential
//! brute force otherwise.
//!
//! The reduction is due to Livshits et al.; the paper observes it makes
//! no monotonicity assumption, which is exactly what negation needs.

use std::collections::HashMap;

use cqshap_db::{Database, FactId, FactMask, World};
use cqshap_numeric::{BigInt, BigRational, FactorialTable};
use cqshap_query::{classify_with_exo, has_self_join, ConjunctiveQuery, ExactComplexity};

use crate::anyquery::AnyQuery;
use crate::budget::{Budget, CancelToken};
use crate::error::{CoreError, EnumerationLimit};
use crate::plan::Enumeration;
use crate::satcount::{BruteForceCounter, SatCountOracle};

/// How to compute an exact Shapley value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Pick automatically from the dichotomies: hierarchical → `CntSat`;
    /// no non-hierarchical path → `ExoShap`; otherwise brute force
    /// (within the limit).
    #[default]
    Auto,
    /// Require the hierarchical polynomial algorithm (Theorem 3.1).
    Hierarchical,
    /// Require the `ExoShap` rewriting (Theorem 4.3).
    ExoShap,
    /// Explicit `2^|Dn|` subset enumeration.
    BruteForceSubsets,
    /// Explicit `|Dn|!` permutation enumeration (tiny inputs only; an
    /// independent cross-check of the reduction identity itself).
    BruteForcePermutations,
}

/// Options for exact computation.
///
/// The struct is `#[non_exhaustive]` so future knobs are not breaking
/// changes: construct through [`ShapleyOptions::auto`] (or
/// [`ShapleyOptions::with_strategy`]) and chain the builder setters.
///
/// ```
/// use cqshap_core::{ShapleyOptions, Strategy};
/// let opts = ShapleyOptions::auto().tuple_budget(1_000_000).threads(4);
/// assert_eq!(opts.strategy, Strategy::Auto);
/// assert_eq!(opts.threads, 4);
/// let brute = ShapleyOptions::with_strategy(Strategy::BruteForceSubsets)
///     .brute_force_limit(20);
/// assert_eq!(brute.brute_force_limit, 20);
/// ```
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ShapleyOptions {
    /// The strategy.
    pub strategy: Strategy,
    /// Cap on `|Dn|` for [`Strategy::BruteForceSubsets`].
    pub brute_force_limit: usize,
    /// Cap on `|Dn|` for [`Strategy::BruteForcePermutations`].
    pub permutation_limit: usize,
    /// Materialization budget for the `ExoShap` rewriting.
    pub tuple_budget: usize,
    /// Worker cap for every thread fan-out — the compile-stage product
    /// trees, weight correlations, and report recounts. `0` (the
    /// default) means "all available cores"; any other value pins the
    /// count, which is what `--threads N` on the CLI relies on.
    pub threads: usize,
    /// Wall-clock / work-unit budget for exact computation. The
    /// default ([`Budget::UNLIMITED`]) never trips; any cap makes the
    /// long-running phases poll a shared [`crate::CancelToken`] and
    /// return [`CoreError::DeadlineExceeded`] instead of running to
    /// completion.
    pub budget: Budget,
}

impl ShapleyOptions {
    /// The defaults: [`Strategy::Auto`] with the standard limits.
    pub fn auto() -> Self {
        Self::default()
    }

    /// The defaults with an explicit strategy.
    pub fn with_strategy(strategy: Strategy) -> Self {
        Self::auto().strategy(strategy)
    }

    /// Sets the strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the brute-force `|Dn|` cap.
    pub fn brute_force_limit(mut self, limit: usize) -> Self {
        self.brute_force_limit = limit;
        self
    }

    /// Sets the permutation-enumeration `|Dn|` cap.
    pub fn permutation_limit(mut self, limit: usize) -> Self {
        self.permutation_limit = limit;
        self
    }

    /// Sets the `ExoShap` materialization budget.
    pub fn tuple_budget(mut self, budget: usize) -> Self {
        self.tuple_budget = budget;
        self
    }

    /// Caps every thread fan-out at `threads` workers (`0` = all
    /// available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the computation budget (deadline and/or work-unit cap).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Convenience: a wall-clock deadline of `ms` milliseconds.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.budget = Budget::wall_ms(ms);
        self
    }

    /// A fresh armed token when the budget is limited. Only entry
    /// points call this — a session constructor or a free top-level
    /// function — and hand the one token to everything below them, so
    /// the budget bounds the whole call.
    pub(crate) fn cancel_token(&self) -> Option<CancelToken> {
        (!self.budget.is_unlimited()).then(|| self.budget.token())
    }
}

impl Default for ShapleyOptions {
    fn default() -> Self {
        ShapleyOptions {
            strategy: Strategy::Auto,
            brute_force_limit: BruteForceCounter::DEFAULT_LIMIT,
            permutation_limit: 9,
            tuple_budget: cqshap_db::complement::DEFAULT_TUPLE_BUDGET,
            threads: 0,
            budget: Budget::UNLIMITED,
        }
    }
}

/// Computes `Shapley(D, q, f)` through a `|Sat|` oracle.
///
/// The two modified databases of the reduction are presented to the
/// oracle as [`FactMask`] views (no clones), and the weighted sum is
/// accumulated as an exact integer over the common denominator `m!`
/// with a single final normalization.
///
/// # Errors
/// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`, plus anything the
/// oracle raises.
#[expect(
    clippy::indexing_slicing,
    reason = "both count vectors hold one entry per coalition size k < m"
)]
pub fn shapley_via_counts(
    db: &Database,
    q: AnyQuery<'_>,
    f: FactId,
    oracle: &dyn SatCountOracle,
) -> Result<BigRational, CoreError> {
    if db.endo_index(f).is_none() {
        return Err(CoreError::FactNotEndogenous {
            fact: db.render_fact(f),
        });
    }
    let m = db.endo_count();
    let n_minus = oracle.counts_masked(db, q, FactMask::Removed(f))?;
    let n_plus = oracle.counts_masked(db, q, FactMask::Exogenous(f))?;
    debug_assert_eq!(n_minus.len(), m);
    debug_assert_eq!(n_plus.len(), m);
    let table = FactorialTable::new(m);
    let mut num = BigInt::zero();
    for k in 0..m {
        let diff = BigInt::signed_diff(&n_plus[k], &n_minus[k]);
        if !diff.is_zero() {
            num += &(diff * BigInt::from_biguint(table.shapley_weight_numerator(m, k)));
        }
    }
    Ok(table.reduce_over_factorial(num, m))
}

/// Computes `Shapley(D, q, f)` by enumerating all `|Dn|!` permutations —
/// the textbook definition, used as an independent cross-check.
/// `cancel` (if any) is polled every `1024` permutations.
///
/// # Errors
/// [`CoreError::TooManyEndogenousFacts`] beyond `limit`;
/// [`CoreError::DeadlineExceeded`] (phase `permutations`) when `cancel`
/// trips.
#[expect(
    clippy::indexing_slicing,
    reason = "a permutation holds positions of the endogenous-fact list itself"
)]
pub fn shapley_by_permutations(
    db: &Database,
    q: AnyQuery<'_>,
    f: FactId,
    limit: usize,
    cancel: Option<&CancelToken>,
) -> Result<BigRational, CoreError> {
    let pos = db
        .endo_index(f)
        .ok_or_else(|| CoreError::FactNotEndogenous {
            fact: db.render_fact(f),
        })?;
    let m = db.endo_count();
    if m > limit {
        return Err(CoreError::TooManyEndogenousFacts {
            count: m,
            limit,
            kind: EnumerationLimit::Permutations,
        });
    }
    let compiled = q.compile(db);
    let mut order: Vec<usize> = (0..m).collect();
    let mut total = BigInt::zero();
    let mut visited: u64 = 0;
    permute(&mut order, 0, &mut |perm| {
        visited += 1;
        if visited & 0x3FF == 0 && cancel.is_some_and(|c| c.charge(1)) {
            return false;
        }
        let mut world = World::empty(db);
        for &p in perm {
            if p == pos {
                break;
            }
            world.insert(db, db.endo_facts()[p]);
        }
        let before = compiled.satisfied(db, &world);
        world.insert(db, f);
        let after = compiled.satisfied(db, &world);
        total += &BigInt::from_i64(after as i64 - before as i64);
        true
    });
    if let Some(token) = cancel {
        crate::budget::check(token, cqshap_obs::phase::PERMUTATIONS)?;
    }
    let table = FactorialTable::new(m);
    Ok(BigRational::from_int(total) / BigRational::from(table.factorial(m).clone()))
}

/// Visits every permutation in place; the visitor returns `false` to
/// abort the enumeration (cooperative cancellation).
// cqshap-lint: allow(cancellation-reachability) -- the visitor polls: the permutation oracle charges its token every 1024 permutations and returns false to stop
fn permute(order: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize]) -> bool) -> bool {
    if k == order.len() {
        return visit(order);
    }
    for i in k..order.len() {
        order.swap(k, i);
        let keep_going = permute(order, k + 1, visit);
        order.swap(k, i);
        if !keep_going {
            return false;
        }
    }
    true
}

/// The concrete algorithm a [`Strategy`] resolved to for one input —
/// what `Auto` actually picked, exposed through
/// [`crate::session::ShapleySession::strategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedStrategy {
    /// The hierarchical `CntSat` engine (Theorem 3.1).
    Hierarchical,
    /// The `ExoShap` rewriting followed by the hierarchical engine
    /// (Theorem 4.3).
    ExoShap,
    /// Explicit subset enumeration.
    BruteForce,
    /// Explicit permutation enumeration.
    Permutations,
}

pub(crate) fn resolve_strategy(
    db: &Database,
    q: &ConjunctiveQuery,
    options: &ShapleyOptions,
) -> Result<ResolvedStrategy, CoreError> {
    Ok(match options.strategy {
        Strategy::Hierarchical => ResolvedStrategy::Hierarchical,
        Strategy::ExoShap => ResolvedStrategy::ExoShap,
        Strategy::BruteForceSubsets => ResolvedStrategy::BruteForce,
        Strategy::BruteForcePermutations => ResolvedStrategy::Permutations,
        Strategy::Auto => {
            if has_self_join(q) {
                // The dichotomy is open for self-joins (Section 6):
                // fall back to brute force when feasible.
                if db.endo_count() <= options.brute_force_limit {
                    ResolvedStrategy::BruteForce
                } else {
                    return Err(CoreError::TooManyEndogenousFacts {
                        count: db.endo_count(),
                        limit: options.brute_force_limit,
                        kind: EnumerationLimit::BruteForce,
                    });
                }
            } else {
                let exo: std::collections::HashSet<String> =
                    db.exogenous_relation_names().into_iter().collect();
                match classify_with_exo(q, &exo) {
                    ExactComplexity::TractableHierarchical => ResolvedStrategy::Hierarchical,
                    ExactComplexity::TractableViaExoShap => ResolvedStrategy::ExoShap,
                    ExactComplexity::FpSharpPComplete { witness } => {
                        if db.endo_count() <= options.brute_force_limit {
                            ResolvedStrategy::BruteForce
                        } else {
                            return Err(CoreError::HasNonHierarchicalPath { witness });
                        }
                    }
                    #[expect(
                        clippy::unreachable,
                        reason = "self-join queries took the branch above"
                    )]
                    ExactComplexity::SelfJoinHard { .. } | ExactComplexity::OpenSelfJoins => {
                        unreachable!("self-join handled above")
                    }
                }
            }
        }
    })
}

/// The Shapley value of one fact, as part of a [`ShapleyReport`].
#[derive(Debug, Clone)]
pub struct ShapleyEntry {
    /// The fact id.
    pub fact: FactId,
    /// The fact, rendered (e.g. `Reg(Adam, OS)`).
    pub rendered: String,
    /// The exact value.
    pub value: BigRational,
}

/// Evaluation statistics attached to a [`ShapleyReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportStats {
    /// Aggregate reports: candidate answers with nonzero weight.
    pub aggregate_candidates: usize,
    /// Aggregate reports: candidates skipped by the relevance pre-pass
    /// (their value vector is provably zero — no engine was compiled).
    pub pruned_candidates: usize,
}

/// Shapley values of every endogenous fact, plus the efficiency check.
#[derive(Debug, Clone)]
pub struct ShapleyReport {
    /// One entry per endogenous fact, in `Dn` order.
    pub entries: Vec<ShapleyEntry>,
    /// `Σ_f Shapley(D, q, f)`.
    pub total: BigRational,
    /// `q(D) − q(Dx)`, which the total must equal (the efficiency axiom
    /// of the Shapley value; Example 2.3 notes the sum is 1 there).
    pub expected_total: BigRational,
    /// Evaluation statistics (zero for plain Boolean reports).
    pub stats: ReportStats,
    /// `FactId → entries` index, built once so [`ShapleyReport::entry`]
    /// is O(1) instead of a linear scan per lookup.
    index: HashMap<FactId, usize>,
}

impl ShapleyReport {
    /// The report of `values`, one per endogenous fact of `db` in `Dn`
    /// order, whose exact sum the caller already holds as `total` (the
    /// compiled terms accumulate it over the common denominator
    /// `lcm(1..m)` instead of reducing a rational per entry). Debug
    /// builds verify the total against the values.
    pub(crate) fn new(
        db: &Database,
        values: Vec<BigRational>,
        total: BigRational,
        expected_total: BigRational,
    ) -> Self {
        debug_assert_eq!(values.len(), db.endo_count());
        debug_assert_eq!(
            values.iter().fold(BigRational::zero(), |sum, v| sum + v),
            total,
            "the total disagrees with the values"
        );
        let entries: Vec<ShapleyEntry> = db
            .endo_facts()
            .iter()
            .zip(values)
            .map(|(&f, value)| ShapleyEntry {
                fact: f,
                rendered: db.render_fact(f),
                value,
            })
            .collect();
        let index = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.fact, i))
            .collect();
        ShapleyReport {
            entries,
            total,
            expected_total,
            stats: ReportStats::default(),
            index,
        }
    }

    /// Attaches evaluation statistics.
    pub(crate) fn with_stats(mut self, stats: ReportStats) -> Self {
        self.stats = stats;
        self
    }

    /// Does the efficiency axiom hold exactly?
    pub fn efficiency_holds(&self) -> bool {
        self.total == self.expected_total
    }

    /// The entry for `f`, if endogenous. O(1) through the index; if a
    /// caller reordered the public `entries` vector (the index cannot
    /// observe that), the lookup verifies the hit and falls back to a
    /// scan rather than return the wrong fact's entry.
    #[expect(
        clippy::indexing_slicing,
        reason = "the guard checked the position with `get`"
    )]
    pub fn entry(&self, f: FactId) -> Option<&ShapleyEntry> {
        match self.index.get(&f) {
            Some(&i) if self.entries.get(i).is_some_and(|e| e.fact == f) => Some(&self.entries[i]),
            _ => self.entries.iter().find(|e| e.fact == f),
        }
    }
}

/// `q(D) − q(Dx)` — what the value total must equal by efficiency.
pub(crate) fn efficiency_target(db: &Database, q: AnyQuery<'_>) -> BigRational {
    let compiled = q.compile(db);
    let full = compiled.satisfied(db, &World::full(db)) as i64;
    let empty = compiled.satisfied(db, &World::empty(db)) as i64;
    BigRational::from(full - empty)
}

/// Every fact's exact answer, in `facts` order: the one per-fact
/// fan-out behind every exact read, over at most `threads` workers.
/// Facts share repeated work through the compiled engines' memos, not
/// through the schedule. When some fact fails, the first error in
/// `facts` order comes back carrying every completed fact's final
/// `value`, by position in `facts`.
///
/// # Errors
/// The first error `answer` returns.
#[expect(
    clippy::indexing_slicing,
    reason = "the fan-out maps exactly the positions 0..facts.len()"
)]
pub(crate) fn per_fact<T: Send>(
    threads: usize,
    facts: &[FactId],
    answer: impl Fn(FactId) -> Result<T, CoreError> + Sync,
    value: impl Fn(&T) -> &BigRational,
) -> Result<Vec<T>, CoreError> {
    let results = crate::parallel::par_map_with(threads, facts.len(), |i| answer(facts[i]));
    if results.iter().all(Result::is_ok) {
        return results.into_iter().collect();
    }
    let completed = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some((i, value(r.as_ref().ok()?).clone())))
        .collect();
    results
        .into_iter()
        .collect::<Result<Vec<T>, CoreError>>()
        .map_err(|e| e.with_partial_answers(completed))
}

/// One fact's value by enumeration, polling `cancel`.
///
/// # Errors
/// What the enumeration oracle raises.
pub(crate) fn enumerated_value(
    db: &Database,
    q: AnyQuery<'_>,
    f: FactId,
    enumeration: Enumeration,
    options: &ShapleyOptions,
    cancel: Option<&CancelToken>,
) -> Result<BigRational, CoreError> {
    match enumeration {
        Enumeration::Subsets => {
            let oracle = BruteForceCounter::new(options.brute_force_limit, options.threads, cancel);
            shapley_via_counts(db, q, f, &oracle)
        }
        Enumeration::Permutations => {
            shapley_by_permutations(db, q, f, options.permutation_limit, cancel)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satcount::HierarchicalCounter;
    use crate::session::ShapleySession;
    use cqshap_query::parse_cq;

    fn value(
        db: &Database,
        q: AnyQuery<'_>,
        f: FactId,
        options: &ShapleyOptions,
    ) -> Result<BigRational, CoreError> {
        ShapleySession::prepare(db, q, options)?.value(f)
    }

    fn report(
        db: &Database,
        q: AnyQuery<'_>,
        options: &ShapleyOptions,
    ) -> Result<ShapleyReport, CoreError> {
        ShapleySession::prepare(db, q, options)?.report()
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

    fn rat(p: i64, q: i64) -> BigRational {
        BigRational::from_i64_ratio(p, q)
    }

    /// Example 2.3: the exact Shapley values of all endogenous facts for
    /// q1 on the running example. (The appendix's expansion for f_r1
    /// misses the subset {f_t2, f_t3}; the main text's 37/210 is what the
    /// definition yields, as both our algorithms and the permutation
    /// enumeration confirm.)
    #[test]
    fn example_2_3_exact_values() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let opts = ShapleyOptions::default();
        let report = report(&db, AnyQuery::Cq(&q1), &opts).unwrap();
        assert!(report.efficiency_holds());
        assert_eq!(report.expected_total, BigRational::one());

        let expect = [
            ("TA", vec!["Adam"], rat(-3, 28)),
            ("TA", vec!["Ben"], rat(-2, 35)),
            ("TA", vec!["David"], rat(0, 1)),
            ("Reg", vec!["Adam", "OS"], rat(37, 210)),
            ("Reg", vec!["Adam", "AI"], rat(37, 210)),
            ("Reg", vec!["Ben", "OS"], rat(27, 140)),
            ("Reg", vec!["Caroline", "DB"], rat(13, 42)),
            ("Reg", vec!["Caroline", "IC"], rat(13, 42)),
        ];
        for (rel, args, expected) in expect {
            let refs: Vec<&str> = args.iter().map(|s| &**s).collect();
            let f = db.find_fact(rel, &refs).unwrap();
            let entry = report.entry(f).unwrap();
            assert_eq!(entry.value, expected, "{}", entry.rendered);
        }
    }

    #[test]
    fn oracle_agreement_hierarchical_vs_brute_vs_permutations() {
        let db = Database::parse(
            "exo Stud(a)\nexo Stud(b)\n\
             endo TA(a)\n\
             endo Reg(a, c1)\nendo Reg(b, c2)\n",
        )
        .unwrap();
        let q = parse_cq("q() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        for &f in db.endo_facts() {
            let h = shapley_via_counts(&db, AnyQuery::Cq(&q), f, &HierarchicalCounter).unwrap();
            let b = shapley_via_counts(&db, AnyQuery::Cq(&q), f, &BruteForceCounter::default())
                .unwrap();
            let p = shapley_by_permutations(&db, AnyQuery::Cq(&q), f, 9, None).unwrap();
            assert_eq!(h, b, "{}", db.render_fact(f));
            assert_eq!(h, p, "{}", db.render_fact(f));
        }
    }

    #[test]
    fn section_5_1_gap_example_small() {
        // q() :- R(x), S(x,y), !R(y) on the Section 5.1 database with
        // n = 2: |Shapley(f)| = 2!·2!/5! = 1/30.
        let n = 2;
        let mut db = Database::new();
        for i in 0..=2 * n {
            db.add_exo("S", &[&format!("cx{i}"), &format!("cy{i}")])
                .unwrap();
        }
        for i in 1..=n {
            db.add_exo("R", &[&format!("cx{i}")]).unwrap();
            db.add_endo("R", &[&format!("cy{i}")]).unwrap();
        }
        db.add_endo("R", &["cx0"]).unwrap();
        for i in n + 1..=2 * n {
            db.add_endo("R", &[&format!("cx{i}")]).unwrap();
        }
        let q = parse_cq("q() :- R(x), S(x, y), !R(y)").unwrap();
        let f = db.find_fact("R", &["cx0"]).unwrap();
        // Self-join → Auto uses brute force.
        let v = value(&db, AnyQuery::Cq(&q), f, &ShapleyOptions::default()).unwrap();
        assert_eq!(v, rat(1, 30));
        let p = shapley_by_permutations(&db, AnyQuery::Cq(&q), f, 9, None).unwrap();
        assert_eq!(p, rat(1, 30));
    }

    #[test]
    fn auto_strategy_dispatch() {
        let db = university();
        // Hierarchical.
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let f = db.find_fact("TA", &["Adam"]).unwrap();
        assert_eq!(
            value(&db, AnyQuery::Cq(&q1), f, &ShapleyOptions::default()).unwrap(),
            rat(-3, 28)
        );
        // Non-hierarchical without exogenous declarations: |Dn| = 8 ≤
        // limit → brute force matches permutations.
        let q2 = parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')").unwrap();
        let v = value(&db, AnyQuery::Cq(&q2), f, &ShapleyOptions::default()).unwrap();
        let p = shapley_by_permutations(&db, AnyQuery::Cq(&q2), f, 9, None).unwrap();
        assert_eq!(v, p);
    }

    #[test]
    fn exoshap_matches_brute_force_on_q2() {
        // Same data but with Stud and Course declared exogenous: Theorem
        // 4.3 puts q2 in PTIME; the rewriting must agree with brute force.
        let mut db = university();
        let stud = db.schema().id("Stud").unwrap();
        let course = db.schema().id("Course").unwrap();
        let adv = db.schema().id("Adv").unwrap();
        db.declare_exogenous_relation(stud).unwrap();
        db.declare_exogenous_relation(course).unwrap();
        db.declare_exogenous_relation(adv).unwrap();
        let q2 = parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')").unwrap();
        let exo_opts = ShapleyOptions {
            strategy: Strategy::ExoShap,
            ..Default::default()
        };
        let bf_opts = ShapleyOptions {
            strategy: Strategy::BruteForceSubsets,
            ..Default::default()
        };
        for &f in db.endo_facts() {
            let a = value(&db, AnyQuery::Cq(&q2), f, &exo_opts).unwrap();
            let b = value(&db, AnyQuery::Cq(&q2), f, &bf_opts).unwrap();
            assert_eq!(a, b, "{}", db.render_fact(f));
        }
        // Auto picks ExoShap here.
        let f = db.find_fact("TA", &["Adam"]).unwrap();
        let auto = value(&db, AnyQuery::Cq(&q2), f, &ShapleyOptions::default()).unwrap();
        assert_eq!(auto, value(&db, AnyQuery::Cq(&q2), f, &exo_opts).unwrap());
    }

    #[test]
    fn union_brute_force() {
        let db = Database::parse("endo R(a)\nendo S(b)\n").unwrap();
        let u = cqshap_query::parse_ucq("q() :- R(x); q() :- S(x)").unwrap();
        let f = db.find_fact("R", &["a"]).unwrap();
        let v = value(&db, AnyQuery::Union(&u), f, &ShapleyOptions::default()).unwrap();
        // Symmetric players of a 2-player OR game: each gets 1/2.
        assert_eq!(v, rat(1, 2));
        let p = shapley_by_permutations(&db, AnyQuery::Union(&u), f, 9, None).unwrap();
        assert_eq!(p, rat(1, 2));
        // The explicit brute strategy agrees.
        let brute = ShapleyOptions {
            strategy: Strategy::BruteForceSubsets,
            ..Default::default()
        };
        assert_eq!(
            value(&db, AnyQuery::Union(&u), f, &brute).unwrap(),
            rat(1, 2)
        );
    }

    #[test]
    fn union_auto_uses_compiled_engine_beyond_brute_limit() {
        // m = 30 exceeds the default brute-force limit (26): the old
        // Auto path errored out; the compiled inclusion–exclusion
        // engine answers in polynomial time.
        let mut db = Database::new();
        for i in 0..30 {
            db.add_endo("R", &[&format!("c{i}")]).unwrap();
        }
        db.add_endo("T", &["t0"]).unwrap();
        let u = cqshap_query::parse_ucq("q1() :- R(x); q2() :- T(y)").unwrap();
        let f = db.find_fact("T", &["t0"]).unwrap();
        let v = value(&db, AnyQuery::Union(&u), f, &ShapleyOptions::default()).unwrap();
        // 31 symmetric players of an OR game: each gets 1/31.
        assert_eq!(v, rat(1, 31));
        let report = report(&db, AnyQuery::Union(&u), &ShapleyOptions::default()).unwrap();
        assert!(report.efficiency_holds());
        assert_eq!(report.expected_total, BigRational::one());
        assert_eq!(report.entry(f).unwrap().value, rat(1, 31));
    }

    #[test]
    fn union_hierarchical_strategy_errors_name_the_intersection() {
        let db = Database::parse("endo R(a)\nendo S(b)\n").unwrap();
        let f = db.find_fact("R", &["a"]).unwrap();
        let hier = ShapleyOptions {
            strategy: Strategy::Hierarchical,
            ..Default::default()
        };
        // Tractable union: the explicit strategy now succeeds.
        let ok = cqshap_query::parse_ucq("q1() :- R(x); q2() :- S(x)").unwrap();
        assert_eq!(
            value(&db, AnyQuery::Union(&ok), f, &hier).unwrap(),
            rat(1, 2)
        );
        // Intractable intersection: the error names it; Auto absorbs it
        // into brute force instead of erroring.
        let bad = cqshap_query::parse_ucq("qa() :- R(x); qb() :- R(y), S(z)").unwrap();
        match value(&db, AnyQuery::Union(&bad), f, &hier) {
            Err(CoreError::IntractableIntersection { intersection, .. }) => {
                assert_eq!(intersection, "qa ∧ qb");
            }
            other => panic!("expected IntractableIntersection, got {other:?}"),
        }
        let auto = value(&db, AnyQuery::Union(&bad), f, &ShapleyOptions::default()).unwrap();
        let p = shapley_by_permutations(&db, AnyQuery::Union(&bad), f, 9, None).unwrap();
        assert_eq!(auto, p);
    }

    #[test]
    fn union_auto_falls_through_to_exoshap() {
        // The citations disjunct is non-hierarchical but
        // ExoShap-rewritable once Pub and Citations are exogenous
        // relations; m = 30 rules out brute force, so Auto must reach
        // the rewriting rung of the fallback ladder.
        let mut db = Database::new();
        let pub_rel = db.add_relation("Pub", 2).unwrap();
        let cit = db.add_relation("Citations", 2).unwrap();
        db.declare_exogenous_relation(pub_rel).unwrap();
        db.declare_exogenous_relation(cit).unwrap();
        for i in 0..30 {
            db.add_exo("Pub", &[&format!("a{i}"), &format!("p{i}")])
                .unwrap();
            db.add_exo("Citations", &[&format!("p{i}"), &format!("c{i}")])
                .unwrap();
            db.add_endo("Author", &[&format!("a{i}"), &format!("t{i}")])
                .unwrap();
        }
        let u =
            cqshap_query::parse_ucq("q1() :- Author(x, y), Pub(x, z), Citations(z, w)").unwrap();
        assert!(matches!(
            cqshap_query::classify_with_exo(
                &u.disjuncts()[0],
                &["Pub", "Citations"].iter().map(|s| s.to_string()).collect()
            ),
            ExactComplexity::TractableViaExoShap
        ));
        let f = db.find_fact("Author", &["a0", "t0"]).unwrap();
        let auto = value(&db, AnyQuery::Union(&u), f, &ShapleyOptions::default()).unwrap();
        let exo = value(
            &db,
            AnyQuery::Union(&u),
            f,
            &ShapleyOptions {
                strategy: Strategy::ExoShap,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(auto, exo);
        let report = report(&db, AnyQuery::Union(&u), &ShapleyOptions::default()).unwrap();
        assert!(report.efficiency_holds());
        assert_eq!(report.entry(f).unwrap().value, auto);
        let per_fact = crate::reference::shapley_report_per_fact(
            &db,
            AnyQuery::Union(&u),
            &ShapleyOptions::default(),
        )
        .unwrap();
        assert_eq!(per_fact.entry(f).unwrap().value, auto);
    }

    #[test]
    fn union_exoshap_matches_brute_force() {
        let db = Database::parse(
            "exo Stud(a)\nexo Stud(b)\n\
             endo TA(a)\nendo Reg(a, c1)\nendo Reg(b, c2)\n\
             endo T(t0)\n",
        )
        .unwrap();
        let u = cqshap_query::parse_ucq(
            "q1() :- Stud(x), !TA(x), Reg(x, y)\n\
             q2() :- T(z)\n",
        )
        .unwrap();
        let exo = ShapleyOptions {
            strategy: Strategy::ExoShap,
            ..Default::default()
        };
        let brute = ShapleyOptions {
            strategy: Strategy::BruteForceSubsets,
            ..Default::default()
        };
        for &f in db.endo_facts() {
            let a = value(&db, AnyQuery::Union(&u), f, &exo).unwrap();
            let b = value(&db, AnyQuery::Union(&u), f, &brute).unwrap();
            assert_eq!(a, b, "{}", db.render_fact(f));
        }
        let report = report(&db, AnyQuery::Union(&u), &exo).unwrap();
        assert!(report.efficiency_holds());
    }

    #[test]
    fn union_report_paths_agree() {
        let db = Database::parse(
            "exo Stud(a)\nexo Stud(b)\n\
             endo TA(a)\nendo Reg(a, c1)\nendo Reg(b, c2)\n\
             exo Lab(l1)\nendo Asst(l1, a)\nendo Closed(l1)\n",
        )
        .unwrap();
        let u = cqshap_query::parse_ucq(
            "q1() :- Stud(x), !TA(x), Reg(x, y)\n\
             q2() :- Lab(l), Asst(l, a), !Closed(l)\n",
        )
        .unwrap();
        let opts = ShapleyOptions::default();
        let batched = report(&db, AnyQuery::Union(&u), &opts).unwrap();
        assert!(batched.efficiency_holds());
        let per_fact =
            crate::reference::shapley_report_per_fact(&db, AnyQuery::Union(&u), &opts).unwrap();
        for &f in db.endo_facts() {
            let b = &batched.entry(f).unwrap().value;
            assert_eq!(
                b,
                &per_fact.entry(f).unwrap().value,
                "{}",
                db.render_fact(f)
            );
            let p = shapley_by_permutations(&db, AnyQuery::Union(&u), f, 9, None).unwrap();
            assert_eq!(b, &p, "{}", db.render_fact(f));
        }
    }
}
