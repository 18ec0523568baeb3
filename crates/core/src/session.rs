//! [`ShapleySession`] — a prepared, updatable Shapley engine handle.
//!
//! The free functions of [`crate::shapley`] and [`crate::aggregates`]
//! re-resolve atoms and recompile the counting structures on every
//! call, even though [`CompiledCount`] is compile-once by design. A
//! session is the prepared-statement view of the same machinery:
//! [`ShapleySession::prepare`] classifies the query and resolves the
//! strategy *once* into a routing plan — signed conjunctive terms (one
//! for a CQ¬, the inclusion–exclusion expansion for a UCQ¬, each
//! possibly `ExoShap`-rewritten) or enumeration — and keeps it. Each
//! evaluation domain compiles from that one plan the first time a call
//! needs it, and keeps what it compiled:
//!
//! * the counting domain, which serves [`ShapleySession::value`],
//!   [`ShapleySession::values`] and [`ShapleySession::report`], is
//!   built by the first of those reads or by the first update (which
//!   then maintains it). [`ShapleySession::prepare_with_fallback`]
//!   builds it at prepare, so it knows at once whether exact answers
//!   fit;
//! * the probability domain, which serves
//!   [`ShapleySession::probability`] and
//!   [`ShapleySession::expected_shapley`], is built by the first of
//!   those reads and rebuilt after a probability change. It compiles
//!   the kept plan when the session resolved under `Auto`, and
//!   otherwise one `Auto` plan of its own, so a query the Shapley paths
//!   answer by rewriting — a UCQ¬ included — is answered the same way.
//!   World enumeration serves what no term list covers.
//!
//! An aggregate session ([`ShapleySession::prepare_aggregate`]) keeps
//! the same kind of plan: its candidate answers `q[head ↦ a]`, pruned
//! and resolved once, contribute their terms with coefficients scaled
//! by the candidates' weights (see [`crate::aggregates`]), and the
//! counting domain serves them like a union's terms.
//!
//! [`ShapleySession::sampled`], [`ShapleySession::anytime`] and
//! [`ShapleySession::wsms`] read the database directly, and
//! [`ShapleySession::strategy`] / [`ShapleySession::complexity`] expose
//! the routing decision.
//!
//! ## Incremental maintenance
//!
//! The session owns its database copy, so
//! [`ShapleySession::insert_fact`], [`ShapleySession::retract_fact`],
//! and [`ShapleySession::set_exogenous`] can mutate it in place (fact
//! ids stay stable — see [`Database::retract_fact`]) and *maintain* the
//! compiled terms across the update in both domains: the update walks
//! one leaf-to-root path of the touched root group's compiled
//! recursion tree, the cached leave-one-out
//! environments are patched by exact factor swaps, and the weight
//! correlations are refreshed in parallel (see
//! [`CompiledCount::update`]). An aggregate session first re-derives
//! its pruned candidate list, and its terms are maintained only while
//! that list is unchanged. Structural drift — a root group appearing or
//! dying, a query atom resolving differently, terms rewritten from the
//! database, enumeration, a changed candidate list — falls back to a
//! full recompile. Either way the session's answers are
//! bit-identical to a freshly prepared session on the same database
//! (proptest-pinned in `tests/session_updates.rs`).
//!
//! ```
//! use cqshap_core::session::ShapleySession;
//! use cqshap_core::{AnyQuery, ShapleyOptions};
//! use cqshap_db::{Database, Provenance};
//! use cqshap_query::parse_cq;
//!
//! let db = Database::parse("exo Stud(a)\nendo TA(a)\nendo Reg(a, c)\n").unwrap();
//! let q = parse_cq("q() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
//!
//! // Prepare once: classification + the routing plan. The first read
//! // compiles the counting terms, and later reads reuse them.
//! let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
//! let ta = session.database().find_fact("TA", &["a"]).unwrap();
//! assert_eq!(session.value(ta).unwrap().to_string(), "-1/2");
//!
//! // Update in place: the engine is maintained, not recompiled.
//! let reg2 = session.insert_fact("Reg", &["a", "c2"], Provenance::Endogenous).unwrap();
//! let report = session.report().unwrap();
//! assert!(report.efficiency_holds());
//! assert_eq!(report.entry(reg2).unwrap().value.to_string(), "1/3");
//!
//! // Retract it again and the original answers come back.
//! session.retract_fact(reg2).unwrap();
//! assert_eq!(session.value(ta).unwrap().to_string(), "-1/2");
//! ```

use std::collections::HashSet;
use std::sync::OnceLock;

use cqshap_db::{Database, DbError, FactId, Provenance};
use cqshap_numeric::BigRational;
use cqshap_query::{classify_with_exo, ConjunctiveQuery, ExactComplexity, UnionQuery};

use crate::aggregates::{self, aggregate_efficiency_target, AggregateFunction, Candidate};
use crate::anyquery::AnyQuery;
use crate::approx::{
    shapley_additive_approx, shapley_anytime, AnytimeParams, AnytimeReport, AnytimeState,
    ApproxShapley, SampleParams,
};
use crate::budget::CancelToken;
use crate::compiled::{CompiledCount, CompiledProbability, EngineUpdate};
use crate::domain::{probability_by_enumeration_cancel, FactProbabilities};
use crate::error::CoreError;
use crate::plan::{resolve, Enumeration, Plan, TermList};
use crate::shapley::{
    assemble_report, assemble_report_with_total, efficiency_target, engine_report_values,
    engine_values, enumerated_values, zero_report, ReportStats, ResolvedStrategy, ShapleyOptions,
    ShapleyReport, Strategy,
};
use crate::wsms::{wsms_report, WsmsReport, WsmsWeight};

/// The prepared query of a session.
#[derive(Clone)]
enum QuerySpec {
    Cq(ConjunctiveQuery),
    Union(UnionQuery),
    Aggregate {
        query: ConjunctiveQuery,
        agg: AggregateFunction,
    },
}

impl QuerySpec {
    /// The query a world is evaluated against; an aggregate's is its
    /// head-projecting CQ¬.
    fn query(&self) -> AnyQuery<'_> {
        match self {
            QuerySpec::Cq(q) | QuerySpec::Aggregate { query: q, .. } => AnyQuery::Cq(q),
            QuerySpec::Union(u) => AnyQuery::Union(u),
        }
    }
}

/// The counting domain: the kept plan, and its terms compiled on first
/// use.
struct Counting {
    plan: Plan,
    terms: OnceLock<TermList<CompiledCount>>,
    /// Set when the budget stopped the fallback constructor's compile:
    /// until some read or update builds the terms, the session serves
    /// its degraded tiers.
    tripped: bool,
    /// An aggregate's surviving candidates, which the plan's terms (or
    /// its enumeration) stand for; empty for a Boolean query.
    candidates: Vec<Candidate>,
    /// An aggregate's pruning counters; zero for a Boolean query.
    stats: ReportStats,
}

impl Counting {
    fn new(plan: Plan) -> Self {
        Counting {
            plan,
            terms: OnceLock::new(),
            tripped: false,
            candidates: Vec::new(),
            stats: ReportStats::default(),
        }
    }

    /// The engine the plan serves from, compiling its terms (under the
    /// `prepare.compile` phase) if no earlier call has. A failed compile
    /// keeps nothing, so the next call retries under its own budget.
    fn engine(
        &self,
        db: &Database,
        spec: &QuerySpec,
        options: &ShapleyOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Engine<'_>, CoreError> {
        let (terms, rewritten) = match &self.plan {
            Plan::Terms { terms, rewritten } => (terms, *rewritten),
            &Plan::Enumerate(enumeration) => {
                return Ok(Engine::Enumerate(enumeration, &self.candidates))
            }
        };
        if let Some(compiled) = self.terms.get() {
            return Ok(Engine::Terms(compiled));
        }
        let _span = cqshap_obs::Span::enter(cqshap_obs::phase::PREPARE_COMPILE);
        // A union's or an aggregate's terms compile under their own
        // phase, polled between terms.
        let phase = match spec {
            QuerySpec::Cq(_) => None,
            QuerySpec::Union(_) => Some(cqshap_obs::phase::UNION_COMPILE),
            QuerySpec::Aggregate { .. } => Some(cqshap_obs::phase::AGGREGATE_PREPARE),
        };
        let _phase = phase.map(cqshap_obs::Span::enter);
        let compiled = TermList::compile(db, terms, rewritten, |db, q| {
            if let (Some(phase), Some(token)) = (phase, cancel) {
                crate::budget::check(token, phase)?;
            }
            CompiledCount::compile(db, q, options.threads, cancel)
        })?;
        Ok(Engine::Terms(self.terms.get_or_init(|| compiled)))
    }

    /// Patches the compiled terms after one applied update of `db`;
    /// `Ok(false)` asks for a rebuild. An aggregate's terms stand for
    /// its candidate list, so they are patched only while re-deriving
    /// that list on `db` gives the same candidates.
    fn update(
        &mut self,
        db: &Database,
        spec: &QuerySpec,
        change: EngineUpdate,
    ) -> Result<bool, CoreError> {
        let Some(terms) = self.terms.get_mut() else {
            return Ok(false);
        };
        let stats = match spec {
            QuerySpec::Aggregate { query, agg } => {
                let (candidates, stats) = aggregates::candidates(db, query, agg)?;
                if !aggregates::same_candidates(&candidates, &self.candidates) {
                    return Ok(false);
                }
                stats
            }
            _ => self.stats,
        };
        if !terms.update(db, change)? {
            return Ok(false);
        }
        self.stats = stats;
        Ok(true)
    }
}

/// What an exact read serves from.
#[derive(Clone, Copy)]
enum Engine<'a> {
    /// The plan's signed terms.
    Terms(&'a TermList<CompiledCount>),
    /// Per-fact enumeration, no compiled state: of the query, or of
    /// each of an aggregate's weighted candidates.
    Enumerate(Enumeration, &'a [Candidate]),
}

/// The exact-engine state behind a session.
enum EngineState {
    /// The kept plan and its counting domain.
    Planned(Counting),
    /// A failed rebuild left no usable engine; reads surface the stored
    /// reason until [`ShapleySession::recover`] or a successful update
    /// re-prepares.
    Poisoned(String),
    /// No plan was resolved (see
    /// [`ShapleySession::prepare_with_fallback`]): stores the
    /// intractability rejection, which no retry can change. The
    /// degraded tiers serve.
    ExactUnavailable(CoreError),
}

/// The probability domain: the plan it compiles from when that is not
/// the counting plan, and the terms compiled at the session's
/// probabilities. Both are built by the first probabilistic read.
#[derive(Default)]
struct Probability {
    /// The `Auto` plan of a session whose counting plan was resolved
    /// under a forced strategy (or not at all).
    plan: OnceLock<Plan>,
    terms: OnceLock<TermList<CompiledProbability>>,
}

/// What a probabilistic read serves from.
enum ProbEngine<'a> {
    /// The plan's signed terms.
    Terms(&'a TermList<CompiledProbability>),
    /// World enumeration within [`ShapleyOptions::brute_force_limit`].
    Enumerate,
}

/// Update counters of a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Database updates applied through the session.
    pub updates: usize,
    /// Updates served by incremental engine maintenance.
    pub incremental_updates: usize,
    /// Updates that forced a full engine recompile.
    pub full_recompiles: usize,
    /// Failed updates whose database mutation was rolled back (the
    /// session kept serving from the pre-update state).
    pub rolled_back: usize,
}

/// Which answer tiers [`ShapleySession::report_tiered`] may degrade to
/// when the exact engines run out of budget (or out of tractability).
///
/// The ladder is `Exact → Sampled(ε, δ) → WSMS`: exact values whenever
/// the budget allows, the anytime permutation sampler with CLT
/// confidence intervals next, and the tractable weighted-sums-of-
/// minimal-supports measure ([`crate::wsms`]) as the always-terminating
/// floor.
#[derive(Debug, Clone)]
pub struct TierPolicy {
    /// Allow degrading to the anytime sampler.
    pub allow_sampled: bool,
    /// Allow degrading to the WSMS measure.
    pub allow_wsms: bool,
    /// Target half-width of the sampled tier's confidence intervals.
    pub epsilon: f64,
    /// Per-fact miscoverage of the sampled tier (`1 − δ` confidence).
    pub delta: f64,
    /// Seed for the sampled tier.
    pub seed: u64,
    /// Weighting of the WSMS tier.
    pub wsms_weight: WsmsWeight,
}

impl Default for TierPolicy {
    fn default() -> Self {
        TierPolicy {
            allow_sampled: true,
            allow_wsms: true,
            epsilon: 0.05,
            delta: 0.05,
            seed: 0x5eed,
            wsms_weight: WsmsWeight::SizeInverse,
        }
    }
}

/// The answer [`ShapleySession::report_tiered`] settled on, tagged by
/// the tier that produced it.
#[derive(Debug, Clone)]
pub enum TieredAnswer {
    /// The exact report finished within the budget.
    Exact(ShapleyReport),
    /// Exact ran out of budget (or tractability); the anytime sampler's
    /// interval estimates, possibly resumed from an earlier call.
    Sampled(AnytimeReport),
    /// The tractable WSMS responsibility measure — a different (but
    /// order-meaningful) attribution, never a Shapley estimate.
    Wsms(WsmsReport),
}

/// May the ladder absorb this exact-tier failure by degrading, rather
/// than propagate it as a genuine input error?
fn tier_degradable(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::DeadlineExceeded { .. }
            | CoreError::TooManyEndogenousFacts { .. }
            | CoreError::HasNonHierarchicalPath { .. }
            | CoreError::NotHierarchical { .. }
            | CoreError::NotSelfJoinFree { .. }
            | CoreError::IntractableIntersection { .. }
    )
}

/// Reports one ladder demotion to the installed recorder, naming the
/// tier that failed and the [`CoreError`] that forced the step down.
/// The detail string is only formatted when a recorder is installed.
fn tier_demote_event(tier: &str, err: &CoreError) {
    if cqshap_obs::enabled() {
        cqshap_obs::event(cqshap_obs::phase::EV_TIER_DEMOTE, &format!("{tier}: {err}"));
    }
}

/// A prepared, updatable engine handle unifying CQ¬ / UCQ¬ / aggregate
/// Shapley computation behind one API. See the [module docs](self).
pub struct ShapleySession {
    db: Database,
    options: ShapleyOptions,
    spec: QuerySpec,
    complexity: Option<ExactComplexity>,
    state: EngineState,
    probs: FactProbabilities,
    /// The probability domain, reset by a probability change and by an
    /// update its terms cannot absorb.
    prob: Probability,
    stats: SessionStats,
    /// The session's one cancellation token (`Some` iff the options
    /// carry a limited budget), re-armed at every public entry point so
    /// the deadline always measures the current call. Compiled engines
    /// hold clones and poll it from their evaluation recursions.
    cancel: Option<CancelToken>,
    /// Resumable anytime-sampler state: a second
    /// [`ShapleySession::anytime`] call tightens the same estimates.
    /// Invalidated by every successful database update.
    anytime: Option<AnytimeState>,
}

/// The dichotomy classification of a CQ¬ spec under the database's
/// exogenous relations; `None` for unions.
fn classify(db: &Database, spec: &QuerySpec) -> Option<ExactComplexity> {
    match spec {
        QuerySpec::Cq(q) | QuerySpec::Aggregate { query: q, .. } => {
            let _span = cqshap_obs::Span::enter(cqshap_obs::phase::PREPARE_CLASSIFY);
            let exo: HashSet<String> = db.exogenous_relation_names().into_iter().collect();
            Some(classify_with_exo(q, &exo))
        }
        QuerySpec::Union(_) => None,
    }
}

/// Resolves the plan of one spec (an aggregate's from its pruned
/// candidates), compiling the counting terms at once when `eager`.
/// When `cancel` is present, every compiled engine is armed with a
/// clone of the token (so its recounts poll the session budget) and the
/// compile phases themselves are deadline-bounded.
fn build(
    db: &Database,
    spec: &QuerySpec,
    options: &ShapleyOptions,
    cancel: Option<&CancelToken>,
    eager: bool,
) -> Result<EngineState, CoreError> {
    let counting = {
        let _span = cqshap_obs::Span::enter(cqshap_obs::phase::PREPARE_RESOLVE_STRATEGY);
        match spec {
            QuerySpec::Aggregate { query, agg } => {
                let (candidates, stats) = aggregates::candidates(db, query, agg)?;
                let plan = aggregates::plan(db, &candidates, options, cancel)?;
                Counting {
                    candidates,
                    stats,
                    ..Counting::new(plan)
                }
            }
            spec => Counting::new(resolve(db, spec.query(), options.strategy, options)?),
        }
    };
    if eager {
        counting.engine(db, spec, options, cancel)?;
    }
    Ok(EngineState::Planned(counting))
}

/// [`build`] for a session that may serve through its degraded tiers
/// alone: it compiles at once, and a degradable failure yields a
/// degraded state instead of an error.
fn build_with_fallback(
    db: &Database,
    spec: &QuerySpec,
    options: &ShapleyOptions,
    cancel: Option<&CancelToken>,
) -> Result<EngineState, CoreError> {
    match build(db, spec, options, cancel, false) {
        Ok(EngineState::Planned(mut counting)) => {
            match counting.engine(db, spec, options, cancel).map(drop) {
                Ok(()) => {}
                Err(e) if tier_degradable(&e) => counting.tripped = true,
                Err(e) => return Err(e),
            }
            Ok(EngineState::Planned(counting))
        }
        Ok(state) => Ok(state),
        Err(e) if tier_degradable(&e) => Ok(EngineState::ExactUnavailable(e)),
        Err(e) => Err(e),
    }
}

impl ShapleySession {
    /// Prepares a session for a Boolean CQ¬ or UCQ¬: clones the
    /// database, classifies the query, and resolves the strategy once
    /// into the routing plan the session keeps. The first exact read or
    /// update compiles the counting terms, and the first probabilistic
    /// read the probability terms.
    ///
    /// # Errors
    /// Everything strategy resolution can raise — the intractability
    /// and brute-force-limit refusals of the corresponding free
    /// functions.
    pub fn prepare(
        db: &Database,
        query: AnyQuery<'_>,
        options: &ShapleyOptions,
    ) -> Result<Self, CoreError> {
        Self::from_spec(db.clone(), boolean_spec(query), *options, false)
    }

    /// [`ShapleySession::prepare`], except the counting terms compile at
    /// once, and a *degradable* failure — a tripped budget, an
    /// intractability rejection — yields a session without an exact
    /// engine instead of an error.
    /// [`report_tiered`](Self::report_tiered),
    /// [`anytime`](Self::anytime) and [`wsms`](Self::wsms) serve such a
    /// session. Exact reads ([`value`](Self::value),
    /// [`report`](Self::report)) depend on the cause: after an
    /// intractability rejection they fail fast with the stored reason;
    /// after a tripped budget they retry the compile under their own
    /// re-armed budget, keep the engine once it fits, and raise
    /// [`CoreError::DeadlineExceeded`] if it trips again. Updates keep
    /// applying (each retries a full prepare, upgrading the session to
    /// exact the moment one succeeds), and so does `report_tiered` after
    /// a tripped budget. Genuine input errors propagate exactly as in
    /// [`prepare`](Self::prepare).
    ///
    /// # Errors
    /// Non-degradable prepare failures (arity clashes, malformed
    /// queries, database errors).
    pub fn prepare_with_fallback(
        db: &Database,
        query: AnyQuery<'_>,
        options: &ShapleyOptions,
    ) -> Result<Self, CoreError> {
        Self::from_spec(db.clone(), boolean_spec(query), *options, true)
    }

    /// Prepares a session for an aggregate query: derives and prunes the
    /// candidate answers and resolves their one routing plan, whose
    /// weighted terms the first exact read or update compiles (see
    /// [`crate::aggregates`]).
    ///
    /// # Errors
    /// [`CoreError::Unsupported`] for Boolean (head-less) queries, plus
    /// anything candidate classification raises.
    pub fn prepare_aggregate(
        db: &Database,
        query: &ConjunctiveQuery,
        agg: AggregateFunction,
        options: &ShapleyOptions,
    ) -> Result<Self, CoreError> {
        let spec = QuerySpec::Aggregate {
            query: query.clone(),
            agg,
        };
        Self::from_spec(db.clone(), spec, *options, false)
    }

    fn from_spec(
        db: Database,
        spec: QuerySpec,
        options: ShapleyOptions,
        fallback: bool,
    ) -> Result<Self, CoreError> {
        let _span = cqshap_obs::Span::enter(cqshap_obs::phase::PREPARE);
        let cancel = options.cancel_token();
        let complexity = classify(&db, &spec);
        let state = if fallback {
            build_with_fallback(&db, &spec, &options, cancel.as_ref())?
        } else {
            build(&db, &spec, &options, cancel.as_ref(), false)?
        };
        Ok(ShapleySession {
            db,
            options,
            spec,
            complexity,
            state,
            probs: FactProbabilities::uniform(BigRational::from_i64_ratio(1, 2)),
            prob: Probability::default(),
            stats: SessionStats::default(),
            cancel,
            anytime: None,
        })
    }

    /// Restarts the session budget for one public call: every deadline
    /// measures the call it bounds, not the session's age.
    fn rearm(&self) {
        if let Some(token) = &self.cancel {
            token.rearm(self.options.budget.wall, self.options.budget.work);
        }
    }

    /// The session's database (the prepared copy, including any updates
    /// applied through the session).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The options the session was prepared with.
    pub fn options(&self) -> &ShapleyOptions {
        &self.options
    }

    /// The algorithm the strategy resolved to — shared by every value
    /// and report served from this session, so the single-value and
    /// all-facts paths can never route differently. An aggregate's
    /// candidates share one route, resolved on any one of them (no
    /// candidate is an empty term list, which reads as hierarchical).
    /// `None` for sessions without a resolved plan.
    pub fn strategy(&self) -> Option<ResolvedStrategy> {
        match &self.state {
            EngineState::Planned(counting) => Some(counting.plan.strategy()),
            _ => None,
        }
    }

    /// The dichotomy classification of the prepared query under the
    /// database's exogenous relations (Theorems 3.1 / 4.3). `None` for
    /// unions, which the paper's dichotomies do not cover directly.
    pub fn complexity(&self) -> Option<&ExactComplexity> {
        self.complexity.as_ref()
    }

    /// Update counters: how many updates were applied, and how many of
    /// them the engine absorbed incrementally vs. by full recompile.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    fn check_endogenous(&self, f: FactId) -> Result<(), CoreError> {
        if self.db.endo_index(f).is_none() {
            return Err(CoreError::FactNotEndogenous {
                fact: self.db.render_fact(f),
            });
        }
        Ok(())
    }

    /// The engine an exact read serves from, compiling the counting terms
    /// under the budget the read armed if no earlier call has. A
    /// poisoned session fails with its stored reason, and one rejected
    /// as intractable fails fast with the stored rejection.
    fn engine(&self) -> Result<Engine<'_>, CoreError> {
        match &self.state {
            EngineState::Planned(counting) => {
                counting.engine(&self.db, &self.spec, &self.options, self.cancel.as_ref())
            }
            EngineState::Poisoned(reason) => Err(CoreError::Unsupported(format!(
                "the session engine could not be rebuilt after an update ({reason}); call \
                 recover() to rebuild from the retained database, or apply a further update that \
                 restores a preparable state"
            ))),
            EngineState::ExactUnavailable(cause) => Err(CoreError::Unsupported(format!(
                "no exact engine was prepared ({cause}); serve this session through \
                 report_tiered(), anytime(), or wsms()"
            ))),
        }
    }

    /// Installs a freshly built state, reclassifying the query against
    /// the current database.
    fn install(&mut self, state: EngineState) {
        self.complexity = classify(&self.db, &self.spec);
        self.state = state;
    }

    /// Is the session poisoned (no usable engine after a failed
    /// rebuild)? [`ShapleySession::recover`] clears the condition.
    pub fn is_poisoned(&self) -> bool {
        matches!(self.state, EngineState::Poisoned(_))
    }

    /// Does the session lack an exact engine (prepared via
    /// [`ShapleySession::prepare_with_fallback`] on an intractable or
    /// over-budget query)? Degraded tiers still serve, and an
    /// over-budget session retries its compile on every exact read
    /// until one fits.
    pub fn is_exact_unavailable(&self) -> bool {
        match &self.state {
            EngineState::ExactUnavailable(_) => true,
            EngineState::Planned(counting) => counting.tripped && counting.terms.get().is_none(),
            _ => false,
        }
    }

    /// Rebuilds the engine from the session's retained database,
    /// clearing a [`Poisoned`](Self::is_poisoned) state. A no-op on
    /// healthy sessions. On failure the session stays poisoned (with
    /// the new failure as the stored reason) and the error propagates —
    /// `recover` can be retried, e.g. after raising the budget via a
    /// fresh prepare.
    ///
    /// # Errors
    /// Anything strategy resolution and engine compilation raise.
    pub fn recover(&mut self) -> Result<(), CoreError> {
        if !self.is_poisoned() {
            return Ok(());
        }
        self.rearm();
        match build(
            &self.db,
            &self.spec,
            &self.options,
            self.cancel.as_ref(),
            true,
        ) {
            Ok(state) => {
                self.install(state);
                self.prob = Probability::default();
                Ok(())
            }
            Err(e) => {
                self.state = EngineState::Poisoned(e.to_string());
                Err(e)
            }
        }
    }

    /// Test hook: forces the session into the poisoned state so
    /// recovery paths can be exercised without constructing a genuine
    /// mid-maintenance failure.
    #[doc(hidden)]
    pub fn poison_for_tests(&mut self, reason: &str) {
        self.state = EngineState::Poisoned(reason.to_string());
    }

    /// The exact Shapley value of `f`, served from the prepared engine.
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`, plus anything the
    /// per-fact fallback strategies raise.
    pub fn value(&self, f: FactId) -> Result<BigRational, CoreError> {
        self.rearm();
        match self.engine()? {
            Engine::Terms(terms) => terms.value(&self.db, f),
            // Enumeration serves one fact as a batch of one.
            #[expect(
                clippy::expect_used,
                reason = "the batch requested exactly one fact, so exactly one value exists"
            )]
            other => Ok(self
                .values_from(other, &[f])?
                .pop()
                .expect("one fact requested")),
        }
    }

    /// The exact Shapley values of a fact slice, batched through the
    /// prepared engine (root-group-chunked thread fan-out on the
    /// compiled paths).
    ///
    /// # Errors
    /// As [`ShapleySession::value`], for any fact of the slice.
    pub fn values(&self, facts: &[FactId]) -> Result<Vec<BigRational>, CoreError> {
        self.rearm();
        self.values_from(self.engine()?, facts)
    }

    /// [`ShapleySession::values`] from `engine` without re-arming the
    /// budget, for internal callers that already armed it for a larger
    /// phase.
    fn values_from(
        &self,
        engine: Engine<'_>,
        facts: &[FactId],
    ) -> Result<Vec<BigRational>, CoreError> {
        match engine {
            Engine::Terms(terms) => {
                for &f in facts {
                    self.check_endogenous(f)?;
                }
                engine_values(&self.db, terms, facts, self.options.threads)
            }
            Engine::Enumerate(enumeration, candidates) => match &self.spec {
                QuerySpec::Aggregate { .. } => aggregates::weighted_enumerated_values(
                    &self.db,
                    candidates,
                    facts,
                    enumeration,
                    &self.options,
                    self.cancel.as_ref(),
                ),
                spec => enumerated_values(
                    &self.db,
                    spec.query(),
                    facts,
                    enumeration,
                    &self.options,
                    self.cancel.as_ref(),
                ),
            },
        }
    }

    /// The all-facts report: every endogenous fact's exact value plus
    /// the efficiency check (and, for aggregates, the candidate-pruning
    /// stats).
    ///
    /// # Errors
    /// As [`ShapleySession::values`].
    pub fn report(&self) -> Result<ShapleyReport, CoreError> {
        let _span = cqshap_obs::Span::enter(cqshap_obs::phase::REPORT);
        self.rearm();
        let engine = self.engine()?;
        let stats = match &self.state {
            EngineState::Planned(counting) => counting.stats,
            _ => ReportStats::default(),
        };
        if let Engine::Terms(terms) = engine {
            if terms.is_empty() {
                return Ok(zero_report(&self.db).with_stats(stats));
            }
        }
        let facts: Vec<FactId> = self.db.endo_facts().to_vec();
        let expected = match &self.spec {
            QuerySpec::Aggregate { query, agg } => {
                aggregate_efficiency_target(&self.db, query, agg)?
            }
            spec => efficiency_target(&self.db, spec.query()),
        };
        Ok(match engine {
            // Term lists accumulate the value total over the common
            // denominator `lcm(1..m)` (one normalization) — summing the
            // reduced per-fact rationals instead costs a gcd per entry.
            Engine::Terms(terms) => {
                let (values, total) =
                    engine_report_values(&self.db, terms, &facts, self.options.threads)?;
                assemble_report_with_total(&self.db, values, total, expected)
            }
            Engine::Enumerate(..) => {
                assemble_report(&self.db, self.values_from(engine, &facts)?, expected)
            }
        }
        .with_stats(stats))
    }
    /// The aggregate report — [`ShapleySession::report`] restricted to
    /// aggregate sessions.
    ///
    /// # Errors
    /// [`CoreError::Unsupported`] on Boolean sessions.
    pub fn aggregate_report(&self) -> Result<ShapleyReport, CoreError> {
        match &self.spec {
            QuerySpec::Aggregate { .. } => self.report(),
            _ => Err(CoreError::Unsupported(
                "aggregate_report needs a session prepared with prepare_aggregate".into(),
            )),
        }
    }

    /// Monte-Carlo additive approximation of `f`'s value by permutation
    /// sampling over the session's database (Section 5.1).
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`;
    /// [`CoreError::Unsupported`] for aggregate sessions.
    pub fn sampled(&self, f: FactId, params: &SampleParams) -> Result<ApproxShapley, CoreError> {
        match &self.spec {
            QuerySpec::Cq(q) => shapley_additive_approx(&self.db, AnyQuery::Cq(q), f, params),
            QuerySpec::Union(u) => shapley_additive_approx(&self.db, AnyQuery::Union(u), f, params),
            QuerySpec::Aggregate { .. } => Err(CoreError::Unsupported(
                "permutation sampling estimates Boolean queries; aggregate sessions serve exact \
                 values"
                    .into(),
            )),
        }
    }

    /// The anytime estimator: permutation walks with CLT confidence
    /// intervals for *every* endogenous fact. Each walk yields one
    /// marginal per fact, post-stratified by its position; walks
    /// continue until every interval is within `±ε` at confidence
    /// `1 − δ` — or until the session budget trips (each walk charges
    /// `m` work units), in which case the partial (still valid, just
    /// wider) intervals are returned with
    /// [`AnytimeReport::deadline_hit`] set rather than an error.
    ///
    /// The sampler state is retained: a second call resumes the same
    /// strata and tightens the same estimates instead of starting over.
    /// Database updates applied through the session invalidate the
    /// state.
    ///
    /// # Errors
    /// [`CoreError::Unsupported`] for aggregate sessions or invalid
    /// `ε` / `δ`.
    pub fn anytime(&mut self, params: &AnytimeParams) -> Result<AnytimeReport, CoreError> {
        if matches!(self.spec, QuerySpec::Aggregate { .. }) {
            return Err(CoreError::Unsupported(
                "the anytime sampler estimates Boolean queries; aggregate sessions serve exact \
                 values"
                    .into(),
            ));
        }
        self.rearm();
        shapley_anytime(
            &self.db,
            self.spec.query(),
            params,
            self.cancel.as_ref(),
            &mut self.anytime,
        )
    }

    /// The weighted-sums-of-minimal-supports responsibility measure of
    /// every endogenous fact — the tractable floor of the degradation
    /// ladder (see [`crate::wsms`]). Not a Shapley estimate: a
    /// different attribution whose *ordering* information survives when
    /// no Shapley tier fits the budget.
    ///
    /// # Errors
    /// [`CoreError::Unsupported`] for aggregate sessions;
    /// [`CoreError::DeadlineExceeded`] if even support enumeration
    /// trips the budget.
    pub fn wsms(&self, weight: WsmsWeight) -> Result<WsmsReport, CoreError> {
        self.rearm();
        match &self.spec {
            QuerySpec::Cq(q) => {
                wsms_report(&self.db, AnyQuery::Cq(q), weight, self.cancel.as_ref())
            }
            QuerySpec::Union(u) => {
                wsms_report(&self.db, AnyQuery::Union(u), weight, self.cancel.as_ref())
            }
            QuerySpec::Aggregate { .. } => Err(CoreError::Unsupported(
                "WSMS scores Boolean queries; aggregate sessions serve exact values".into(),
            )),
        }
    }

    /// The degradation ladder: the exact report if it finishes within
    /// the budget, else the anytime sampler's interval estimates, else
    /// the tractable WSMS measure — each tier consulted only if
    /// `policy` allows it, each re-armed with the full session budget.
    /// Genuine input errors (an unknown fact, a malformed query)
    /// propagate instead of degrading; only budget and tractability
    /// failures descend the ladder.
    ///
    /// # Errors
    /// The exact tier's error when the policy allows no degradation,
    /// plus anything the allowed tiers raise themselves.
    pub fn report_tiered(&mut self, policy: &TierPolicy) -> Result<TieredAnswer, CoreError> {
        let _span = cqshap_obs::Span::enter(cqshap_obs::phase::REPORT_TIERED);
        // A compile that tripped the budget is retried by the exact
        // read, and its terms kept once they fit.
        let exact_err = match &self.state {
            EngineState::ExactUnavailable(cause) => cause.clone(),
            _ => match self.report() {
                Ok(report) => {
                    cqshap_obs::event(cqshap_obs::phase::EV_TIER_ANSWER, "exact");
                    return Ok(TieredAnswer::Exact(report));
                }
                Err(e) => e,
            },
        };
        if !tier_degradable(&exact_err) || !(policy.allow_sampled || policy.allow_wsms) {
            return Err(exact_err);
        }
        tier_demote_event("exact", &exact_err);
        if policy.allow_sampled {
            let params = AnytimeParams {
                epsilon: policy.epsilon,
                delta: policy.delta,
                seed: policy.seed,
            };
            match self.anytime(&params) {
                // A converged report answers the request; a partial one
                // only if no further tier may take over.
                Ok(report) if report.converged || !policy.allow_wsms => {
                    cqshap_obs::event(cqshap_obs::phase::EV_TIER_ANSWER, "sampled");
                    return Ok(TieredAnswer::Sampled(report));
                }
                Ok(_) => {
                    cqshap_obs::event(
                        cqshap_obs::phase::EV_TIER_DEMOTE,
                        "sampled: intervals did not converge within budget",
                    );
                }
                Err(e) if tier_degradable(&e) && policy.allow_wsms => {
                    tier_demote_event("sampled", &e);
                }
                Err(e) => return Err(e),
            }
        }
        let wsms = self.wsms(policy.wsms_weight)?;
        cqshap_obs::event(cqshap_obs::phase::EV_TIER_ANSWER, "wsms");
        Ok(TieredAnswer::Wsms(wsms))
    }

    /// The per-fact probabilities probabilistic reads evaluate at.
    /// Endogenous facts without an override use the default probability
    /// (`1/2` until [`ShapleySession::set_default_probability`] changes
    /// it); exogenous facts are always present.
    pub fn probabilities(&self) -> &FactProbabilities {
        &self.probs
    }

    /// Sets `f`'s presence probability for probabilistic reads and
    /// invalidates the compiled probability terms (the Shapley state and
    /// the plans are untouched — probabilities never affect either).
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`;
    /// [`CoreError::Unsupported`] outside `[0, 1]`.
    pub fn set_probability(&mut self, f: FactId, p: BigRational) -> Result<(), CoreError> {
        self.check_endogenous(f)?;
        check_probability(&p)?;
        self.probs.set(f, p);
        self.prob.terms = OnceLock::new();
        Ok(())
    }

    /// Sets the probability used by endogenous facts without an
    /// override, invalidating the compiled probability terms.
    ///
    /// # Errors
    /// [`CoreError::Unsupported`] outside `[0, 1]`.
    pub fn set_default_probability(&mut self, p: BigRational) -> Result<(), CoreError> {
        check_probability(&p)?;
        self.probs.set_default(p);
        self.prob.terms = OnceLock::new();
        Ok(())
    }

    /// `Pr[q]` when the endogenous facts are independently present with
    /// the session's probabilities (a tuple-independent probabilistic
    /// database over `Dn`, with `Dx` certain). By Theorem 4.10 this is
    /// polynomial exactly when the query has no non-hierarchical path
    /// under the deterministic relations.
    ///
    /// Resolved through the same plan as the Shapley reads, under `Auto`
    /// whatever the session's strategy: the plan's signed terms are
    /// compiled at the probability domain and cached across calls, and
    /// updates applied through the session maintain them incrementally
    /// where the engines support it. A CQ¬ outside the compiled
    /// fragment routes through the `ExoShap` rewriting, and so does each
    /// subset term of a UCQ¬ whose intersections leave it; failing that,
    /// exact world enumeration within
    /// [`ShapleyOptions::brute_force_limit`] answers.
    ///
    /// # Errors
    /// [`CoreError::Unsupported`] for aggregate sessions;
    /// [`CoreError::TooManyEndogenousFacts`] when only enumeration
    /// applies and `|Dn|` exceeds the limit.
    pub fn probability(&mut self) -> Result<BigRational, CoreError> {
        let _span = cqshap_obs::Span::enter(cqshap_obs::phase::PROBABILITY);
        self.rearm();
        match self.prob_engine()? {
            ProbEngine::Terms(terms) => Ok(terms.probability()),
            ProbEngine::Enumerate => self.enumerate_probability(None),
        }
    }

    /// The expected marginal contribution of `f` under the session's
    /// probabilities: `Pr[q | f present] − Pr[q | f absent]`. This is
    /// the probabilistic analogue of the Shapley reduction's masked
    /// difference — and the Shapley value itself when every coalition
    /// size is weighted by the uniform permutation measure instead.
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`, plus everything
    /// [`ShapleySession::probability`] raises.
    pub fn expected_shapley(&mut self, f: FactId) -> Result<BigRational, CoreError> {
        let _span = cqshap_obs::Span::enter(cqshap_obs::phase::EXPECTED);
        self.check_endogenous(f)?;
        self.rearm();
        match self.prob_engine()? {
            ProbEngine::Terms(terms) => terms.expected_marginal(&self.db, f),
            ProbEngine::Enumerate => Ok(self.enumerate_probability(Some((f, true)))?
                - self.enumerate_probability(Some((f, false)))?),
        }
    }

    /// The probability domain's engine, compiled from its plan if no
    /// earlier read has: the kept counting plan when the session
    /// resolved under `Auto`, else one `Auto` plan resolved now and
    /// kept. World enumeration answers any Boolean query and reports its
    /// own limit, so a plan `Auto` refuses lands there. A failed compile
    /// keeps nothing.
    fn prob_engine(&self) -> Result<ProbEngine<'_>, CoreError> {
        let plan =
            match (&self.spec, &self.state) {
                (QuerySpec::Aggregate { .. }, _) => return Err(CoreError::Unsupported(
                    "probabilistic evaluation covers Boolean queries; aggregate sessions serve \
                     exact Shapley values only"
                        .into(),
                )),
                (_, EngineState::Planned(counting)) if self.options.strategy == Strategy::Auto => {
                    &counting.plan
                }
                _ => self.prob.plan.get_or_init(|| {
                    resolve(&self.db, self.spec.query(), Strategy::Auto, &self.options)
                        .unwrap_or(Plan::Enumerate(Enumeration::Subsets))
                }),
            };
        let Plan::Terms { terms, rewritten } = plan else {
            return Ok(ProbEngine::Enumerate);
        };
        if let Some(compiled) = self.prob.terms.get() {
            return Ok(ProbEngine::Terms(compiled));
        }
        let compiled = TermList::compile(&self.db, terms, *rewritten, |db, q| {
            CompiledProbability::compile(
                db,
                q,
                self.probs.clone(),
                self.options.threads,
                self.cancel.as_ref(),
            )
        })?;
        Ok(ProbEngine::Terms(self.prob.terms.get_or_init(|| compiled)))
    }

    /// `Pr[q]` by world enumeration, with `forced` pinning one fact.
    fn enumerate_probability(
        &self,
        forced: Option<(FactId, bool)>,
    ) -> Result<BigRational, CoreError> {
        probability_by_enumeration_cancel(
            &self.db,
            self.spec.query(),
            &self.probs,
            forced,
            self.options.brute_force_limit,
            self.cancel.as_ref(),
        )
    }

    /// Inserts a fact into the session's database and maintains the
    /// engine. Returns the new fact id.
    ///
    /// When engine maintenance (or the fallback recompile) fails, the
    /// database mutation is rolled back and the session keeps serving
    /// the pre-update state — the error reports a *rejected* update,
    /// never a session that diverged from its engine.
    ///
    /// # Errors
    /// Database errors (arity mismatch, duplicates, exogenous-relation
    /// violations), plus anything engine maintenance raises.
    pub fn insert_fact(
        &mut self,
        relation: &str,
        constants: &[&str],
        provenance: Provenance,
    ) -> Result<FactId, CoreError> {
        self.rearm();
        self.before_update()?;
        let snapshot = self.db.clone();
        let f = self.db.insert(relation, constants, provenance)?;
        self.after_update(EngineUpdate::Inserted(f), snapshot)?;
        Ok(f)
    }

    /// Retracts a fact in place (ids of all other facts stay stable)
    /// and maintains the engine. Failed maintenance rolls the retraction
    /// back (see [`ShapleySession::insert_fact`]).
    ///
    /// # Errors
    /// [`DbError::UnknownFact`] on dangling ids, plus anything engine
    /// maintenance raises.
    pub fn retract_fact(&mut self, f: FactId) -> Result<(), CoreError> {
        self.rearm();
        self.before_update()?;
        let snapshot = self.db.clone();
        self.db.retract_fact(f)?;
        self.after_update(EngineUpdate::Retracted(f), snapshot)
    }

    /// Flips a fact between endogenous and exogenous and maintains the
    /// engine. A no-op when the fact already has the requested
    /// provenance; failed maintenance rolls the flip back (see
    /// [`ShapleySession::insert_fact`]).
    ///
    /// # Errors
    /// [`DbError::UnknownFact`] / [`DbError::ExogenousViolation`], plus
    /// anything engine maintenance raises.
    pub fn set_exogenous(&mut self, f: FactId, exogenous: bool) -> Result<(), CoreError> {
        if f.index() >= self.db.fact_count() || self.db.is_retracted(f) {
            return Err(CoreError::Db(DbError::UnknownFact { id: f.0 }));
        }
        let target = if exogenous {
            Provenance::Exogenous
        } else {
            Provenance::Endogenous
        };
        if self.db.fact(f).provenance == target {
            return Ok(());
        }
        self.rearm();
        self.before_update()?;
        let snapshot = self.db.clone();
        self.db.set_fact_provenance(f, target)?;
        self.after_update(EngineUpdate::ProvenanceFlipped(f), snapshot)
    }

    /// Builds the counting terms an update maintains when no read has
    /// built them yet, on the pre-update database, so every update
    /// patches compiled terms. A session without exact answers rebuilds
    /// after the update instead. A failure leaves the database untouched.
    fn before_update(&self) -> Result<(), CoreError> {
        match &self.state {
            EngineState::Planned(counting) if !self.is_exact_unavailable() => counting
                .engine(&self.db, &self.spec, &self.options, self.cancel.as_ref())
                .map(drop),
            _ => Ok(()),
        }
    }

    /// Routes one applied database change into the engine: incremental
    /// maintenance where the compiled state supports it, a full
    /// re-prepare otherwise. `snapshot` is the pre-update database; any
    /// failure restores it, so the session's database and engine never
    /// diverge.
    fn after_update(&mut self, change: EngineUpdate, snapshot: Database) -> Result<(), CoreError> {
        // Maintain the compiled probability terms first; what they cannot
        // absorb is rebuilt on demand (never served stale).
        let prob_maintained = self
            .prob
            .terms
            .get_mut()
            .is_some_and(|terms| matches!(terms.update(&self.db, change), Ok(true)));
        if !prob_maintained {
            self.prob = Probability::default();
        }
        let maintained = match &mut self.state {
            // Enumeration depends on the database globally (strategy
            // limits): without compiled terms, re-prepare.
            EngineState::Planned(counting) => counting.update(&self.db, &self.spec, change),
            _ => Ok(false),
        };
        let maintained = match maintained {
            Ok(m) => m,
            // The terms may be half-patched (the recount errored
            // mid-swap): roll the database back and drop them.
            Err(e) => return Err(self.roll_back(snapshot, e)),
        };
        if maintained {
            self.stats.updates += 1;
            self.stats.incremental_updates += 1;
            self.anytime = None;
            return Ok(());
        }
        // A session already serving degraded tiers keeps the update and
        // stays degraded when the rebuild fails for the same kind of
        // reason — a fallback session must absorb updates to the very
        // instances whose exact preparation fails.
        let rebuilt = if self.is_exact_unavailable() {
            build_with_fallback(&self.db, &self.spec, &self.options, self.cancel.as_ref())
        } else {
            build(
                &self.db,
                &self.spec,
                &self.options,
                self.cancel.as_ref(),
                true,
            )
        };
        match rebuilt {
            Ok(state) => {
                self.install(state);
                self.stats.updates += 1;
                if !self.is_exact_unavailable() {
                    self.stats.full_recompiles += 1;
                }
                self.anytime = None;
                Ok(())
            }
            // The update pushed the input outside every strategy's
            // reach (or past the budget): reject it wholesale.
            Err(e) => Err(self.roll_back(snapshot, e)),
        }
    }

    /// Restores the pre-update database, so a failed update is
    /// *rejected* rather than poisoning the session: the kept plan
    /// still describes the restored database, and compiled terms the
    /// update may have half-patched are dropped for the next read or
    /// update to recompile. Returns the error to surface for the
    /// rejected update.
    fn roll_back(&mut self, snapshot: Database, cause: CoreError) -> CoreError {
        self.db = snapshot;
        self.prob = Probability::default();
        self.stats.rolled_back += 1;
        if let EngineState::Planned(counting) = &mut self.state {
            counting.terms = OnceLock::new();
        }
        cause
    }
}

/// The spec of a Boolean query.
fn boolean_spec(query: AnyQuery<'_>) -> QuerySpec {
    match query {
        AnyQuery::Cq(q) => QuerySpec::Cq(q.clone()),
        AnyQuery::Union(u) => QuerySpec::Union(u.clone()),
    }
}

/// Probabilities live in `[0, 1]`; sessions reject instead of panicking
/// like [`FactProbabilities::set`] does.
fn check_probability(p: &BigRational) -> Result<(), CoreError> {
    if p.is_negative() || p > &BigRational::one() {
        return Err(CoreError::Unsupported(format!(
            "probability {p} is outside [0, 1]"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::probability_by_enumeration;
    use crate::shapley::Strategy;
    use cqshap_query::{parse_cq, parse_ucq};

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
    fn prepared_session_serves_values_and_reports() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto()).unwrap();
        assert_eq!(session.strategy(), Some(ResolvedStrategy::Hierarchical));
        assert!(matches!(
            session.complexity(),
            Some(ExactComplexity::TractableHierarchical)
        ));
        let report = session.report().unwrap();
        assert!(report.efficiency_holds());
        let adam = db.find_fact("TA", &["Adam"]).unwrap();
        assert_eq!(session.value(adam).unwrap().to_string(), "-3/28");
        assert_eq!(
            report.entry(adam).unwrap().value,
            session.value(adam).unwrap()
        );
        // values() agrees with per-fact value() on an arbitrary slice.
        let slice = [adam, db.find_fact("Reg", &["Ben", "OS"]).unwrap()];
        let batch = session.values(&slice).unwrap();
        assert_eq!(batch[0], session.value(slice[0]).unwrap());
        assert_eq!(batch[1], session.value(slice[1]).unwrap());
    }

    #[test]
    fn tripped_union_budget_surfaces_completed_answers() {
        // A work-unit budget trips deterministically; some cap lands
        // mid-batch, and the DeadlineExceeded it raises must carry the
        // facts that *did* finish — exact answers, not just a count.
        let db = Database::parse(
            "exo Stud(a)\nexo Stud(b)\n\
             endo TA(a)\nendo Reg(a, c1)\nendo Reg(b, c2)\n\
             endo T(t0)\n",
        )
        .unwrap();
        let u = parse_ucq("q1() :- Stud(x), !TA(x), Reg(x, y)\nq2() :- T(z)\n").unwrap();
        let opts = ShapleyOptions::with_strategy(Strategy::ExoShap);
        let full = ShapleySession::prepare(&db, AnyQuery::Union(&u), &opts).unwrap();
        let exact = full.report().unwrap();
        let facts: Vec<FactId> = db.endo_facts().to_vec();
        let mut salvaged = false;
        for cap in 1..10_000u64 {
            let capped = ShapleyOptions::with_strategy(Strategy::ExoShap)
                .budget(crate::Budget::work_units(cap));
            let session = match ShapleySession::prepare(&db, AnyQuery::Union(&u), &capped) {
                Ok(session) => session,
                // The cap tripped during compilation.
                Err(CoreError::DeadlineExceeded { .. }) => continue,
                Err(other) => panic!("unexpected prepare error under cap {cap}: {other:?}"),
            };
            match session.values(&facts) {
                Ok(values) => {
                    // Budget large enough — and the capped values agree
                    // with the unlimited session's.
                    for (i, v) in values.iter().enumerate() {
                        assert_eq!(v, &exact.entry(facts[i]).unwrap().value);
                    }
                    break;
                }
                Err(CoreError::DeadlineExceeded {
                    partial: Some(p), ..
                }) => {
                    assert_eq!(p.answers.len(), p.completed);
                    for (i, v) in &p.answers {
                        assert_eq!(v, &exact.entry(facts[*i]).unwrap().value);
                    }
                    if !p.answers.is_empty() {
                        salvaged = true;
                    }
                }
                Err(CoreError::DeadlineExceeded { partial: None, .. }) => {}
                Err(other) => panic!("unexpected error under cap {cap}: {other:?}"),
            }
        }
        assert!(salvaged, "no work cap tripped mid-batch with answers");
    }

    #[test]
    fn tripped_compiled_budget_surfaces_completed_answers() {
        // Same contract on the batched compiled-engine lanes: whatever
        // lanes finished before the trip rides along on the error.
        let db = university();
        let q = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let opts = ShapleyOptions::with_strategy(Strategy::Hierarchical);
        let full = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &opts).unwrap();
        let exact = full.report().unwrap();
        let facts: Vec<FactId> = db.endo_facts().to_vec();
        let mut salvaged = false;
        for cap in 1..10_000u64 {
            let capped = ShapleyOptions::with_strategy(Strategy::Hierarchical)
                .budget(crate::Budget::work_units(cap));
            let session = match ShapleySession::prepare(&db, AnyQuery::Cq(&q), &capped) {
                Ok(session) => session,
                Err(CoreError::DeadlineExceeded { .. }) => continue,
                Err(other) => panic!("unexpected prepare error under cap {cap}: {other:?}"),
            };
            match session.values(&facts) {
                Ok(_) => break,
                Err(CoreError::DeadlineExceeded {
                    partial: Some(p), ..
                }) => {
                    assert_eq!(p.answers.len(), p.completed);
                    for (i, v) in &p.answers {
                        assert_eq!(v, &exact.entry(facts[*i]).unwrap().value);
                    }
                    if !p.answers.is_empty() {
                        salvaged = true;
                    }
                }
                Err(CoreError::DeadlineExceeded { partial: None, .. }) => {}
                Err(other) => panic!("unexpected error under cap {cap}: {other:?}"),
            }
        }
        assert!(salvaged, "no work cap tripped mid-batch with answers");
    }

    #[test]
    fn session_value_equals_report_for_every_strategy_and_fact() {
        // The strategy is resolved once per session, so the single-value
        // and report paths can never diverge (the old free functions
        // could route differently under Auto).
        let db = Database::parse(
            "exo Stud(a)\nexo Stud(b)\n\
             endo TA(a)\nendo Reg(a, c1)\nendo Reg(b, c2)\n\
             endo T(t0)\n",
        )
        .unwrap();
        let u = parse_ucq("q1() :- Stud(x), !TA(x), Reg(x, y)\nq2() :- T(z)\n").unwrap();
        for strategy in [
            Strategy::Auto,
            Strategy::Hierarchical,
            Strategy::ExoShap,
            Strategy::BruteForceSubsets,
            Strategy::BruteForcePermutations,
        ] {
            let opts = ShapleyOptions::with_strategy(strategy);
            let session = match ShapleySession::prepare(&db, AnyQuery::Union(&u), &opts) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let report = session.report().unwrap();
            assert!(report.efficiency_holds(), "{strategy:?}");
            for &f in db.endo_facts() {
                assert_eq!(
                    session.value(f).unwrap(),
                    report.entry(f).unwrap().value,
                    "{strategy:?} {}",
                    db.render_fact(f)
                );
            }
        }
    }

    #[test]
    fn session_updates_match_fresh_sessions() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto()).unwrap();
        let f = session
            .insert_fact("Reg", &["Ben", "AI"], Provenance::Endogenous)
            .unwrap();
        let ben = session.database().find_fact("TA", &["Ben"]).unwrap();
        session.set_exogenous(ben, true).unwrap();
        session.retract_fact(f).unwrap();
        session.set_exogenous(ben, false).unwrap();
        assert_eq!(session.stats().updates, 4);
        assert!(session.stats().incremental_updates >= 3);
        let fresh = ShapleySession::prepare(
            session.database(),
            AnyQuery::Cq(&q1),
            &ShapleyOptions::auto(),
        )
        .unwrap();
        let (a, b) = (session.report().unwrap(), fresh.report().unwrap());
        assert!(a.efficiency_holds());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.value, y.value, "{}", x.rendered);
        }
    }

    #[test]
    fn union_session_updates_match_fresh_sessions() {
        let db = Database::parse(
            "exo Stud(a)\nexo Stud(b)\n\
             endo TA(a)\nendo Reg(a, c1)\nendo Reg(b, c2)\n\
             exo Lab(l1)\nendo Asst(l1, a)\nendo Closed(l1)\n",
        )
        .unwrap();
        let u = parse_ucq(
            "q1() :- Stud(x), !TA(x), Reg(x, y)\n\
             q2() :- Lab(l), Asst(l, a), !Closed(l)\n",
        )
        .unwrap();
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Union(&u), &ShapleyOptions::auto()).unwrap();
        assert_eq!(session.strategy(), Some(ResolvedStrategy::Hierarchical));
        let f = session
            .insert_fact("Asst", &["l1", "b"], Provenance::Endogenous)
            .unwrap();
        let closed = session.database().find_fact("Closed", &["l1"]).unwrap();
        session.set_exogenous(closed, true).unwrap();
        let fresh = ShapleySession::prepare(
            session.database(),
            AnyQuery::Union(&u),
            &ShapleyOptions::auto(),
        )
        .unwrap();
        let (a, b) = (session.report().unwrap(), fresh.report().unwrap());
        assert!(a.efficiency_holds());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.value, y.value, "{}", x.rendered);
        }
        assert!(session.value(f).is_ok());
    }

    #[test]
    fn aggregate_session_reports_and_counts_pruning() {
        let db = Database::parse(
            "endo Farmer(miller)\nendo Farmer(smith)\n\
             exo Export(miller, wheat, norway)\n\
             exo Export(miller, rice, egypt)\n\
             exo Export(smith, rice, norway)\n\
             endo Grows(norway, wheat)\nendo Grows(egypt, rice)\n",
        )
        .unwrap();
        let q = parse_cq("q(c) :- Farmer(m), Export(m, p, c), !Grows(c, p)").unwrap();
        let session = ShapleySession::prepare_aggregate(
            &db,
            &q,
            AggregateFunction::Count,
            &ShapleyOptions::auto(),
        )
        .unwrap();
        // Every candidate shares one route: the exports candidates have
        // a non-hierarchical path, so Auto enumerates them.
        assert_eq!(session.strategy(), Some(ResolvedStrategy::BruteForce));
        let report = session.aggregate_report().unwrap();
        assert!(report.efficiency_holds());
        assert_eq!(report.stats.aggregate_candidates, 2);
        // Boolean sessions refuse aggregate_report.
        let q1 = parse_cq("q1() :- Farmer(m)").unwrap();
        let boolean =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto()).unwrap();
        assert!(matches!(
            boolean.aggregate_report(),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn aggregate_pruning_skips_zero_candidates() {
        // The egypt candidate of the exports scenario depends only on
        // exogenous facts once Grows(egypt, rice) is exogenous: its
        // whole value vector is zero and the engine is never compiled.
        let db = Database::parse(
            "endo Farmer(miller)\n\
             exo Export(miller, wheat, norway)\n\
             exo Export(miller, rice, egypt)\n\
             exo Grows(egypt, rice)\n\
             endo Grows(norway, wheat)\n",
        )
        .unwrap();
        let q = parse_cq("q(c) :- Farmer(m), Export(m, p, c), !Grows(c, p)").unwrap();
        let report = crate::aggregates::aggregate_report(
            &db,
            &q,
            &AggregateFunction::Count,
            &ShapleyOptions::auto(),
        )
        .unwrap();
        assert!(report.efficiency_holds());
        assert_eq!(report.stats.aggregate_candidates, 2);
        assert_eq!(report.stats.pruned_candidates, 1, "{report:?}");
    }

    #[test]
    fn failed_rebuild_rolls_back_the_update() {
        // A self-join routes Auto to brute force; pushing |Dn| past the
        // limit makes the post-update rebuild fail. The session rejects
        // the update wholesale: the database mutation is rolled back
        // and reads keep serving the pre-update state.
        let mut db = Database::new();
        for i in 0..3 {
            db.add_endo("R", &[&format!("a{i}"), &format!("b{i}")])
                .unwrap();
        }
        let q = parse_cq("q() :- R(x, y), R(y, x)").unwrap();
        let opts = ShapleyOptions::auto().brute_force_limit(3);
        let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &opts).unwrap();
        let f = session.database().endo_facts()[0];
        let before = session.value(f).unwrap();
        let err = session
            .insert_fact("R", &["c", "d"], Provenance::Endogenous)
            .unwrap_err();
        assert!(matches!(err, CoreError::TooManyEndogenousFacts { .. }));
        // Rolled back: same fact count, same answers, healthy session.
        assert!(!session.is_poisoned());
        assert_eq!(session.database().endo_count(), 3);
        assert_eq!(session.value(f).unwrap(), before);
        assert_eq!(session.stats().rolled_back, 1);
        assert_eq!(session.stats().updates, 0);
        // And the session still accepts updates that fit the strategy.
        session.retract_fact(f).unwrap();
        assert_eq!(session.database().endo_count(), 2);
    }

    #[test]
    fn poisoned_sessions_recover_in_place() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto()).unwrap();
        let adam = db.find_fact("TA", &["Adam"]).unwrap();
        let before = session.value(adam).unwrap();
        session.poison_for_tests("synthetic maintenance failure");
        assert!(session.is_poisoned());
        assert!(matches!(
            session.value(adam),
            Err(CoreError::Unsupported(_))
        ));
        assert!(matches!(session.report(), Err(CoreError::Unsupported(_))));
        // recover() rebuilds from the retained database: answers are
        // bit-identical to the pre-poisoning state.
        session.recover().unwrap();
        assert!(!session.is_poisoned());
        assert_eq!(session.value(adam).unwrap(), before);
        assert_eq!(session.strategy(), Some(ResolvedStrategy::Hierarchical));
        // recover() on a healthy session is a no-op.
        session.recover().unwrap();
        assert_eq!(session.value(adam).unwrap(), before);
    }

    /// A non-hierarchical instance (path x–y between R(x) and T(y))
    /// with `m` endogenous facts: every exact tier rejects it once `m`
    /// exceeds the brute-force limit.
    fn hard_instance(m: usize) -> Database {
        let mut db = Database::new();
        for i in 0..m / 2 {
            db.add_endo("R", &[&format!("a{i}")]).unwrap();
            db.add_endo("S", &[&format!("a{i}"), "u"]).unwrap();
        }
        db.add_endo("T", &["u"]).unwrap();
        db
    }

    #[test]
    fn fallback_sessions_serve_degraded_tiers_only() {
        let db = hard_instance(8);
        let q = parse_cq("q() :- R(x), S(x, y), T(y)").unwrap();
        let opts = ShapleyOptions::auto().brute_force_limit(4);
        // The plain constructor rejects the instance outright…
        assert!(ShapleySession::prepare(&db, AnyQuery::Cq(&q), &opts).is_err());
        // …the fallback constructor hands back a degraded session.
        let mut session =
            ShapleySession::prepare_with_fallback(&db, AnyQuery::Cq(&q), &opts).unwrap();
        assert!(session.is_exact_unavailable());
        assert!(!session.is_poisoned());
        let f = session.database().endo_facts()[0];
        assert!(matches!(session.value(f), Err(CoreError::Unsupported(_))));
        assert!(matches!(session.report(), Err(CoreError::Unsupported(_))));
        // The degraded tiers answer: the ladder lands on a sampled (or
        // WSMS) report, and both degraded reads work directly.
        let answer = session.report_tiered(&TierPolicy::default()).unwrap();
        assert!(!matches!(answer, TieredAnswer::Exact(_)));
        let anytime = session
            .anytime(&AnytimeParams {
                epsilon: 0.25,
                ..AnytimeParams::default()
            })
            .unwrap();
        assert_eq!(anytime.entries.len(), session.database().endo_count());
        assert!(
            session
                .wsms(WsmsWeight::SizeInverse)
                .unwrap()
                .minimal_supports
                > 0
        );
    }

    #[test]
    fn fallback_sessions_absorb_updates_and_upgrade_when_possible() {
        let db = hard_instance(8);
        let q = parse_cq("q() :- R(x), S(x, y), T(y)").unwrap();
        let opts = ShapleyOptions::auto().brute_force_limit(4);
        let mut session =
            ShapleySession::prepare_with_fallback(&db, AnyQuery::Cq(&q), &opts).unwrap();
        // An update on a still-intractable instance is kept, not rolled
        // back: the session stays degraded and keeps serving.
        session
            .insert_fact("R", &["extra"], Provenance::Endogenous)
            .unwrap();
        assert!(session.is_exact_unavailable());
        assert_eq!(session.database().endo_count(), 10);
        assert_eq!(session.stats().updates, 1);
        assert_eq!(session.stats().rolled_back, 0);
        assert!(session.report_tiered(&TierPolicy::default()).is_ok());
        // Retracting below the brute-force limit re-prepares an exact
        // engine: the session upgrades out of the degraded state.
        let facts: Vec<FactId> = session.database().endo_facts().to_vec();
        for &f in &facts[..6] {
            session.retract_fact(f).unwrap();
        }
        assert!(!session.is_exact_unavailable());
        let report = session.report().unwrap();
        assert!(report.efficiency_holds());
        // And the exact tier now answers the ladder's first rung.
        assert!(matches!(
            session.report_tiered(&TierPolicy::default()).unwrap(),
            TieredAnswer::Exact(_)
        ));
    }

    fn rat(p: i64, q: i64) -> BigRational {
        BigRational::from_i64_ratio(p, q)
    }

    #[test]
    fn session_probability_matches_enumeration() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto()).unwrap();
        let adam = db.find_fact("TA", &["Adam"]).unwrap();
        session.set_probability(adam, rat(1, 10)).unwrap();
        session.set_default_probability(rat(2, 5)).unwrap();
        let want =
            probability_by_enumeration(&db, AnyQuery::Cq(&q1), session.probabilities(), None, 26)
                .unwrap();
        assert_eq!(session.probability().unwrap(), want);
        // Expected marginals agree with forced enumeration too.
        for &f in db.endo_facts() {
            let present = probability_by_enumeration(
                &db,
                AnyQuery::Cq(&q1),
                session.probabilities(),
                Some((f, true)),
                26,
            )
            .unwrap();
            let absent = probability_by_enumeration(
                &db,
                AnyQuery::Cq(&q1),
                session.probabilities(),
                Some((f, false)),
                26,
            )
            .unwrap();
            assert_eq!(
                session.expected_shapley(f).unwrap(),
                present - absent,
                "{}",
                db.render_fact(f)
            );
        }
    }

    #[test]
    fn union_session_probability_matches_enumeration() {
        let db = Database::parse(
            "exo Stud(a)\nexo Stud(b)\n\
             endo TA(a)\nendo Reg(a, c1)\nendo Reg(b, c2)\n\
             exo Lab(l1)\nendo Asst(l1, a)\nendo Closed(l1)\n",
        )
        .unwrap();
        let u = parse_ucq(
            "q1() :- Stud(x), !TA(x), Reg(x, y)\n\
             q2() :- Lab(l), Asst(l, a), !Closed(l)\n",
        )
        .unwrap();
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Union(&u), &ShapleyOptions::auto()).unwrap();
        session.set_default_probability(rat(3, 10)).unwrap();
        let want =
            probability_by_enumeration(&db, AnyQuery::Union(&u), session.probabilities(), None, 26)
                .unwrap();
        assert_eq!(session.probability().unwrap(), want);
        let asst = db.find_fact("Asst", &["l1", "a"]).unwrap();
        let present = probability_by_enumeration(
            &db,
            AnyQuery::Union(&u),
            session.probabilities(),
            Some((asst, true)),
            26,
        )
        .unwrap();
        let absent = probability_by_enumeration(
            &db,
            AnyQuery::Union(&u),
            session.probabilities(),
            Some((asst, false)),
            26,
        )
        .unwrap();
        assert_eq!(session.expected_shapley(asst).unwrap(), present - absent);
    }

    #[test]
    fn session_probability_survives_updates() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto()).unwrap();
        session.set_default_probability(rat(1, 4)).unwrap();
        let _ = session.probability().unwrap();
        // Drive the same update mix the Shapley maintenance tests use
        // and pin the maintained probability against a fresh prepare.
        let f = session
            .insert_fact("Reg", &["Ben", "AI"], Provenance::Endogenous)
            .unwrap();
        let ben = session.database().find_fact("TA", &["Ben"]).unwrap();
        session.set_exogenous(ben, true).unwrap();
        session.retract_fact(f).unwrap();
        session.set_exogenous(ben, false).unwrap();
        let got = session.probability().unwrap();
        let mut fresh = ShapleySession::prepare(
            session.database(),
            AnyQuery::Cq(&q1),
            &ShapleyOptions::auto(),
        )
        .unwrap();
        fresh.set_default_probability(rat(1, 4)).unwrap();
        assert_eq!(got, fresh.probability().unwrap());
        for &f in session.database().endo_facts().to_vec().iter() {
            assert_eq!(
                session.expected_shapley(f).unwrap(),
                fresh.expected_shapley(f).unwrap()
            );
        }
    }

    #[test]
    fn non_hierarchical_session_probability_routes_to_enumeration() {
        // A self-join leaves the compiled fragment and ExoShap: the
        // ladder lands on exact enumeration.
        let db = Database::parse("endo R(a, b)\nendo R(b, a)\nendo R(a, c)\n").unwrap();
        let q = parse_cq("q() :- R(x, y), R(y, x)").unwrap();
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
        let want =
            probability_by_enumeration(&db, AnyQuery::Cq(&q), session.probabilities(), None, 26)
                .unwrap();
        assert_eq!(session.probability().unwrap(), want);
    }

    #[test]
    fn probability_rejects_bad_inputs() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto()).unwrap();
        assert!(session.set_default_probability(rat(3, 2)).is_err());
        assert!(session.set_default_probability(rat(-1, 2)).is_err());
        let stud = db.find_fact("Stud", &["Adam"]).unwrap();
        assert!(matches!(
            session.set_probability(stud, rat(1, 2)),
            Err(CoreError::FactNotEndogenous { .. })
        ));
        // Aggregate sessions have no probabilistic semantics.
        let qa = parse_cq("q(y) :- Reg(x, y)").unwrap();
        let mut agg = ShapleySession::prepare_aggregate(
            &db,
            &qa,
            AggregateFunction::Count,
            &ShapleyOptions::auto(),
        )
        .unwrap();
        assert!(matches!(agg.probability(), Err(CoreError::Unsupported(_))));
    }

    #[test]
    fn sampled_estimates_from_the_session() {
        let db = Database::parse("exo Stud(a)\nendo TA(a)\nendo Reg(a, c)\n").unwrap();
        let q = parse_cq("q() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
        let ta = db.find_fact("TA", &["a"]).unwrap();
        let est = session
            .sampled(
                ta,
                &SampleParams {
                    epsilon: 0.1,
                    delta: 0.05,
                    seed: 7,
                    threads: 1,
                },
            )
            .unwrap();
        assert!(
            (est.estimate + 0.5).abs() < 0.1,
            "estimate {}",
            est.estimate
        );
    }
}
