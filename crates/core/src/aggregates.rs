//! Shapley values for aggregate queries over CQ¬s.
//!
//! The "Remarks" of Section 3: the dichotomy extends to summations over
//! CQ¬s by linearity of expectation. An aggregate `Sum{w | φ(…)}` (or
//! `Count`) decomposes over the candidate answer tuples `a`:
//!
//! ```text
//! Shapley_agg(D, q, f) = Σ_a  weight(a) · Shapley(D, q[head ↦ a], f)
//! ```
//!
//! where `q[head ↦ a]` is the Boolean query with the head variables
//! substituted by `a`'s constants. With negation, a tuple may be an
//! answer in a sub-world but not in the full one, so candidates are the
//! head-projections of homomorphisms of the *positive part* into all of
//! `D` — a superset of the answers in any world.
//!
//! ## Shared plans instead of per-tuple dispatch
//!
//! Head substitution only replaces variables by constants, so every
//! candidate's residual query has the *same structure* — the same
//! atoms, polarities, and variable co-occurrences. Strategy resolution
//! (hierarchy, self-joins, non-hierarchical paths) depends on exactly
//! that structure, never on the constants, so the internal
//! `AggregatePlan` groups
//! the candidates by residual shape and resolves the strategy **once
//! per group** instead of re-classifying per tuple. On top of the plan:
//!
//! * [`aggregate_shapley`] answers one fact with one pair of masked
//!   counting runs per candidate — no per-tuple re-classification, no
//!   database clones;
//! * [`aggregate_report`] answers *all* facts, compiling one batched
//!   [`CompiledCount`] engine per candidate (shared by every fact's
//!   recount) and accumulating the weighted values fact-wise — the
//!   aggregate analogue of [`crate::shapley::shapley_report`].
#![expect(
    clippy::indexing_slicing,
    reason = "group tables are indexed by ids assigned during prepare"
)]

use std::collections::{BTreeSet, HashMap};

use cqshap_db::{ConstId, Database, FactId, World};
use cqshap_engine::{answers, for_each_positive_homomorphism, CompiledQuery, FactScope};
use cqshap_numeric::{BigInt, BigRational};
use cqshap_obs::{phase as obs_phase, Counter, Span};
use cqshap_query::{ConjunctiveQuery, QueryBuilder, Term, Var};

use crate::anyquery::AnyQuery;
use crate::budget::{self, CancelToken};
use crate::compiled::CompiledCount;
use crate::error::CoreError;
use crate::exoshap;
use crate::plan::{cq_plan, Plan, TermList};
use crate::satcount::{BruteForceCounter, HierarchicalCounter};
use crate::shapley::{
    engine_values, resolve_strategy, shapley_by_permutations, shapley_via_counts, ReportStats,
    ResolvedStrategy, ShapleyOptions, ShapleyReport,
};

/// The supported aggregate functions.
#[derive(Debug, Clone)]
pub enum AggregateFunction {
    /// `Count{ head | φ }` — each answer weighs 1.
    Count,
    /// `Sum{ w | φ }` — each answer weighs the integer value bound to
    /// the named head variable.
    Sum {
        /// Name of the head variable carrying the weight.
        weight_var: String,
    },
}

impl AggregateFunction {
    fn weight(
        &self,
        db: &Database,
        q: &ConjunctiveQuery,
        tuple: &[ConstId],
    ) -> Result<BigRational, CoreError> {
        match self {
            AggregateFunction::Count => Ok(BigRational::one()),
            AggregateFunction::Sum { weight_var } => {
                let var = q.var_by_name(weight_var).ok_or_else(|| {
                    CoreError::Unsupported(format!("unknown variable {weight_var}"))
                })?;
                let pos = q.head().iter().position(|&h| h == var).ok_or_else(|| {
                    CoreError::Unsupported(format!("{weight_var} is not a head variable"))
                })?;
                let name = db.interner().resolve(tuple[pos]);
                // Parse straight into the arbitrary-precision integer:
                // weight constants are not bounded by any machine width.
                let value: BigInt = name.parse().map_err(|_| {
                    CoreError::Unsupported(format!("weight constant {name:?} is not an integer"))
                })?;
                Ok(BigRational::from_int(value))
            }
        }
    }
}

/// Substitutes the head variables of `q` by the constants of `tuple`,
/// producing the Boolean query `q[head ↦ a]`.
///
/// Constants are injected through [`Term::constant`], which takes the
/// interned name *verbatim* — no datalog quoting or re-tokenization —
/// so database constants whose names collide with parser syntax (a name
/// like `'CS'`, quote characters included) substitute and re-resolve to
/// exactly the same [`ConstId`].
fn substitute_head(
    db: &Database,
    q: &ConjunctiveQuery,
    tuple: &[ConstId],
) -> Result<ConjunctiveQuery, CoreError> {
    let mut builder = QueryBuilder::new(format!("{}_ans", q.name()));
    let subst = |v: Var| -> Option<&str> {
        q.head()
            .iter()
            .position(|&h| h == v)
            .map(|i| db.interner().resolve(tuple[i]))
    };
    for atom in q.atoms() {
        let terms: Vec<Term> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => Term::constant(c),
                Term::Var(v) => match subst(*v) {
                    Some(c) => Term::constant(c),
                    None => Term::Var(builder.var(q.var_name(*v))),
                },
            })
            .collect();
        if atom.negated {
            builder.neg(&atom.relation, terms);
        } else {
            builder.pos(&atom.relation, terms);
        }
    }
    Ok(builder.build()?)
}

/// The candidate answers: head projections of positive-part
/// homomorphisms into all of `D`.
pub fn candidate_answers(db: &Database, q: &ConjunctiveQuery) -> Vec<Vec<ConstId>> {
    let compiled = CompiledQuery::compile(db, q);
    let mut set: BTreeSet<Vec<ConstId>> = BTreeSet::new();
    for_each_positive_homomorphism(db, FactScope::All, &compiled, &mut |m| {
        if let Some(tuple) = compiled
            .head()
            .iter()
            .map(|&v| m.assignment[v as usize])
            .collect::<Option<Vec<_>>>()
        {
            set.insert(tuple);
        }
        true
    });
    set.into_iter().collect()
}

/// The aggregate's value over one world (for efficiency checks and
/// end-to-end tests).
pub fn aggregate_value(
    db: &Database,
    world: &World,
    q: &ConjunctiveQuery,
    agg: &AggregateFunction,
) -> Result<BigRational, CoreError> {
    let mut acc = BigRational::zero();
    for a in answers(db, world, q) {
        acc += &agg.weight(db, q, &a)?;
    }
    Ok(acc)
}

/// One weighted candidate of an aggregate decomposition.
pub(crate) struct Candidate {
    pub(crate) weight: BigRational,
    pub(crate) query: ConjunctiveQuery,
}

/// Candidates sharing one residual query shape and therefore one
/// resolved strategy.
pub(crate) struct ShapeGroup {
    pub(crate) resolved: ResolvedStrategy,
    pub(crate) candidates: Vec<Candidate>,
}

/// The shared decomposition of an aggregate query: weighted residual
/// Boolean queries grouped by shape, each group classified once, with
/// provably-zero candidates pruned up front.
pub(crate) struct AggregatePlan {
    pub(crate) groups: Vec<ShapeGroup>,
    /// Candidates with nonzero weight before pruning — an obs counter,
    /// so the tally is locally readable (for [`ReportStats`]) *and*
    /// forwarded to the installed recorder under
    /// `aggregate.candidates`.
    pub(crate) candidates_total: Counter,
    /// Candidates skipped because their value vector is identically
    /// zero (no endogenous support, or every supported fact irrelevant).
    /// Reported under `aggregate.pruned`.
    pub(crate) candidates_pruned: Counter,
}

/// One atom of a [`ShapeKey`]: relation, polarity, and per-position
/// variable index (`None` for constants).
type AtomShape = (String, bool, Vec<Option<u32>>);

/// The shape signature of a residual query: every structural input of
/// strategy resolution (relations, polarities, variable positions,
/// which positions are constants) with the constant *values* abstracted
/// away. Candidates of one aggregate query always share it — kept as an
/// explicit key so grouping stays correct if substitution ever becomes
/// shape-dependent.
type ShapeKey = Vec<AtomShape>;

fn shape_key(q: &ConjunctiveQuery) -> ShapeKey {
    q.atoms()
        .iter()
        .map(|a| {
            (
                a.relation.clone(),
                a.negated,
                a.terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => Some(v.0),
                        Term::Const(_) => None,
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Cap on the endogenous scope size for the per-fact relevance
/// pre-pass: beyond it, checking every fact costs more than compiling
/// the candidate's engine, so only the free no-endogenous-support test
/// applies.
const RELEVANCE_PRUNE_LIMIT: usize = 16;

/// Is the candidate's whole value vector provably zero? Two sound
/// tests (the aggregate-candidate-pruning pass of the ROADMAP):
///
/// 1. *No endogenous support*: the residual query's scopes contain no
///    endogenous fact (or a positive atom can never match), so its
///    answer is the same in every world and every Shapley value is 0.
/// 2. *All supported facts irrelevant*: for polarity-consistent
///    residuals, zero Shapley coincides with irrelevance (Section 5.2),
///    so [`crate::relevance::is_relevant`] over the scoped endogenous
///    facts decides zeroness exactly.
fn candidate_is_zero(db: &Database, qa: &ConjunctiveQuery) -> bool {
    // Endogenous facts matching some atom pattern — the only facts that
    // can influence the residual's answer. Unlike the counting layer's
    // query resolution, this makes no structural demands (candidates
    // may be non-hierarchical).
    let mut endo: Vec<FactId> = Vec::new();
    for atom in qa.atoms() {
        let Some(rel) = db.schema().id(&atom.relation) else {
            if atom.negated {
                continue; // the negation can never fire
            }
            return true; // a positive atom can never match: always false
        };
        if db.schema().arity(rel) != atom.terms.len() {
            return false; // malformed: let the engine raise its error
        }
        let mut unknown_const = false;
        let consts: Vec<Option<ConstId>> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(name) => {
                    let c = db.interner().get(name);
                    unknown_const |= c.is_none();
                    c
                }
                Term::Var(_) => None,
            })
            .collect();
        if unknown_const {
            if atom.negated {
                continue;
            }
            return true;
        }
        'facts: for &f in db.relation_facts(rel) {
            if !db.fact(f).provenance.is_endogenous() {
                continue;
            }
            let values = db.fact(f).tuple.values();
            let mut bound: Vec<(u32, ConstId)> = Vec::new();
            for (i, t) in atom.terms.iter().enumerate() {
                match t {
                    Term::Const(_) => {
                        if consts[i] != Some(values[i]) {
                            continue 'facts;
                        }
                    }
                    Term::Var(v) => match bound.iter().find(|(bv, _)| *bv == v.0) {
                        Some((_, bval)) => {
                            if *bval != values[i] {
                                continue 'facts;
                            }
                        }
                        None => bound.push((v.0, values[i])),
                    },
                }
            }
            endo.push(f);
        }
    }
    if endo.is_empty() {
        return true;
    }
    endo.len() <= RELEVANCE_PRUNE_LIMIT
        && cqshap_query::is_polarity_consistent(qa)
        && endo.iter().all(|&f| {
            matches!(
                crate::relevance::is_relevant(db, AnyQuery::Cq(qa), f),
                Ok(false)
            )
        })
}

impl AggregatePlan {
    pub(crate) fn prepare(
        db: &Database,
        q: &ConjunctiveQuery,
        agg: &AggregateFunction,
        options: &ShapleyOptions,
    ) -> Result<AggregatePlan, CoreError> {
        if q.head().is_empty() {
            return Err(CoreError::Unsupported(
                "aggregate queries need head variables; use shapley_value for Boolean queries"
                    .into(),
            ));
        }
        let mut keys: HashMap<ShapeKey, usize> = HashMap::new();
        let mut groups: Vec<(ConjunctiveQuery, Vec<Candidate>)> = Vec::new();
        let candidates_total = Counter::new(obs_phase::CTR_AGG_CANDIDATES);
        let candidates_pruned = Counter::new(obs_phase::CTR_AGG_PRUNED);
        for a in candidate_answers(db, q) {
            let weight = agg.weight(db, q, &a)?;
            if weight.is_zero() {
                continue;
            }
            candidates_total.incr();
            let qa = substitute_head(db, q, &a)?;
            if candidate_is_zero(db, &qa) {
                candidates_pruned.incr();
                continue;
            }
            let next = groups.len();
            let slot = *keys.entry(shape_key(&qa)).or_insert(next);
            if slot == groups.len() {
                groups.push((qa.clone(), Vec::new()));
            }
            groups[slot].1.push(Candidate { weight, query: qa });
        }
        let groups = groups
            .into_iter()
            .map(|(representative, candidates)| {
                // One classification per shape: resolution inspects only
                // the structure the key captures, so it holds for every
                // candidate of the group.
                let resolved = resolve_strategy(db, &representative, options)?;
                Ok(ShapeGroup {
                    resolved,
                    candidates,
                })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(AggregatePlan {
            groups,
            candidates_total,
            candidates_pruned,
        })
    }

    /// The pruning counters as report stats — a view over the same obs
    /// counters the trace aggregates, so there is one stats mechanism.
    pub(crate) fn stats(&self) -> ReportStats {
        ReportStats {
            aggregate_candidates: self.candidates_total.get() as usize,
            pruned_candidates: self.candidates_pruned.get() as usize,
        }
    }
}

/// One candidate's Shapley value for one fact, under an
/// already-resolved strategy.
pub(crate) fn candidate_value(
    db: &Database,
    resolved: ResolvedStrategy,
    query: &ConjunctiveQuery,
    f: FactId,
    options: &ShapleyOptions,
    cancel: Option<&CancelToken>,
) -> Result<BigRational, CoreError> {
    match resolved {
        ResolvedStrategy::Hierarchical => {
            shapley_via_counts(db, AnyQuery::Cq(query), f, &HierarchicalCounter)
        }
        ResolvedStrategy::ExoShap => {
            let outcome = exoshap::rewrite(db, query, options.tuple_budget)?;
            if outcome.always_false {
                return Ok(BigRational::zero());
            }
            shapley_via_counts(
                &outcome.db,
                AnyQuery::Cq(&outcome.query),
                f,
                &HierarchicalCounter,
            )
        }
        ResolvedStrategy::BruteForce => {
            let counter =
                BruteForceCounter::new(options.brute_force_limit, options.threads, cancel);
            shapley_via_counts(db, AnyQuery::Cq(query), f, &counter)
        }
        ResolvedStrategy::Permutations => shapley_by_permutations(
            db,
            AnyQuery::Cq(query),
            f,
            options.permutation_limit,
            cancel,
        ),
    }
}

/// `Shapley_agg(D, q, f)` by linearity over candidate answers, through
/// the shared `AggregatePlan` (strategy resolved once per residual
/// shape, not once per tuple).
///
/// # Errors
/// Anything the counting layer raises for a substituted Boolean query,
/// plus [`CoreError::Unsupported`] for malformed aggregate specs.
pub fn aggregate_shapley(
    db: &Database,
    q: &ConjunctiveQuery,
    agg: &AggregateFunction,
    f: FactId,
    options: &ShapleyOptions,
) -> Result<BigRational, CoreError> {
    let plan = AggregatePlan::prepare(db, q, agg, options)?;
    // One armed token for the whole call: the deadline bounds the sum
    // over candidates, not each candidate.
    let cancel = options.cancel_token();
    let mut acc = BigRational::zero();
    for group in &plan.groups {
        for c in &group.candidates {
            if let Some(token) = &cancel {
                budget::check(token, cqshap_obs::phase::AGGREGATE)?;
            }
            let v = candidate_value(db, group.resolved, &c.query, f, options, cancel.as_ref())?;
            acc += &(&c.weight * &v);
        }
    }
    Ok(acc)
}

/// One shape group of candidates, prepared.
enum PreparedGroup {
    /// A tractable shape: each candidate's weight with its plan's terms
    /// compiled once (candidates the rewriting proved always false are
    /// dropped).
    Compiled(Vec<(BigRational, TermList<CompiledCount>)>),
    /// An enumerated shape: evaluated per fact, no compiled state.
    Enumerated(ResolvedStrategy, Vec<Candidate>),
}

/// An [`AggregatePlan`] with every tractable candidate's batched
/// engine compiled once — the aggregate state behind
/// [`crate::session::ShapleySession::prepare_aggregate`].
pub(crate) struct AggregateEngines {
    groups: Vec<PreparedGroup>,
    pub(crate) stats: ReportStats,
}

impl AggregateEngines {
    pub(crate) fn prepare(
        db: &Database,
        q: &ConjunctiveQuery,
        agg: &AggregateFunction,
        options: &ShapleyOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, CoreError> {
        let _span = Span::enter(obs_phase::AGGREGATE_PREPARE);
        let plan = AggregatePlan::prepare(db, q, agg, options)?;
        let stats = plan.stats();
        let mut groups = Vec::with_capacity(plan.groups.len());
        for group in plan.groups {
            if matches!(
                group.resolved,
                ResolvedStrategy::BruteForce | ResolvedStrategy::Permutations
            ) {
                groups.push(PreparedGroup::Enumerated(group.resolved, group.candidates));
                continue;
            }
            let mut prepared = Vec::with_capacity(group.candidates.len());
            for (i, c) in group.candidates.into_iter().enumerate() {
                if let Some(token) = cancel {
                    budget::check_partial(token, cqshap_obs::phase::AGGREGATE_PREPARE, Some(i))?;
                }
                if let Plan::Terms { terms, rewritten } =
                    cq_plan(db, &c.query, group.resolved, options.tuple_budget)?
                {
                    if !terms.is_empty() {
                        let terms = TermList::compile(db, &terms, rewritten, |db, q| {
                            CompiledCount::compile(db, q, options.threads, cancel)
                        })?;
                        prepared.push((c.weight, terms));
                    }
                }
            }
            groups.push(PreparedGroup::Compiled(prepared));
        }
        Ok(AggregateEngines { groups, stats })
    }

    /// The weighted per-fact value vector over `facts`, engine-backed
    /// wherever an engine was prepared.
    pub(crate) fn values(
        &self,
        db: &Database,
        facts: &[FactId],
        options: &ShapleyOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<BigRational>, CoreError> {
        let mut acc = vec![BigRational::zero(); facts.len()];
        for group in &self.groups {
            match group {
                PreparedGroup::Compiled(candidates) => {
                    for (weight, terms) in candidates {
                        if let Some(token) = cancel {
                            budget::check(token, cqshap_obs::phase::AGGREGATE)?;
                        }
                        weighted_add(
                            &mut acc,
                            weight,
                            engine_values(db, terms, facts, options.threads)?,
                        );
                    }
                }
                PreparedGroup::Enumerated(resolved, candidates) => {
                    let values = crate::parallel::par_map_with(options.threads, facts.len(), |i| {
                        let mut v = BigRational::zero();
                        for c in candidates {
                            let cv = candidate_value(
                                db, *resolved, &c.query, facts[i], options, cancel,
                            )?;
                            v += &(&c.weight * &cv);
                        }
                        Ok::<BigRational, CoreError>(v)
                    })
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()?;
                    weighted_add(&mut acc, &BigRational::one(), values);
                }
            }
        }
        Ok(acc)
    }
}

/// `agg(D) − agg(Dx)` — the expected total of an aggregate report.
pub(crate) fn aggregate_efficiency_target(
    db: &Database,
    q: &ConjunctiveQuery,
    agg: &AggregateFunction,
) -> Result<BigRational, CoreError> {
    let full = aggregate_value(db, &World::full(db), q, agg)?;
    let empty = aggregate_value(db, &World::empty(db), q, agg)?;
    Ok(full - empty)
}

/// `Shapley_agg(D, q, f)` for *every* endogenous fact at once: one
/// batched [`CompiledCount`] engine per candidate (compiled once,
/// shared by every fact's recount) on the tractable strategies, with
/// the weighted values accumulated fact-wise. The report's expected
/// total is `agg(D) − agg(Dx)`, which the value total must equal by
/// linearity of the efficiency axiom; its
/// [`ShapleyReport::stats`] carry the candidate-pruning counters.
///
/// A thin compatibility wrapper over
/// [`crate::session::ShapleySession::prepare_aggregate`].
pub fn aggregate_report(
    db: &Database,
    q: &ConjunctiveQuery,
    agg: &AggregateFunction,
    options: &ShapleyOptions,
) -> Result<ShapleyReport, CoreError> {
    crate::session::ShapleySession::prepare_aggregate(db, q, agg.clone(), options)?.report()
}

/// `acc[i] += weight · values[i]`.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over a candidate's value vector
fn weighted_add(acc: &mut [BigRational], weight: &BigRational, values: Vec<BigRational>) {
    for (a, v) in acc.iter_mut().zip(values) {
        if !v.is_zero() {
            *a += &(weight * &v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqshap_query::parse_cq;

    /// The introduction's exports scenario:
    /// Count{c | Farmer(m), Export(m,p,c), ¬Grows(c,p)}.
    fn exports() -> Database {
        Database::parse(
            "endo Farmer(miller)\nendo Farmer(smith)\n\
             exo Export(miller, wheat, norway)\n\
             exo Export(miller, rice, egypt)\n\
             exo Export(smith, rice, norway)\n\
             endo Grows(norway, wheat)\nendo Grows(egypt, rice)\n",
        )
        .unwrap()
    }

    #[test]
    fn count_aggregate_decomposes() {
        let db = exports();
        let q = parse_cq("q(c) :- Farmer(m), Export(m, p, c), !Grows(c, p)").unwrap();
        let agg = AggregateFunction::Count;
        let opts = ShapleyOptions::default();

        // Efficiency by linearity: Σ_f Shapley_agg(f) = agg(D) − agg(Dx).
        let full = aggregate_value(&db, &World::full(&db), &q, &agg).unwrap();
        let empty = aggregate_value(&db, &World::empty(&db), &q, &agg).unwrap();
        let mut total = BigRational::zero();
        for &f in db.endo_facts() {
            total += &aggregate_shapley(&db, &q, &agg, f, &opts).unwrap();
        }
        assert_eq!(total, &full - &empty);

        // The batched report computes the same values and checks the
        // same identity internally.
        let report = aggregate_report(&db, &q, &agg, &opts).unwrap();
        assert!(report.efficiency_holds());
        assert_eq!(report.expected_total, full - empty);
        for &f in db.endo_facts() {
            assert_eq!(
                report.entry(f).unwrap().value,
                aggregate_shapley(&db, &q, &agg, f, &opts).unwrap(),
                "{}",
                db.render_fact(f)
            );
        }
    }

    #[test]
    fn count_candidates_include_sub_world_answers() {
        let db = exports();
        let q = parse_cq("q(c) :- Farmer(m), Export(m, p, c), !Grows(c, p)").unwrap();
        let candidates = candidate_answers(&db, &q);
        // Norway and Egypt both appear as candidates (Egypt only answers
        // in worlds where Grows(egypt, rice) is absent).
        let mut names: Vec<&str> = candidates
            .iter()
            .map(|t| db.interner().resolve(t[0]))
            .collect();
        names.sort();
        assert_eq!(names, vec!["egypt", "norway"]);
    }

    #[test]
    fn sum_aggregate_weights() {
        // Sum of profits r over exports to countries not growing p:
        // Sum{r | Export(p,c), ¬Grows(c,p), Profit(c,p,r)}.
        let db = Database::parse(
            "exo Export(wheat, norway)\nexo Export(rice, egypt)\n\
             endo Grows(egypt, rice)\n\
             exo Profit(norway, wheat, 10)\nexo Profit(egypt, rice, 5)\n",
        )
        .unwrap();
        let q = parse_cq("q(r) :- Export(p, c), !Grows(c, p), Profit(c, p, r)").unwrap();
        let agg = AggregateFunction::Sum {
            weight_var: "r".into(),
        };
        let full = aggregate_value(&db, &World::full(&db), &q, &agg).unwrap();
        let empty = aggregate_value(&db, &World::empty(&db), &q, &agg).unwrap();
        assert_eq!(full, BigRational::from(10i64));
        assert_eq!(empty, BigRational::from(15i64));
        // The single endogenous fact Grows(egypt, rice) carries the whole
        // difference: Shapley = -5.
        let f = db.find_fact("Grows", &["egypt", "rice"]).unwrap();
        let v = aggregate_shapley(&db, &q, &agg, f, &ShapleyOptions::default()).unwrap();
        assert_eq!(v, BigRational::from(-5i64));
    }

    #[test]
    fn sum_weights_beyond_i64() {
        // A 20-digit weight constant (> 2^63): the weight must flow
        // through BigInt, not a machine integer.
        let db = Database::parse(
            "exo Export(wheat, norway)\n\
             endo Grows(norway, wheat)\n\
             exo Profit(norway, wheat, 12345678901234567890)\n",
        )
        .unwrap();
        let q = parse_cq("q(r) :- Export(p, c), !Grows(c, p), Profit(c, p, r)").unwrap();
        let agg = AggregateFunction::Sum {
            weight_var: "r".into(),
        };
        let empty = aggregate_value(&db, &World::empty(&db), &q, &agg).unwrap();
        assert_eq!(empty.to_string(), "12345678901234567890");
        let f = db.find_fact("Grows", &["norway", "wheat"]).unwrap();
        let v = aggregate_shapley(&db, &q, &agg, f, &ShapleyOptions::default()).unwrap();
        assert_eq!(v.to_string(), "-12345678901234567890");
        // Negative weights round-trip too.
        let db2 = Database::parse(
            "exo Export(wheat, norway)\n\
             endo Grows(norway, wheat)\n\
             exo Profit(norway, wheat, -98765432109876543210)\n",
        )
        .unwrap();
        let f2 = db2.find_fact("Grows", &["norway", "wheat"]).unwrap();
        let v2 = aggregate_shapley(&db2, &q, &agg, f2, &ShapleyOptions::default()).unwrap();
        assert_eq!(v2.to_string(), "98765432109876543210");
    }

    #[test]
    fn quoted_constant_names_substitute_verbatim() {
        // A database constant whose *name* contains quote characters is
        // legal ('CS' here — the db parser treats quotes as ordinary
        // token characters, while the query parser would strip them).
        // Head substitution must round-trip it to the same ConstId, so
        // the substituted query counts exactly like the world-level
        // aggregate says.
        let mut db = Database::new();
        db.add_exo("Course", &["db", "'CS'"]).unwrap();
        db.add_exo("Course", &["os", "EE"]).unwrap();
        db.add_endo("Reg", &["alice", "db"]).unwrap();
        db.add_endo("Reg", &["bob", "os"]).unwrap();
        let q = parse_cq("q(f) :- Reg(s, c), Course(c, f)").unwrap();
        let agg = AggregateFunction::Count;
        let opts = ShapleyOptions::default();
        let report = aggregate_report(&db, &q, &agg, &opts).unwrap();
        assert!(report.efficiency_holds());
        // Reg(alice, db) is the only fact driving the 'CS' candidate:
        // its aggregate Shapley value is exactly 1 (one answer gained).
        let f = db.find_fact("Reg", &["alice", "db"]).unwrap();
        assert_eq!(
            aggregate_shapley(&db, &q, &agg, f, &opts).unwrap(),
            BigRational::one()
        );
        // The substituted queries resolve the quoted name verbatim: the
        // candidate set contains the interned 'CS' constant itself.
        let candidates = candidate_answers(&db, &q);
        let names: Vec<&str> = candidates
            .iter()
            .map(|t| db.interner().resolve(t[0]))
            .collect();
        assert!(names.contains(&"'CS'"), "{names:?}");
    }

    #[test]
    fn boolean_query_rejected() {
        let db = exports();
        let q = parse_cq("q() :- Farmer(m)").unwrap();
        let f = db.find_fact("Farmer", &["miller"]).unwrap();
        assert!(matches!(
            aggregate_shapley(&db, &q, &AggregateFunction::Count, f, &Default::default()),
            Err(CoreError::Unsupported(_))
        ));
        assert!(matches!(
            aggregate_report(&db, &q, &AggregateFunction::Count, &Default::default()),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn bad_weight_specs_rejected() {
        let db = exports();
        let q = parse_cq("q(c) :- Farmer(m), Export(m, p, c), !Grows(c, p)").unwrap();
        let f = db.find_fact("Farmer", &["miller"]).unwrap();
        for bad in ["nope", "m"] {
            let agg = AggregateFunction::Sum {
                weight_var: bad.into(),
            };
            assert!(matches!(
                aggregate_shapley(&db, &q, &agg, f, &Default::default()),
                Err(CoreError::Unsupported(_))
            ));
        }
        // Non-integer weights.
        let agg = AggregateFunction::Sum {
            weight_var: "c".into(),
        };
        assert!(matches!(
            aggregate_shapley(&db, &q, &agg, f, &Default::default()),
            Err(CoreError::Unsupported(_))
        ));
    }
}
