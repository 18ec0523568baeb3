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
//! ## One routing plan
//!
//! The decomposition is a weighted sum of Boolean queries, which is
//! what a session's routing plan (the `plan` module) already is. Head
//! substitution only replaces variables by constants, so every
//! candidate has the same atoms, polarities and variable
//! co-occurrences, and strategy resolution depends on nothing else: the
//! strategy is resolved once, on any one candidate. A tractable
//! aggregate is then one term list, the concatenation of every
//! candidate's terms with each coefficient scaled by the candidate's
//! weight; an enumerated one enumerates each weighted candidate.
//! Candidates whose value vector is provably zero are pruned before
//! planning.
//!
//! * [`crate::session::ShapleySession::prepare_aggregate`] compiles
//!   that plan like a Boolean one and maintains it across updates that
//!   keep the candidate list;
//! * [`crate::reference::aggregate_shapley_per_fact`] evaluates the
//!   same plan for one fact, term by term.

use std::collections::BTreeSet;

use cqshap_db::{ConstId, Database, FactId, World};
use cqshap_engine::{answers, for_each_positive_homomorphism, CompiledQuery, FactScope};
use cqshap_numeric::{BigInt, BigRational};
use cqshap_obs::{phase as obs_phase, Counter};
use cqshap_query::{ConjunctiveQuery, QueryBuilder, Term, Var};

use crate::anyquery::AnyQuery;
use crate::budget::{self, CancelToken};
use crate::error::CoreError;
use crate::plan::{cq_plan, Enumeration, Plan, PlanTerm};
use crate::shapley::{
    enumerated_value, resolve_strategy, ReportStats, ResolvedStrategy, ShapleyOptions,
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
    ) -> Result<BigInt, CoreError> {
        match self {
            AggregateFunction::Count => Ok(BigInt::one()),
            AggregateFunction::Sum { weight_var } => {
                let var = q.var_by_name(weight_var).ok_or_else(|| {
                    CoreError::Unsupported(format!("unknown variable {weight_var}"))
                })?;
                let name = head_constant(db, q, tuple, var).ok_or_else(|| {
                    CoreError::Unsupported(format!("{weight_var} is not a head variable"))
                })?;
                // Parse straight into the arbitrary-precision integer:
                // weight constants are not bounded by any machine width.
                name.parse().map_err(|_| {
                    CoreError::Unsupported(format!("weight constant {name:?} is not an integer"))
                })
            }
        }
    }
}

/// The name of the constant `tuple` binds to the head variable `v`, if
/// `v` is one.
fn head_constant<'a>(
    db: &'a Database,
    q: &ConjunctiveQuery,
    tuple: &[ConstId],
    v: Var,
) -> Option<&'a str> {
    q.head()
        .iter()
        .zip(tuple)
        .find(|(&h, _)| h == v)
        .map(|(_, &c)| db.interner().resolve(c))
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
    for atom in q.atoms() {
        let terms: Vec<Term> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => Term::constant(c),
                Term::Var(v) => match head_constant(db, q, tuple, *v) {
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
            .map(|&v| m.assignment.get(v as usize).copied().flatten())
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
        acc += &BigRational::from_int(agg.weight(db, q, &a)?);
    }
    Ok(acc)
}

/// One weighted candidate of an aggregate decomposition:
/// `weight · q[head ↦ tuple]`.
pub(crate) struct Candidate {
    tuple: Vec<ConstId>,
    weight: BigInt,
    query: ConjunctiveQuery,
}

/// Do two candidate lists name the same tuples, in order? The weight
/// and the substituted query follow from the tuple.
pub(crate) fn same_candidates(a: &[Candidate], b: &[Candidate]) -> bool {
    a.iter().map(|c| &c.tuple).eq(b.iter().map(|c| &c.tuple))
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
            for ((t, c), &value) in atom.terms.iter().zip(&consts).zip(values) {
                match t {
                    Term::Const(_) => {
                        if *c != Some(value) {
                            continue 'facts;
                        }
                    }
                    Term::Var(v) => match bound.iter().find(|(bv, _)| *bv == v.0) {
                        Some((_, bval)) => {
                            if *bval != value {
                                continue 'facts;
                            }
                        }
                        None => bound.push((v.0, value)),
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

/// The surviving candidates of an aggregate — nonzero weight, value
/// vector not provably zero — with the pruning counters as report
/// stats. The counters are obs counters, so the stats are a view over
/// the same tallies the trace aggregates (`aggregate.candidates`,
/// `aggregate.pruned`).
///
/// # Errors
/// [`CoreError::Unsupported`] for a head-less query or a malformed
/// weight spec.
pub(crate) fn candidates(
    db: &Database,
    q: &ConjunctiveQuery,
    agg: &AggregateFunction,
) -> Result<(Vec<Candidate>, ReportStats), CoreError> {
    if q.head().is_empty() {
        return Err(CoreError::Unsupported(
            "aggregate queries need head variables; prepare Boolean queries with ShapleySession::prepare".into(),
        ));
    }
    let total = Counter::new(obs_phase::CTR_AGG_CANDIDATES);
    let pruned = Counter::new(obs_phase::CTR_AGG_PRUNED);
    let mut survivors = Vec::new();
    for tuple in candidate_answers(db, q) {
        let weight = agg.weight(db, q, &tuple)?;
        if weight.is_zero() {
            continue;
        }
        total.incr();
        let query = substitute_head(db, q, &tuple)?;
        if candidate_is_zero(db, &query) {
            pruned.incr();
            continue;
        }
        survivors.push(Candidate {
            tuple,
            weight,
            query,
        });
    }
    let stats = ReportStats {
        aggregate_candidates: total.get() as usize,
        pruned_candidates: pruned.get() as usize,
    };
    Ok((survivors, stats))
}

/// The routing plan of the weighted candidates, the strategy resolved
/// once on the first of them (all share one shape): every candidate's
/// terms with their coefficients scaled by its weight, or enumeration.
/// No candidate is the empty term list. `cancel` is polled between
/// candidates, whose `ExoShap` rewritings run here.
///
/// # Errors
/// What strategy resolution and [`cq_plan`] raise.
pub(crate) fn plan(
    db: &Database,
    candidates: &[Candidate],
    options: &ShapleyOptions,
    cancel: Option<&CancelToken>,
) -> Result<Plan, CoreError> {
    let Some(first) = candidates.first() else {
        return Ok(Plan::Terms {
            terms: Vec::new(),
            rewritten: false,
        });
    };
    let resolved = resolve_strategy(db, &first.query, options)?;
    let mut terms = Vec::new();
    for c in candidates {
        if let Some(token) = cancel {
            budget::check(token, obs_phase::AGGREGATE_PREPARE)?;
        }
        match cq_plan(db, &c.query, resolved, options.tuple_budget)? {
            Plan::Terms { terms: own, .. } => terms.extend(own.into_iter().map(|t| PlanTerm {
                coeff: &t.coeff * &c.weight,
                ..t
            })),
            enumerate => return Ok(enumerate),
        }
    }
    Ok(Plan::Terms {
        terms,
        rewritten: resolved == ResolvedStrategy::ExoShap,
    })
}

/// `Σ_c weight_c · Shapley(D, q_c, f)`, each candidate enumerated on
/// its own; `cancel` is polled between candidates.
///
/// # Errors
/// What [`enumerated_value`] raises.
pub(crate) fn weighted_enumerated_value(
    db: &Database,
    candidates: &[Candidate],
    f: FactId,
    enumeration: Enumeration,
    options: &ShapleyOptions,
    cancel: Option<&CancelToken>,
) -> Result<BigRational, CoreError> {
    let mut acc = BigRational::zero();
    for c in candidates {
        if let Some(token) = cancel {
            budget::check(token, obs_phase::AGGREGATE)?;
        }
        let value = enumerated_value(db, AnyQuery::Cq(&c.query), f, enumeration, options, cancel)?;
        acc += &(BigRational::from_int(c.weight.clone()) * value);
    }
    Ok(acc)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::aggregate_shapley_per_fact;
    use crate::session::ShapleySession;
    use crate::shapley::ShapleyReport;
    use cqshap_query::parse_cq;

    fn session_report(
        db: &Database,
        q: &ConjunctiveQuery,
        agg: &AggregateFunction,
        options: &ShapleyOptions,
    ) -> Result<ShapleyReport, CoreError> {
        ShapleySession::prepare_aggregate(db, q, agg.clone(), options)?.report()
    }

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
            total += &aggregate_shapley_per_fact(&db, &q, &agg, f, &opts).unwrap();
        }
        assert_eq!(total, &full - &empty);

        // The batched report computes the same values and checks the
        // same identity internally.
        let report = session_report(&db, &q, &agg, &opts).unwrap();
        assert!(report.efficiency_holds());
        assert_eq!(report.expected_total, full - empty);
        for &f in db.endo_facts() {
            assert_eq!(
                report.entry(f).unwrap().value,
                aggregate_shapley_per_fact(&db, &q, &agg, f, &opts).unwrap(),
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
        let v = aggregate_shapley_per_fact(&db, &q, &agg, f, &ShapleyOptions::default()).unwrap();
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
        let v = aggregate_shapley_per_fact(&db, &q, &agg, f, &ShapleyOptions::default()).unwrap();
        assert_eq!(v.to_string(), "-12345678901234567890");
        // Negative weights round-trip too.
        let db2 = Database::parse(
            "exo Export(wheat, norway)\n\
             endo Grows(norway, wheat)\n\
             exo Profit(norway, wheat, -98765432109876543210)\n",
        )
        .unwrap();
        let f2 = db2.find_fact("Grows", &["norway", "wheat"]).unwrap();
        let v2 =
            aggregate_shapley_per_fact(&db2, &q, &agg, f2, &ShapleyOptions::default()).unwrap();
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
        let report = session_report(&db, &q, &agg, &opts).unwrap();
        assert!(report.efficiency_holds());
        // Reg(alice, db) is the only fact driving the 'CS' candidate:
        // its aggregate Shapley value is exactly 1 (one answer gained).
        let f = db.find_fact("Reg", &["alice", "db"]).unwrap();
        assert_eq!(
            aggregate_shapley_per_fact(&db, &q, &agg, f, &opts).unwrap(),
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
            aggregate_shapley_per_fact(&db, &q, &AggregateFunction::Count, f, &Default::default()),
            Err(CoreError::Unsupported(_))
        ));
        assert!(matches!(
            session_report(&db, &q, &AggregateFunction::Count, &Default::default()),
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
                aggregate_shapley_per_fact(&db, &q, &agg, f, &Default::default()),
                Err(CoreError::Unsupported(_))
            ));
        }
        // Non-integer weights.
        let agg = AggregateFunction::Sum {
            weight_var: "c".into(),
        };
        assert!(matches!(
            aggregate_shapley_per_fact(&db, &q, &agg, f, &Default::default()),
            Err(CoreError::Unsupported(_))
        ));
    }
}
