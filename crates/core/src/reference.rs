//! Reference paths: answers computed from scratch, with no compiled
//! state shared between facts or terms.
//!
//! [`shapley_report_per_fact`] and [`aggregate_shapley_per_fact`] route
//! like a [`ShapleySession`](crate::session::ShapleySession) (the same
//! routing plan), then evaluate each term per fact with the
//! hierarchical `CntSat` oracle or by enumeration.
//! [`oracle_probability`] is the seed lifted-inference traversal for
//! `Pr[q]`. All are kept as cross-check oracles for the compiled
//! engines and as the baselines `cqshap-bench`'s Criterion groups
//! measure them against.

use cqshap_db::{Database, FactId};
use cqshap_numeric::{BigInt, BigRational, FactorialTable};
use cqshap_query::ConjunctiveQuery;

use crate::aggregates::{self, AggregateFunction};
use crate::anyquery::AnyQuery;
use crate::error::CoreError;
use crate::plan::{resolve, signed_sum, Enumeration, Plan, PlanTerm};
use crate::satcount::{BruteForceCounter, HierarchicalCounter, SatCountOracle};
use crate::shapley::{
    efficiency_target, enumerated_value, per_fact, shapley_via_counts, ShapleyOptions,
    ShapleyReport,
};

mod lifted;

pub use lifted::oracle_probability;

/// The per-fact path of
/// [`ShapleySession::report`](crate::session::ShapleySession::report):
/// every fact is evaluated on its own. A CQ¬ pays two materialized
/// database copies and two from-scratch oracle runs per fact; a UCQ¬
/// pays the full inclusion–exclusion sum with from-scratch
/// hierarchical DP runs over masked views (or enumeration).
///
/// # Errors
/// What strategy resolution and the per-fact oracles raise.
pub fn shapley_report_per_fact(
    db: &Database,
    query: AnyQuery<'_>,
    options: &ShapleyOptions,
) -> Result<ShapleyReport, CoreError> {
    let cancel = options.cancel_token();
    let materialize = matches!(query, AnyQuery::Cq(_));
    let value = |db: &Database, q: AnyQuery<'_>, f: FactId, oracle: &dyn SatCountOracle| {
        if materialize {
            shapley_via_materialized_counts(db, q, f, oracle)
        } else {
            shapley_via_counts(db, q, f, oracle)
        }
    };
    let plan = resolve(db, query, options.strategy, options)?;
    let oracle =
        BruteForceCounter::new(options.brute_force_limit, options.threads, cancel.as_ref());
    let values = per_fact(
        options.threads,
        db.endo_facts(),
        |f| match &plan {
            Plan::Terms { terms, .. } => {
                terms_value(db, terms, |db, q| value(db, q, f, &HierarchicalCounter))
            }
            Plan::Enumerate(Enumeration::Subsets) => value(db, query, f, &oracle),
            Plan::Enumerate(e) => enumerated_value(db, query, f, *e, options, cancel.as_ref()),
        },
        |v| v,
    )?;
    let total = values.iter().fold(BigRational::zero(), |sum, v| sum + v);
    let expected = efficiency_target(db, query);
    Ok(ShapleyReport::new(db, values, total, expected))
}

/// `Shapley_agg(D, q, f)` by linearity over the candidate answers: the
/// aggregate's routing plan evaluated for `f` alone, each term with the
/// hierarchical `CntSat` oracle (or each candidate by enumeration) —
/// the per-fact path of
/// [`ShapleySession::prepare_aggregate`](crate::session::ShapleySession::prepare_aggregate).
///
/// # Errors
/// Anything the counting layer raises for a substituted Boolean query,
/// plus [`CoreError::Unsupported`] for malformed aggregate specs.
pub fn aggregate_shapley_per_fact(
    db: &Database,
    q: &ConjunctiveQuery,
    agg: &AggregateFunction,
    f: FactId,
    options: &ShapleyOptions,
) -> Result<BigRational, CoreError> {
    // One armed token for the whole call: the deadline bounds the sum
    // over candidates, not each candidate.
    let cancel = options.cancel_token();
    let (candidates, _) = aggregates::candidates(db, q, agg)?;
    match aggregates::plan(db, &candidates, options, cancel.as_ref())? {
        Plan::Terms { terms, .. } => terms_value(db, &terms, |db, q| {
            shapley_via_counts(db, q, f, &HierarchicalCounter)
        }),
        Plan::Enumerate(enumeration) => aggregates::weighted_enumerated_value(
            db,
            &candidates,
            f,
            enumeration,
            options,
            cancel.as_ref(),
        ),
    }
}

/// One fact's value under a plan's `terms`: the signed sum of `value`
/// over each term's query on the term's database, with no state shared
/// between terms.
///
/// # Errors
/// The first error `value` returns.
fn terms_value(
    db: &Database,
    terms: &[PlanTerm],
    value: impl Fn(&Database, AnyQuery<'_>) -> Result<BigRational, CoreError>,
) -> Result<BigRational, CoreError> {
    let values = terms
        .iter()
        .map(|t| {
            let db = t.db.as_deref().unwrap_or(db);
            Ok((&t.coeff, value(db, AnyQuery::Cq(&t.query))?))
        })
        .collect::<Result<Vec<_>, CoreError>>()?;
    Ok(signed_sum(values).unwrap_or_else(BigRational::zero))
}

/// The seed single-fact computation: materialized modified databases
/// plus a term-by-term rational accumulation.
fn shapley_via_materialized_counts(
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
    let (db_minus, _) = db.without_fact(f)?;
    let (db_plus, _) = db.with_fact_exogenous(f)?;
    let n_minus = oracle.counts(&db_minus, q)?;
    let n_plus = oracle.counts(&db_plus, q)?;
    let table = FactorialTable::new(m);
    let mut acc = BigRational::zero();
    for (k, (plus, minus)) in n_plus.iter().zip(&n_minus).take(m).enumerate() {
        let diff = BigInt::from_biguint(plus.clone()) - BigInt::from_biguint(minus.clone());
        if !diff.is_zero() {
            acc += &(table.shapley_weight(m, k) * BigRational::from_int(diff));
        }
    }
    Ok(acc)
}
