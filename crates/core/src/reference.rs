//! Reference paths: answers computed from scratch, with no compiled
//! state shared between facts or terms.
//!
//! The per-fact Shapley paths route like the batched paths (the same
//! routing plan), then evaluate each term per fact with the
//! hierarchical `CntSat` oracle or by enumeration; so does
//! [`crate::aggregates::aggregate_shapley`], through the same per-fact
//! term evaluation.
//! [`oracle_probability`] is the seed lifted-inference traversal for
//! `Pr[q]`. All are kept as cross-check oracles for the compiled
//! engines and as the baselines `cqshap-bench`'s `bench-report`
//! measures them against.

use cqshap_db::{Database, FactId};
use cqshap_numeric::{BigInt, BigRational, FactorialTable};
use cqshap_query::{ConjunctiveQuery, UnionQuery};

use crate::anyquery::AnyQuery;
use crate::error::CoreError;
use crate::plan::{resolve, signed_sum, Enumeration, Plan, PlanTerm};
use crate::satcount::{BruteForceCounter, HierarchicalCounter, SatCountOracle};
use crate::shapley::{
    assemble_report, efficiency_target, enumerated_values, par_values, shapley_via_counts,
    zero_report, ShapleyOptions, ShapleyReport,
};

mod lifted;

pub use lifted::oracle_probability;

/// The seed per-fact path of [`crate::shapley::shapley_report`]: every
/// fact pays two materialized database copies and two from-scratch
/// oracle runs.
///
/// # Errors
/// What strategy resolution and the per-fact oracles raise.
pub fn shapley_report_per_fact(
    db: &Database,
    q: &ConjunctiveQuery,
    options: &ShapleyOptions,
) -> Result<ShapleyReport, CoreError> {
    per_fact_report(db, AnyQuery::Cq(q), options, true)
}

/// The per-fact path of [`crate::shapley::shapley_report_union`]: every
/// fact pays the full inclusion–exclusion sum with from-scratch
/// hierarchical DP runs (or enumeration).
///
/// # Errors
/// What strategy resolution and the per-fact oracles raise.
pub fn shapley_report_union_per_fact(
    db: &Database,
    u: &UnionQuery,
    options: &ShapleyOptions,
) -> Result<ShapleyReport, CoreError> {
    per_fact_report(db, AnyQuery::Union(u), options, false)
}

/// Resolves `query` and evaluates every fact on its own, through
/// materialized modified databases when `materialize` is set and
/// through masked views otherwise.
fn per_fact_report(
    db: &Database,
    query: AnyQuery<'_>,
    options: &ShapleyOptions,
    materialize: bool,
) -> Result<ShapleyReport, CoreError> {
    let facts = db.endo_facts();
    let cancel = options.cancel_token();
    let value = |db: &Database, q: AnyQuery<'_>, f: FactId, oracle: &dyn SatCountOracle| {
        if materialize {
            shapley_via_materialized_counts(db, q, f, oracle)
        } else {
            shapley_via_counts(db, q, f, oracle)
        }
    };
    let values = match resolve(db, query, options.strategy, options)? {
        Plan::Terms { terms, .. } if terms.is_empty() => return Ok(zero_report(db)),
        Plan::Terms { terms, .. } => par_values(options.threads, facts, |f| {
            terms_value(db, &terms, |db, q| value(db, q, f, &HierarchicalCounter))
        })?,
        Plan::Enumerate(Enumeration::Subsets) => {
            let oracle =
                BruteForceCounter::new(options.brute_force_limit, options.threads, cancel.as_ref());
            par_values(options.threads, facts, |f| value(db, query, f, &oracle))?
        }
        Plan::Enumerate(e) => enumerated_values(db, query, facts, e, options, cancel.as_ref())?,
    };
    Ok(assemble_report(db, values, efficiency_target(db, query)))
}

/// One fact's value under a plan's `terms`: the signed sum of `value`
/// over each term's query on the term's database, with no state shared
/// between terms.
///
/// # Errors
/// The first error `value` returns.
pub(crate) fn terms_value(
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
