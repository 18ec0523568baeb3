//! Error type for the Shapley algorithms.

use std::fmt;

use cqshap_db::DbError;
use cqshap_numeric::BigRational;
use cqshap_query::QueryError;

/// Progress a batched phase salvaged before its budget tripped.
///
/// Batched engines finish one fact at a time, so a deadline mid-batch
/// leaves real, exact answers behind. They ride along on
/// [`CoreError::DeadlineExceeded`] so a caller can keep them (seed a
/// retry, report the finished facts) instead of recomputing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartialProgress {
    /// How many per-item units (facts) completed before the trip.
    pub completed: usize,
    /// The completed per-fact answers themselves, as `(fact index,
    /// Shapley value)` pairs — empty for phases whose units are not
    /// per-fact answers (compilation, plan preparation).
    pub answers: Vec<(usize, BigRational)>,
}

/// The enumeration limit that refused an input in
/// [`CoreError::TooManyEndogenousFacts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumerationLimit {
    /// [`crate::ShapleyOptions::brute_force_limit`], checked when a
    /// strategy is resolved.
    BruteForce,
    /// [`crate::ShapleyOptions::permutation_limit`] of the permutation
    /// oracle.
    Permutations,
    /// The world bits of probability by enumeration.
    Worlds,
    /// The subsets of brute-force relevance.
    Relevance,
    /// The subsets of the brute-force satisfying-subset counter.
    SatCount,
}

impl fmt::Display for EnumerationLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EnumerationLimit::BruteForce => "brute-force limit",
            EnumerationLimit::Permutations => "permutation limit",
            EnumerationLimit::Worlds => "world-enumeration limit",
            EnumerationLimit::Relevance => "relevance-enumeration limit",
            EnumerationLimit::SatCount => "subset-counting limit",
        })
    }
}

/// Errors raised by the Shapley computation pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The algorithm requires a self-join-free query.
    NotSelfJoinFree {
        /// The query, rendered.
        query: String,
    },
    /// The exact polynomial algorithm requires a hierarchical query
    /// (Theorem 3.1); this one is not, and no rewriting was requested.
    NotHierarchical {
        /// The query, rendered.
        query: String,
    },
    /// The query has a non-hierarchical path, so by Theorem 4.3 exact
    /// computation is `FP^{#P}`-complete; only the brute-force or
    /// approximate strategies apply.
    HasNonHierarchicalPath {
        /// Witness description.
        witness: String,
    },
    /// A relevance algorithm requires a polarity-consistent query
    /// (Proposition 5.7) or union (Section 5.2).
    NotPolarityConsistent {
        /// The query, rendered.
        query: String,
    },
    /// The requested fact is not endogenous (only endogenous facts are
    /// players of the Shapley game).
    FactNotEndogenous {
        /// The fact, rendered.
        fact: String,
    },
    /// An enumeration was requested but `|Dn|` exceeds its limit.
    TooManyEndogenousFacts {
        /// `|Dn|` of the input (the free bits of the enumeration).
        count: usize,
        /// The configured limit.
        limit: usize,
        /// Which limit refused.
        kind: EnumerationLimit,
    },
    /// A subset of a union's disjuncts conjoins into a query outside the
    /// compiled tractable fragment (self-join induced across disjuncts,
    /// non-hierarchical conjunction, or a failed `ExoShap` rewriting),
    /// so the inclusion–exclusion engine cannot serve the union.
    IntractableIntersection {
        /// The offending disjunct intersection, e.g. `q1 ∧ q3`.
        intersection: String,
        /// Why that conjunction is out of reach.
        reason: String,
    },
    /// A precondition of the Theorem 5.1 construction failed (the query
    /// must be satisfiable, constant-free, positively connected, and
    /// contain a negated atom).
    GapConstruction(String),
    /// A caller-supplied [`crate::Budget`] ran out before the exact
    /// computation finished. The work already done is consistent — the
    /// caller can retry with a bigger budget, or degrade to the sampled
    /// or WSMS tier (see `ShapleySession::report_tiered`).
    DeadlineExceeded {
        /// Which phase of the pipeline hit the budget (e.g. `compile`,
        /// `evaluate`, `report`, `brute-force`, `permutations`).
        phase: String,
        /// Wall-clock time spent when the budget tripped.
        elapsed: std::time::Duration,
        /// What the batched phase completed before the trip, including
        /// the finished per-fact answers themselves (`None` when the
        /// phase has no per-item granularity).
        partial: Option<PartialProgress>,
    },
    /// Propagated database error.
    Db(DbError),
    /// Propagated query error.
    Query(QueryError),
    /// Anything else (internal invariants, unsupported combinations).
    Unsupported(String),
}

impl CoreError {
    /// Attaches salvaged per-fact `answers` to a
    /// [`CoreError::DeadlineExceeded`]; every other error passes
    /// through untouched.
    #[must_use]
    pub fn with_partial_answers(self, answers: Vec<(usize, BigRational)>) -> CoreError {
        match self {
            CoreError::DeadlineExceeded {
                phase,
                elapsed,
                partial,
            } => {
                let mut p = partial.unwrap_or_default();
                p.completed = p.completed.max(answers.len());
                p.answers = answers;
                CoreError::DeadlineExceeded {
                    phase,
                    elapsed,
                    partial: Some(p),
                }
            }
            other => other,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotSelfJoinFree { query } => {
                write!(f, "query is not self-join-free: {query}")
            }
            CoreError::NotHierarchical { query } => {
                write!(f, "query is not hierarchical: {query}")
            }
            CoreError::HasNonHierarchicalPath { witness } => {
                write!(f, "query has a non-hierarchical path ({witness}); exact computation is FP#P-complete")
            }
            CoreError::NotPolarityConsistent { query } => {
                write!(f, "query is not polarity-consistent: {query}")
            }
            CoreError::FactNotEndogenous { fact } => {
                write!(f, "fact {fact} is not endogenous")
            }
            CoreError::TooManyEndogenousFacts { count, limit, kind } => {
                write!(f, "|Dn| = {count} exceeds the {kind} {limit}")
            }
            CoreError::IntractableIntersection {
                intersection,
                reason,
            } => {
                write!(
                    f,
                    "disjunct intersection {intersection} is outside the compiled fragment: {reason}"
                )
            }
            CoreError::GapConstruction(msg) => write!(f, "gap construction: {msg}"),
            CoreError::DeadlineExceeded {
                phase,
                elapsed,
                partial,
            } => {
                write!(
                    f,
                    "deadline exceeded in the {phase} phase after {:.1} ms",
                    elapsed.as_secs_f64() * 1e3
                )?;
                if let Some(p) = partial {
                    write!(f, " ({} fact(s) completed", p.completed)?;
                    if !p.answers.is_empty() {
                        write!(f, ", {} answer(s) retained", p.answers.len())?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            CoreError::Db(e) => write!(f, "database error: {e}"),
            CoreError::Query(e) => write!(f, "query error: {e}"),
            CoreError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<DbError> for CoreError {
    fn from(e: DbError) -> Self {
        CoreError::Db(e)
    }
}

impl From<QueryError> for CoreError {
    fn from(e: QueryError) -> Self {
        CoreError::Query(e)
    }
}
