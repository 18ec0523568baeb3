//! # cqshap-core
//!
//! Shapley values of database facts for conjunctive queries with safe
//! negation — a faithful implementation of *"The Impact of Negation on
//! the Complexity of the Shapley Value in Conjunctive Queries"* (Reshef,
//! Kimelfeld, Livshits; PODS 2020).
//!
//! The endogenous facts of a database are players in a cooperative game
//! whose wealth function is the Boolean query answer over
//! `Dx ∪ E`; the Shapley value of a fact measures its contribution to
//! the answer. This crate provides:
//!
//! * [`shapley::shapley_value`] / [`shapley::shapley_report`] — exact
//!   values, with automatic strategy selection along the paper's
//!   dichotomies (Theorems 3.1 and 4.3);
//! * [`satcount`] — the `CntSat` counting algorithm (Lemma 3.2) and the
//!   brute-force oracle;
//! * [`exoshap`] — the `ExoShap` rewriting (Algorithm 1) for queries
//!   without a non-hierarchical path;
//! * [`approx`] — the additive Monte-Carlo FPRAS of Section 5.1;
//! * [`relevance`] — Algorithms 2/3 (`IsPosRelevant` / `IsNegRelevant`)
//!   for polarity-consistent CQ¬s and their UCQ¬ generalization, plus
//!   brute-force relevance and Shapley zeroness (Propositions 5.5–5.8);
//! * [`aggregates`] — Shapley attribution for `Count`/`Sum` aggregates
//!   by linearity (the "Remarks" of Section 3);
//! * [`session`] — [`session::ShapleySession`], the prepared, updatable
//!   engine handle unifying CQ¬ / UCQ¬ / aggregate computation with
//!   incremental maintenance across database updates;
//! * [`budget`] — deadlines and cooperative cancellation
//!   ([`Budget`] / [`CancelToken`] /
//!   [`CoreError::DeadlineExceeded`]) for the `FP^{#P}`-hard regime,
//!   with [`wsms`] (weighted sums of minimal supports, a tractable
//!   responsibility measure) and [`approx`]'s anytime sampler forming
//!   the graceful-degradation ladder behind
//!   [`session::ShapleySession::report_tiered`];
//! * [`gap`] — the Theorem 5.1 construction showing the gap property
//!   fails for every natural CQ¬ with negation.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Panic-freedom: library code returns typed errors instead of panicking.
// Clippy enforces it; each sound exception carries
// `#[expect(clippy::…, reason = "…")]`. Test code is exempt. cqshap-lint's
// `panic-lint-set` rule fails the build gate if a lint leaves this list.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::string_slice
    )
)]

pub mod aggregates;
pub mod anyquery;
pub mod approx;
pub mod budget;
pub mod compiled;
pub mod domain;
pub mod error;
pub mod exoshap;
pub mod gap;
pub(crate) mod parallel;
pub(crate) mod plan;
pub mod reference;
pub mod relevance;
pub mod satcount;
pub mod session;
pub mod shapley;
pub(crate) mod tree;
pub mod wsms;

pub use anyquery::AnyQuery;
pub use approx::{AnytimeParams, AnytimeReport, FactEstimate};
pub use budget::{Budget, CancelToken};
pub use compiled::{CompiledCount, CompiledProbability, EngineUpdate};
pub use domain::{
    probability_by_enumeration, CountingDomain, EvalDomain, FactProbabilities, ProbabilityDomain,
};
pub use error::{CoreError, EnumerationLimit, PartialProgress};
pub use exoshap::{rewrite, RewriteOutcome};
pub use satcount::{
    count_sat_hierarchical, count_sat_hierarchical_masked, BruteForceCounter, HierarchicalCounter,
    SatCountOracle,
};
pub use session::{SessionStats, ShapleySession, TierPolicy, TieredAnswer};
pub use shapley::{
    shapley_by_permutations, shapley_report, shapley_report_union, shapley_value,
    shapley_value_union, shapley_via_counts, ReportStats, ResolvedStrategy, ShapleyEntry,
    ShapleyOptions, ShapleyReport, Strategy,
};
pub use wsms::{WsmsEntry, WsmsReport, WsmsWeight};
