//! # cqshap
//!
//! Shapley values of database facts for conjunctive queries with safe
//! negation — a from-scratch Rust reproduction of
//! *"The Impact of Negation on the Complexity of the Shapley Value in
//! Conjunctive Queries"* (Reshef, Kimelfeld, Livshits; PODS 2020).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`db`] | `cqshap-db` | databases, endogenous/exogenous facts, worlds |
//! | [`query`] | `cqshap-query` | CQ¬/UCQ¬ AST, parser, structural analysis, dichotomy classifier |
//! | [`engine`] | `cqshap-engine` | satisfaction & homomorphism enumeration |
//! | [`core`] | `cqshap-core` | exact Shapley values, `ExoShap`, probabilistic evaluation (Thm 4.10), sampling, relevance, aggregates, the gap construction |
//! | [`gadgets`] | `cqshap-gadgets` | the paper's hardness reductions, executable |
//! | [`workloads`] | `cqshap-workloads` | seeded synthetic scenarios |
//! | [`numeric`] | `cqshap-numeric` | exact big-integer/rational arithmetic |
//! | [`obs`] | `cqshap-obs` | first-party tracing, metrics, and per-phase profiling |
//!
//! ## Quickstart
//!
//! Every exact answer comes from a
//! [`ShapleySession`](cqshap_core::session::ShapleySession), prepared
//! once for a database and a query. It keeps one routing plan; the
//! Shapley reads and the probability reads (`probability`,
//! `expected_shapley`, Theorem 4.10) each compile their domain from it
//! on first use and serve every later read from it, and updates
//! maintain it in place:
//!
//! ```
//! use cqshap::prelude::*;
//!
//! // The paper's running example (Figure 1) and query q1.
//! let db = cqshap::workloads::figure_1_database();
//! let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
//!
//! // q1 is hierarchical, so exact Shapley values are polynomial-time.
//! let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto()).unwrap();
//! assert_eq!(session.strategy(), Some(ResolvedStrategy::Hierarchical));
//! let report = session.report().unwrap();
//! let ta_adam = db.find_fact("TA", &["Adam"]).unwrap();
//! assert_eq!(report.entry(ta_adam).unwrap().value.to_string(), "-3/28");
//! assert_eq!(session.value(ta_adam).unwrap().to_string(), "-3/28");
//! assert!(report.efficiency_holds());
//!
//! // In-place update: only TA(Adam)'s root group is recounted.
//! session.set_exogenous(ta_adam, true).unwrap();
//! assert!(session.report().unwrap().efficiency_holds());
//! assert_eq!(session.stats().incremental_updates, 1);
//! ```
//!
//! The one-shot free functions that only prepared such a session are
//! gone, so none of these paths resolves:
//!
//! ```compile_fail,E0432
//! use cqshap::core::shapley_report;
//! ```
//! ```compile_fail,E0432
//! use cqshap::prelude::shapley_value_union;
//! ```
//! ```compile_fail,E0432
//! use cqshap::core::aggregates::aggregate_report;
//! ```
//!
//! The session is the engine's whole surface. The compiled counting and
//! probability engines, their evaluation domains and the routing plan
//! are internal to [`core`], so none of these paths resolves:
//!
//! ```compile_fail,E0603
//! use cqshap::core::CompiledCount;
//! ```
//! ```compile_fail,E0603
//! use cqshap::core::compiled;
//! ```
//! ```compile_fail,E0603
//! use cqshap::core::domain::EvalDomain;
//! ```
//! ```compile_fail,E0432
//! use cqshap::prelude::EngineUpdate;
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use cqshap_core as core;
pub use cqshap_db as db;
pub use cqshap_engine as engine;
pub use cqshap_gadgets as gadgets;
pub use cqshap_numeric as numeric;
pub use cqshap_obs as obs;
pub use cqshap_query as query;
pub use cqshap_workloads as workloads;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use cqshap_core::{
        aggregates::{aggregate_value, AggregateFunction},
        approx::{
            required_samples, shapley_additive_approx, shapley_anytime, shapley_sampled,
            AnytimeParams, AnytimeReport, AnytimeState, FactEstimate, SampleParams,
        },
        budget::{Budget, CancelToken, Stopwatch},
        gap::{build_gap_family, expected_gap_value, section_5_1_example},
        probability_by_enumeration,
        relevance::{
            brute_force_relevance, is_negatively_relevant, is_positively_relevant, is_relevant,
            shapley_is_zero,
        },
        rewrite, shapley_by_permutations, shapley_via_counts,
        wsms::{wsms_report, WsmsEntry, WsmsReport, WsmsWeight},
        AnyQuery, BruteForceCounter, CoreError, FactProbabilities, HierarchicalCounter,
        ReportStats, ResolvedStrategy, SatCountOracle, SessionStats, ShapleyEntry, ShapleyOptions,
        ShapleyReport, ShapleySession, Strategy, TierPolicy, TieredAnswer,
    };
    pub use cqshap_db::{Database, FactId, FactMask, Provenance, World};
    pub use cqshap_numeric::{BigInt, BigRational, BigUint};
    pub use cqshap_query::{
        classify, classify_with_exo, conjoin_disjuncts, is_hierarchical, is_polarity_consistent,
        parse_cq, parse_ucq, ConjunctiveQuery, DisjunctConjunction, ExactComplexity, QueryBuilder,
        UnionQuery,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_everything_together() {
        let db = crate::workloads::figure_1_database();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        assert_eq!(classify(&q1), ExactComplexity::TractableHierarchical);
        let f = db.find_fact("Reg", &["Caroline", "DB"]).unwrap();
        let v = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::default())
            .unwrap()
            .value(f)
            .unwrap();
        assert_eq!(v, BigRational::from_i64_ratio(13, 42));
    }
}
