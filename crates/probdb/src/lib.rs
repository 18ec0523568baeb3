//! Tuple-independent probabilistic databases (Section 4.3).
//!
//! Fink and Olteanu established that query evaluation over
//! tuple-independent databases is in PTIME for hierarchical CQ¬s and
//! `FP^{#P}`-complete otherwise. Theorem 4.10 of the paper extends this
//! with *deterministic relations* (probability-1 facts): evaluation is
//! polynomial exactly when the query has no non-hierarchical path, via
//! the same `ExoShap` rewriting used for Shapley values.
//!
//! Evaluation routes through [`cqshap_core::CompiledProbability`] — the
//! compiled engine's resolution/scope/component/root-group pipeline
//! instantiated at the probability domain — so probabilistic inference
//! and Shapley counting share one compiled structure. The crate's
//! original hand-rolled traversal survives only as the reference oracle
//! in [`reference`](mod@reference). Arithmetic is exact rational throughout; the `f64`
//! methods are thin conversion shims over the exact ones.
//!
//! This crate provides:
//!
//! * [`ProbDatabase`] — a [`Database`] whose endogenous facts carry
//!   marginal probabilities (exogenous facts are deterministic);
//! * [`ProbDatabase::query_probability`] /
//!   [`ProbDatabase::query_probability_exact`] — lifted inference for
//!   hierarchical self-join-free CQ¬s through the compiled engine;
//! * [`ProbDatabase::query_probability_with_rewriting`] — the Theorem
//!   4.10 pipeline: `ExoShap`-rewrite, then compiled inference;
//! * [`ProbDatabase::query_probability_enumerated`] — explicit
//!   possible-world enumeration, the ground truth for tests.

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

use cqshap_core::{
    exoshap, probability_by_enumeration, AnyQuery, CompiledProbability, CoreError,
    FactProbabilities,
};
use cqshap_db::{Database, FactId};
use cqshap_numeric::BigRational;
use cqshap_query::ConjunctiveQuery;

pub mod reference;

/// A tuple-independent probabilistic database.
///
/// Endogenous facts of the wrapped [`Database`] are probabilistic;
/// exogenous facts (and hence all facts of declared exogenous relations)
/// are deterministic with probability 1. Probabilities are stored as
/// exact rationals — the `f64` accessors convert losslessly on the way
/// in ([`cqshap_numeric::BigRational::from_f64`] is exact for every
/// finite double) and round only on the way out.
#[derive(Debug, Clone)]
pub struct ProbDatabase {
    db: Database,
    /// Per-fact probabilities of the endogenous facts (exogenous facts
    /// never consult this — they are deterministic by provenance).
    probs: FactProbabilities,
}

impl ProbDatabase {
    /// Wraps `db`, giving every endogenous fact probability `default_p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= default_p <= 1.0`.
    pub fn new(db: Database, default_p: f64) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: the constructor rejects out-of-range probabilities"
        )]
        let default = BigRational::from_f64(default_p)
            .filter(FactProbabilities::is_valid)
            .expect("probability out of range");
        ProbDatabase {
            db,
            probs: FactProbabilities::uniform(default),
        }
    }

    /// Wraps `db` with explicit exact probabilities.
    pub fn with_probabilities(db: Database, probs: FactProbabilities) -> Self {
        ProbDatabase { db, probs }
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The exact per-fact probabilities (endogenous facts only — see
    /// [`ProbDatabase::prob`] for the provenance-aware view).
    pub fn probabilities(&self) -> &FactProbabilities {
        &self.probs
    }

    /// The probability of fact `f`, rounded to `f64`.
    pub fn prob(&self, f: FactId) -> f64 {
        self.prob_exact(f).to_f64()
    }

    /// The exact probability of fact `f` (1 for deterministic facts).
    pub fn prob_exact(&self, f: FactId) -> BigRational {
        if self.db.endo_index(f).is_some() {
            self.probs.get(f).clone()
        } else {
            BigRational::one()
        }
    }

    /// Sets the probability of an endogenous fact (exact dyadic
    /// conversion of `p`).
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] for deterministic facts;
    /// [`CoreError::Unsupported`] for out-of-range probabilities.
    pub fn set_prob(&mut self, f: FactId, p: f64) -> Result<(), CoreError> {
        let exact = BigRational::from_f64(p).ok_or_else(|| {
            CoreError::Unsupported(format!("probability {p} is not a finite number"))
        })?;
        self.set_prob_exact(f, exact)
    }

    /// Sets the exact probability of an endogenous fact.
    ///
    /// # Errors
    /// As [`ProbDatabase::set_prob`].
    pub fn set_prob_exact(&mut self, f: FactId, p: BigRational) -> Result<(), CoreError> {
        if !FactProbabilities::is_valid(&p) {
            return Err(CoreError::Unsupported(format!(
                "probability {p} out of [0,1]"
            )));
        }
        if self.db.endo_index(f).is_none() {
            return Err(CoreError::FactNotEndogenous {
                fact: self.db.render_fact(f),
            });
        }
        self.probs.set(f, p);
        Ok(())
    }

    /// `Pr[D ⊨ q]` by lifted inference — polynomial time, for
    /// hierarchical self-join-free CQ¬s (Fink & Olteanu's tractable
    /// class, extended to CQ¬ exactly as in Lemma 3.2). Runs through the
    /// compiled engine shared with Shapley counting.
    ///
    /// # Errors
    /// [`CoreError::NotHierarchical`] / [`CoreError::NotSelfJoinFree`].
    pub fn query_probability(&self, q: &ConjunctiveQuery) -> Result<f64, CoreError> {
        Ok(self.query_probability_exact(q)?.to_f64())
    }

    /// [`ProbDatabase::query_probability`] in exact rational arithmetic.
    ///
    /// # Errors
    /// As [`ProbDatabase::query_probability`].
    pub fn query_probability_exact(&self, q: &ConjunctiveQuery) -> Result<BigRational, CoreError> {
        let engine = CompiledProbability::compile(&self.db, q, self.probs.clone(), 0, None)?;
        Ok(engine.probability().clone())
    }

    /// `Pr[D ⊨ q]` under Theorem 4.10: rewrite away the deterministic
    /// relations (`ExoShap`), then run compiled inference on the
    /// resulting hierarchical query. Applicable whenever `q` has no
    /// non-hierarchical path with respect to the declared exogenous
    /// (deterministic) relations.
    pub fn query_probability_with_rewriting(
        &self,
        q: &ConjunctiveQuery,
        tuple_budget: usize,
    ) -> Result<f64, CoreError> {
        Ok(self
            .query_probability_with_rewriting_exact(q, tuple_budget)?
            .to_f64())
    }

    /// [`ProbDatabase::query_probability_with_rewriting`] in exact
    /// rational arithmetic.
    ///
    /// # Errors
    /// As [`ProbDatabase::query_probability_with_rewriting`].
    pub fn query_probability_with_rewriting_exact(
        &self,
        q: &ConjunctiveQuery,
        tuple_budget: usize,
    ) -> Result<BigRational, CoreError> {
        let outcome = exoshap::rewrite(&self.db, q, tuple_budget)?;
        if outcome.always_false {
            return Ok(BigRational::zero());
        }
        // Fact ids are preserved by the rewriting, and every fresh fact
        // is exogenous (deterministic), so the probability assignment
        // carries over unchanged: the endogenous set is the same.
        let engine =
            CompiledProbability::compile(&outcome.db, &outcome.query, self.probs.clone(), 0, None)?;
        Ok(engine.probability().clone())
    }

    /// `Pr[D ⊨ q]` by explicit possible-world enumeration over the
    /// probabilistic facts — exponential; the ground truth for tests.
    ///
    /// # Errors
    /// [`CoreError::TooManyEndogenousFacts`] when more than `limit`
    /// facts are probabilistic.
    pub fn query_probability_enumerated(
        &self,
        q: &ConjunctiveQuery,
        limit: usize,
    ) -> Result<f64, CoreError> {
        Ok(self.query_probability_enumerated_exact(q, limit)?.to_f64())
    }

    /// [`ProbDatabase::query_probability_enumerated`] in exact rational
    /// arithmetic.
    ///
    /// # Errors
    /// As [`ProbDatabase::query_probability_enumerated`].
    pub fn query_probability_enumerated_exact(
        &self,
        q: &ConjunctiveQuery,
        limit: usize,
    ) -> Result<BigRational, CoreError> {
        probability_by_enumeration(&self.db, AnyQuery::Cq(q), &self.probs, None, limit)
    }
}

/// Convenience: deterministic-relation names of the wrapped database.
pub fn deterministic_relations(pdb: &ProbDatabase) -> Vec<String> {
    pdb.database().exogenous_relation_names()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
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

    fn with_varied_probs(db: Database) -> ProbDatabase {
        let mut pdb = ProbDatabase::new(db, 0.5);
        // Deterministic-ish spread of probabilities.
        let endo: Vec<FactId> = pdb.database().endo_facts().to_vec();
        for (i, f) in endo.into_iter().enumerate() {
            let p = [0.1, 0.3, 0.5, 0.7, 0.9, 0.25, 0.75, 0.6][i % 8];
            pdb.set_prob(f, p).unwrap();
        }
        pdb
    }

    #[test]
    fn lifted_matches_enumeration_on_running_example() {
        let pdb = with_varied_probs(university());
        for text in [
            "q() :- Stud(x), !TA(x), Reg(x, y)",
            "q() :- Reg(x, y)",
            "q() :- TA(x), Reg(x, y)",
            "q() :- Stud(x), !TA(x)",
            "q() :- Reg(x, 'OS'), !TA(x)",
            "q() :- TA(x), Course(y, 'CS')",
        ] {
            let q = cqshap_query::parse_cq(text).unwrap();
            // Unified path ≡ enumeration ≡ seed oracle, bit-identically.
            let fast = pdb.query_probability_exact(&q).unwrap();
            let slow = pdb.query_probability_enumerated_exact(&q, 20).unwrap();
            assert_eq!(fast, slow, "{text}: unified vs enumerated");
            let oracle =
                reference::oracle_probability(pdb.database(), pdb.probabilities(), &q).unwrap();
            assert_eq!(fast, oracle, "{text}: unified vs seed oracle");
        }
    }

    #[test]
    fn extreme_probabilities() {
        let mut pdb = ProbDatabase::new(university(), 0.5);
        let ta = pdb.database().find_fact("TA", &["Adam"]).unwrap();
        pdb.set_prob(ta, 0.0).unwrap();
        let reg = pdb
            .database()
            .find_fact("Reg", &["Caroline", "DB"])
            .unwrap();
        pdb.set_prob(reg, 1.0).unwrap();
        let q = cqshap_query::parse_cq("q() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        // Reg(Caroline, DB) certain and Caroline is never a TA → P = 1.
        assert!(close(pdb.query_probability(&q).unwrap(), 1.0));
        let q2 = cqshap_query::parse_cq("q() :- TA(x), Reg(x, 'AI')").unwrap();
        let fast = pdb.query_probability_exact(&q2).unwrap();
        let slow = pdb.query_probability_enumerated_exact(&q2, 20).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn theorem_4_10_rewriting() {
        // Example 4.1's query with deterministic Pub and Citations: not
        // hierarchical, but evaluable after rewriting.
        let db = Database::parse(
            "exorel Pub\nexorel Citations\n\
             endo Author(alice, i1)\nendo Author(bob, i2)\nendo Author(carol, i1)\n\
             exo Pub(alice, p1)\nexo Pub(alice, p2)\nexo Pub(bob, p3)\nexo Pub(carol, p4)\n\
             exo Citations(p1, c10)\nexo Citations(p3, c5)\nexo Citations(p4, c2)\n",
        )
        .unwrap();
        let q = cqshap_query::parse_cq("q() :- Author(x, y), Pub(x, z), Citations(z, w)").unwrap();
        let mut pdb = ProbDatabase::new(db, 0.5);
        let alice = pdb
            .database()
            .find_fact("Author", &["alice", "i1"])
            .unwrap();
        pdb.set_prob(alice, 0.9).unwrap();

        assert!(matches!(
            pdb.query_probability(&q),
            Err(CoreError::NotHierarchical { .. })
        ));
        let fast = pdb.query_probability_with_rewriting(&q, 1_000_000).unwrap();
        let slow = pdb.query_probability_enumerated(&q, 20).unwrap();
        assert!(close(fast, slow), "rewritten {fast} vs enumerated {slow}");
    }

    #[test]
    fn negation_with_deterministic_relations() {
        // q2 with deterministic Stud/Course (the Section 4 example).
        let mut db = university();
        for name in ["Stud", "Course", "Adv"] {
            let rel = db.schema().id(name).unwrap();
            db.declare_exogenous_relation(rel).unwrap();
        }
        let q =
            cqshap_query::parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')").unwrap();
        let pdb = with_varied_probs(db);
        let fast = pdb.query_probability_with_rewriting(&q, 1_000_000).unwrap();
        let slow = pdb.query_probability_enumerated(&q, 20).unwrap();
        assert!(close(fast, slow), "rewritten {fast} vs enumerated {slow}");
    }

    #[test]
    fn validation() {
        let mut pdb = ProbDatabase::new(university(), 0.5);
        let exo = pdb.database().find_fact("Stud", &["Adam"]).unwrap();
        assert!(pdb.set_prob(exo, 0.5).is_err());
        let ta = pdb.database().find_fact("TA", &["Adam"]).unwrap();
        assert!(pdb.set_prob(ta, 1.5).is_err());
        assert!(pdb.set_prob(ta, 0.25).is_ok());
        assert!(close(pdb.prob(ta), 0.25));
        assert!(close(pdb.prob(exo), 1.0));
        // f64 probabilities convert exactly: 0.25 is dyadic.
        assert_eq!(pdb.prob_exact(ta), BigRational::from_i64_ratio(1, 4));
    }

    #[test]
    fn vacuous_and_unsatisfiable_atoms() {
        let pdb = ProbDatabase::new(university(), 0.5);
        let q = cqshap_query::parse_cq("q() :- Ghost(x)").unwrap();
        assert!(close(pdb.query_probability(&q).unwrap(), 0.0));
        let q2 = cqshap_query::parse_cq("q() :- !Ghost('a')").unwrap();
        assert!(close(pdb.query_probability(&q2).unwrap(), 1.0));
        // The seed oracle agrees on the degenerate shapes too.
        for text in ["q() :- Ghost(x)", "q() :- !Ghost('a')"] {
            let q = cqshap_query::parse_cq(text).unwrap();
            assert_eq!(
                pdb.query_probability_exact(&q).unwrap(),
                reference::oracle_probability(pdb.database(), pdb.probabilities(), &q).unwrap(),
            );
        }
    }
}
