//! Query evaluation for `cqshap`.
//!
//! The Shapley framework evaluates a Boolean query `q` over worlds
//! `Dx ∪ E` for subsets `E ⊆ Dn` (Section 2 of the paper). This crate
//! provides:
//!
//! * [`satisfies`] / [`satisfies_union`] — Boolean satisfaction of a
//!   CQ¬ / UCQ¬ over a [`World`](cqshap_db::World);
//! * [`for_each_positive_homomorphism`] — enumeration of homomorphisms of
//!   the *positive part* of a query, the workhorse of the relevance
//!   algorithms (Algorithms 2 and 3) and of aggregate answer enumeration;
//! * [`answers`] — distinct head-tuples over a world, for the aggregate
//!   extension (the "Remarks" of Section 3);
//! * [`CompiledQuery`] — a query resolved against a database's schema
//!   and interner once, reusable across many worlds (brute force and
//!   Monte-Carlo sampling evaluate thousands of worlds per query).
//!
//! ## The indexed join
//!
//! Compilation fixes a greedy join order for the positive atoms and
//! builds one hash index per atom, so evaluation never scans a relation:
//!
//! * a **positive atom** is keyed by the values of the columns whose
//!   variables earlier atoms in the join order bind. Its constant
//!   columns, and the repeats of a variable within the atom (`E(x, x)`),
//!   are filtered once at compile time, so a probe returns exactly the
//!   matching facts;
//! * a **negative atom** is keyed by its whole ground tuple, probed once
//!   all its variables are bound. It is filled into one reused buffer.
//!
//! Every indexed row carries its fact id, the values it binds, and the
//! fact's endogenous position (or an exogenous marker), so whether a
//! world sees a fact is one bit test. Rows sharing a key keep
//! [`Database::relation_facts`](cqshap_db::Database::relation_facts)
//! order. Homomorphisms are therefore enumerated in the same order as a
//! nested scan of each relation would find them, and relevance
//! witnesses, aggregate candidates and `ExoShap` joins do not depend on
//! the index.
//!
//! The indexes are a snapshot of the database: a [`CompiledQuery`] is
//! valid only for the database state it was compiled against. Compile
//! again after inserting, retracting or re-labelling a fact (debug
//! builds assert that the fact and endogenous counts still agree).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod compile;
pub mod eval;
mod index;

pub use compile::{CompiledQuery, CompiledUnion};
pub use eval::{
    answers, for_each_positive_homomorphism, satisfies, satisfies_compiled, satisfies_union,
    FactScope, PositiveMatch,
};
