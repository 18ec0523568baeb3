//! Relational substrate for `cqshap`.
//!
//! The paper's data model (Section 2): a database `D` is a finite set of
//! facts over a relational schema, partitioned into *exogenous* facts `Dx`
//! (taken as given, never hypothesized away) and *endogenous* facts `Dn`
//! (the players of the Shapley cooperative game). Section 4 additionally
//! fixes a set `X` of *exogenous relations* that may only contain exogenous
//! facts.
//!
//! This crate provides:
//!
//! * [`Interner`] — constants are interned strings ([`ConstId`]);
//! * [`Schema`] / [`RelId`] — relation symbols with fixed arities;
//! * [`Database`] — fact storage with the endogenous/exogenous partition,
//!   exogenous-relation declarations, membership indexes, and
//!   modified-copy helpers used by the Shapley reduction;
//! * [`World`] / [`BitSet`] — subsets `E ⊆ Dn` as compact bitsets;
//! * [`FactMask`] — zero-copy single-fact modified views (`D ∖ {f}`,
//!   `f` exogenized) that replace per-fact database clones in the
//!   Shapley reduction;
//! * [`complement`] — active-domain complement materialization (used by
//!   the `ExoShap` rewriting and several hardness proofs);
//! * a line-oriented text format for databases (`Database::parse`).

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

pub mod bitset;
pub mod complement;
pub mod database;
pub mod error;
pub mod fact;
pub mod interner;
pub mod mask;
pub mod parser;
pub mod schema;
pub mod world;

pub use bitset::BitSet;
pub use database::Database;
pub use error::DbError;
pub use fact::{Fact, FactId, Provenance, Tuple};
pub use interner::{ConstId, Interner};
pub use mask::FactMask;
pub use schema::{RelId, RelationDef, Schema};
pub use world::World;
