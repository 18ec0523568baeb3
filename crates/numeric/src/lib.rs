//! Exact arbitrary-precision arithmetic for `cqshap`.
//!
//! Shapley values of database facts are exact rational numbers whose
//! numerators and denominators involve factorials of the number of
//! endogenous facts (e.g. `-3/28` in the paper's running example, or
//! `n!·n!/(2n+1)!` in the gap-property construction of Theorem 5.1).
//! Floating point is far too lossy for the paper's identities — the whole
//! point of several experiments is to verify *exact* equalities — so this
//! crate provides:
//!
//! * [`BigUint`] — arbitrary-precision unsigned integers,
//! * [`BigInt`] — signed integers,
//! * [`BigRational`] — normalized rationals,
//! * [`FactorialTable`], [`ShapleyWeights`], [`LcmDenominator`] and
//!   [`binomial`] — exact combinatorics,
//! * [`poly`] — fast polynomial arithmetic over `BigUint` coefficient
//!   vectors: shape-dispatched multiplication (schoolbook below
//!   [`poly::KARATSUBA_MIN`] = 24 coefficients, then a work model
//!   choosing between schoolbook, Karatsuba, and a multi-prime NTT
//!   with CRT reconstruction), exact division, Pascal `[1, 1]` shifts,
//!   and parallel product / leave-one-out trees — the convolution
//!   subsystem behind the counting engines' `m ≥ 4096` regime,
//! * [`linalg`] — exact Gaussian elimination over the rationals, used to
//!   solve the linear-equation system of Lemma B.3.
//!
//! Scalar integer arithmetic stays simple (values `< 2^128` are stored
//! inline; larger ones use schoolbook limb multiplication,
//! shift–subtract division, binary GCD): individual magnitudes are a
//! few thousand bits, where the wins live in the *polynomial* layer —
//! [`poly`]'s sub-quadratic convolutions over whole coefficient
//! vectors — rather than in any single big-integer product.

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

pub mod bigint;
pub mod biguint;
pub mod cancel;
pub mod combinatorics;
pub mod error;
pub mod linalg;
pub mod poly;
pub mod rational;

pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use cancel::{Budget, CancelToken, Stopwatch};
pub use combinatorics::{
    binomial, factorial, BinomialCache, FactorialTable, LcmDenominator, ShapleyWeights,
};
pub use error::NumericError;
pub use linalg::RationalMatrix;
pub use rational::BigRational;
