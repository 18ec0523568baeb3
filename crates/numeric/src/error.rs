//! Typed errors for the numeric kernels.
//!
//! The crate's arithmetic is total almost everywhere; the exceptions
//! live in the NTT backend, whose transform length and prime supply are
//! bounded, and in the cancellable product trees. The fallible entry
//! points ([`crate::poly::try_mul_with`]) surface the NTT bounds as
//! values instead of panics, and the infallible ones fall back to
//! Karatsuba, which has no such limits. A tree handed a tripped
//! [`crate::CancelToken`] returns [`NumericError::Cancelled`].

use std::fmt;

/// A numeric kernel refused an input it cannot handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NumericError {
    /// The requested convolution is longer than the NTT's `2^22`
    /// transform bound (the two-adicity baked into the prime pool).
    NttLengthExceeded {
        /// The would-be result length `a.len() + b.len() − 1`.
        out_len: usize,
        /// The largest supported result length.
        max_len: usize,
    },
    /// The NTT prime scan ran out of 63-bit candidates before finding
    /// enough primes for the requested CRT capacity.
    PrimePoolExhausted {
        /// How many primes the convolution needed.
        requested: usize,
        /// How many the pool could supply.
        available: usize,
    },
    /// The caller's [`crate::CancelToken`] tripped before the kernel
    /// finished; no partial result is returned.
    Cancelled,
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::NttLengthExceeded { out_len, max_len } => write!(
                f,
                "NTT result length {out_len} exceeds the {max_len} transform bound"
            ),
            NumericError::PrimePoolExhausted {
                requested,
                available,
            } => write!(
                f,
                "NTT prime pool exhausted: {requested} primes requested, {available} available"
            ),
            NumericError::Cancelled => write!(f, "cancelled by the caller's token"),
        }
    }
}

impl std::error::Error for NumericError {}
