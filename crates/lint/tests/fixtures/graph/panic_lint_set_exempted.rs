//! Fixture: a panic-free crate root that denies the whole panic lint
//! set, then exempts the whole crate from the indexing lint.
//! Expected: 1 × `panic-lint-set` at the exemption.

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
#![expect(clippy::indexing_slicing, reason = "kernels index by construction")]

pub fn api(v: &[u8]) -> u8 {
    v[0]
}
