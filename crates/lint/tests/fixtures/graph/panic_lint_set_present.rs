//! Fixture: a panic-free crate root that denies the whole panic lint
//! set in library code. Expected: 0 findings.

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

pub fn api() -> u8 {
    0
}
