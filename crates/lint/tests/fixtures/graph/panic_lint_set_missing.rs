//! Fixture: a panic-free crate root whose deny line lost the indexing
//! lint. Expected: 1 × `panic-lint-set` naming it.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::string_slice
    )
)]

pub fn api() -> u8 {
    0
}
