//! Experiment harness and benchmarks for the `cqshap` reproduction.
//!
//! The `harness` binary regenerates the experiment tables E1–E14 (its
//! `experiments` list names the paper result each one reproduces) and
//! runs the `bench-report` perf trackers; the `benches/` directory holds
//! the matching Criterion timing benchmarks.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod table;

pub use table::Table;
