//! Experiment harness and benchmarks for the `cqshap` reproduction.
//!
//! The `harness` binary regenerates the experiment tables E1–E14 (its
//! `experiments` list names the paper result each one reproduces); the
//! `benches/` directory holds the Criterion timing benchmarks of the
//! kernels the `perfbench` end-to-end benchmark does not reach.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod table;

pub use table::Table;
