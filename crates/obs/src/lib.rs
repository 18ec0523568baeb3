//! First-party observability for the `cqshap` engines: tracing spans,
//! metrics, and per-phase profiling with no dependencies and a
//! near-zero disabled cost.
//!
//! The crate sits at the very bottom of the workspace (below even
//! `cqshap-numeric`), so every layer — the polynomial kernels, the
//! compiled engines, the session, the tier ladder — can emit signals
//! through one mechanism:
//!
//! | API | Purpose | Disabled cost |
//! |---|---|---|
//! | [`Span::enter`] | RAII phase timing over a thread-local stack | one relaxed atomic load |
//! | [`Counter::add`] | lock-free named tally, locally readable | one load + one local `fetch_add` |
//! | [`Histogram::record`] | log₂-bucketed value distribution | one load + one local `fetch_add` |
//! | [`event`] | discrete decision with dynamic detail | one relaxed atomic load |
//!
//! Signals flow to a process-wide [`Recorder`] sink installed once via
//! [`install`] (or the batteries-included [`install_trace`], which
//! installs the aggregating [`TraceRecorder`] behind
//! `TRACE_report.json`). With no recorder installed — the default —
//! every entry point bails after a single relaxed atomic load: spans
//! never touch the clock or the stack, and nothing allocates.
//!
//! Phase names are `&'static str` keys from [`phase`], shared with the
//! deadline machinery (`cqshap-core`'s `budget::check`) so a
//! `DeadlineExceeded { phase }` error and the trace spans name the same
//! phase identically. Hot loops therefore never build a label string.
//!
//! Wall-clock reads happen in exactly one place, [`clock::now_ns`] —
//! the obs-side analogue of `cqshap-numeric::cancel`'s epoch — which
//! the clock discipline (`disallowed-methods` in `clippy.toml`)
//! sanctions explicitly.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
mod metrics;
pub mod phase;
mod recorder;
mod span;
mod trace;

pub use metrics::{Counter, Histogram};
pub use recorder::{
    counter, enabled, event, histogram, install, install_trace, AlreadyInstalled, Recorder,
};
pub use span::{span_current, span_depth, Span};
pub use trace::{TraceMeta, TraceRecorder};
