//! The crate's one sanctioned wall-clock read.
//!
//! Mirrors the epoch pattern of `cqshap-numeric::cancel`: a
//! process-wide monotonic anchor initialized on first use, so every
//! reading is a plain `u64` nanosecond offset that spans can subtract
//! without touching `Instant` arithmetic. `clippy.toml`'s
//! `disallowed-methods` sanctions exactly this read (an `#[expect]`
//! below); everything else in the workspace measures through
//! `cancel::Stopwatch` or this function.
//!
//! The module also counts its reads ([`reads`]), which is what lets the
//! disabled-path test pin the contract "no recorder installed ⇒ no
//! wall-clock read".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static READS: AtomicU64 = AtomicU64::new(0);

/// Monotonic nanoseconds since the first obs clock read of the
/// process. Saturates at `u64::MAX` (≈ 584 years of uptime).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    READS.fetch_add(1, Ordering::Relaxed);
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned `Instant::now` of the crate: every span timestamp flows through it"
    )]
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How many wall-clock reads [`now_ns`] has served so far. A span
/// created while no recorder is installed performs none — the
/// disabled-path test asserts this stays flat.
pub fn reads() -> u64 {
    READS.load(Ordering::Relaxed)
}
