//! Cooperative cancellation for long-running exact computation.
//!
//! The counting engines' worst cases are genuinely exponential (the
//! paper's point: negation makes exact Shapley `FP^{#P}`-hard for most
//! CQ¬s), so every expensive loop in the workspace — product trees,
//! NTT prime passes, world enumerations, per-fact report fan-outs —
//! periodically consults a shared [`CancelToken`]. The token combines
//! a sticky atomic flag, an optional wall-clock deadline, and an
//! optional work-unit cap ([`Budget`]); once any of them trips, every
//! holder of a clone observes cancellation at its next checkpoint.
//!
//! Cancellation is *cooperative*: a kernel that finds the token tripped
//! stops doing work and returns [`crate::NumericError::Cancelled`] — it
//! never hands back a partial or placeholder value. The owning engine
//! converts that error into its own type (the core crate's
//! `CoreError::DeadlineExceeded`). Tokens are cheap to clone (one `Arc`)
//! and sound to share across scoped worker threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Nanoseconds since the process-wide epoch (first use). Monotonic, and
/// comfortably outlives any session: `u64` nanoseconds cover ~584 years.
// The deadline module owns the one sanctioned wall-clock read.
#[allow(clippy::disallowed_methods)]
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An elapsed-time measurement anchored to the same process-wide
/// monotonic epoch as the deadline machinery. This is the sanctioned
/// way for library code to measure durations — the `no-wall-clock`
/// lint rule confines `Instant::now` to the deadline modules, so
/// callers that merely want an `elapsed` reading (the anytime sampler,
/// progress reporting) start a `Stopwatch` instead.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start_ns: u64,
}

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        Stopwatch { start_ns: now_ns() }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(now_ns().saturating_sub(self.start_ns))
    }
}

/// Sentinel for "no deadline" / "no work cap".
const NONE: u64 = u64::MAX;

#[derive(Debug)]
struct Inner {
    /// Sticky: set by [`CancelToken::cancel`], a passed deadline, or an
    /// exhausted work cap; cleared only by [`CancelToken::rearm`].
    cancelled: AtomicBool,
    /// Absolute deadline in [`now_ns`] time ([`NONE`] = unbounded).
    deadline_ns: AtomicU64,
    /// When the current budget was armed, for elapsed-time reporting.
    armed_ns: AtomicU64,
    /// Work units charged since the last arm.
    work: AtomicU64,
    /// Work-unit cap ([`NONE`] = unbounded).
    work_cap: AtomicU64,
}

/// A shared cooperative cancellation token: sticky flag + optional
/// wall-clock deadline + optional work-unit cap. Clones share state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that never trips on its own (it can still be
    /// [`CancelToken::cancel`]led explicitly).
    pub fn unlimited() -> Self {
        Self::new(None, None)
    }

    /// A token armed with the given wall-clock and work-unit budgets.
    pub fn new(wall: Option<Duration>, work: Option<u64>) -> Self {
        let token = CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline_ns: AtomicU64::new(NONE),
                armed_ns: AtomicU64::new(0),
                work: AtomicU64::new(0),
                work_cap: AtomicU64::new(NONE),
            }),
        };
        token.rearm(wall, work);
        token
    }

    /// Re-arms the token with a fresh budget: clears the sticky flag,
    /// zeroes the work counter, and restarts the wall clock. Engines
    /// keep one token for their whole lifetime and re-arm it at every
    /// public entry point, so a deadline always measures *this* call.
    pub fn rearm(&self, wall: Option<Duration>, work: Option<u64>) {
        let now = now_ns();
        let deadline = match wall {
            Some(d) => now.saturating_add(d.as_nanos().min(u128::from(NONE - 1)) as u64),
            None => NONE,
        };
        self.inner.armed_ns.store(now, Ordering::Relaxed);
        self.inner.deadline_ns.store(deadline, Ordering::Relaxed);
        self.inner.work.store(0, Ordering::Relaxed);
        self.inner
            .work_cap
            .store(work.unwrap_or(NONE), Ordering::Relaxed);
        self.inner.cancelled.store(false, Ordering::Release);
    }

    /// Trips the token explicitly (sticky until the next
    /// [`CancelToken::rearm`]).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Has the token tripped? Checks the sticky flag first, then the
    /// wall-clock deadline (tripping the flag on expiry so subsequent
    /// checks are flag-only).
    pub fn should_stop(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        let deadline = self.inner.deadline_ns.load(Ordering::Relaxed);
        if deadline != NONE && now_ns() >= deadline {
            self.cancel();
            return true;
        }
        false
    }

    /// Charges `units` of work against the budget and reports whether
    /// the computation should stop. Called at group/convolution
    /// granularity — each charge covers a meaningful chunk of work, so
    /// the `Instant` read in the deadline check stays negligible.
    pub fn charge(&self, units: u64) -> bool {
        let done = self.inner.work.fetch_add(units, Ordering::Relaxed) + units;
        if done > self.inner.work_cap.load(Ordering::Relaxed) {
            self.cancel();
            return true;
        }
        self.should_stop()
    }

    /// Wall-clock time since the last [`CancelToken::rearm`].
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(now_ns().saturating_sub(self.inner.armed_ns.load(Ordering::Relaxed)))
    }

    /// Work units charged since the last [`CancelToken::rearm`].
    pub fn work_done(&self) -> u64 {
        self.inner.work.load(Ordering::Relaxed)
    }

    /// Is this token budget-free (no deadline, no cap, not tripped)?
    /// Hot loops may skip checkpoint bookkeeping entirely when true.
    pub fn is_unlimited(&self) -> bool {
        self.inner.deadline_ns.load(Ordering::Relaxed) == NONE
            && self.inner.work_cap.load(Ordering::Relaxed) == NONE
            && !self.inner.cancelled.load(Ordering::Acquire)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// A caller-supplied resource budget: optional wall-clock deadline plus
/// optional work-unit cap. `Copy`, so it rides along inside options
/// structs; [`Budget::token`] / [`CancelToken::rearm`] turn it into the
/// shared token the kernels actually poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Wall-clock budget per top-level call (`None` = unbounded).
    pub wall: Option<Duration>,
    /// Work-unit budget per top-level call (`None` = unbounded). Units
    /// are engine-defined (recursion nodes, worlds, convolutions) —
    /// a deterministic cap for tests and fairness, not a time proxy.
    pub work: Option<u64>,
}

impl Budget {
    /// No limits at all.
    pub const UNLIMITED: Budget = Budget {
        wall: None,
        work: None,
    };

    /// A wall-clock-only budget of `ms` milliseconds.
    pub fn wall_ms(ms: u64) -> Budget {
        Budget {
            wall: Some(Duration::from_millis(ms)),
            work: None,
        }
    }

    /// A work-unit-only budget.
    pub fn work_units(units: u64) -> Budget {
        Budget {
            wall: None,
            work: Some(units),
        }
    }

    /// Is this budget unbounded in both dimensions?
    pub fn is_unlimited(&self) -> bool {
        self.wall.is_none() && self.work.is_none()
    }

    /// A fresh token armed with this budget.
    pub fn token(&self) -> CancelToken {
        CancelToken::new(self.wall, self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_token_never_trips() {
        let t = CancelToken::unlimited();
        assert!(!t.should_stop());
        assert!(!t.charge(1 << 40));
        assert!(t.is_unlimited());
    }

    #[test]
    fn explicit_cancel_is_sticky_until_rearm() {
        let t = CancelToken::unlimited();
        t.cancel();
        assert!(t.should_stop());
        assert!(t.should_stop());
        t.rearm(None, None);
        assert!(!t.should_stop());
    }

    #[test]
    fn work_cap_trips_after_budget() {
        let t = Budget::work_units(10).token();
        assert!(!t.charge(4));
        assert!(!t.charge(4));
        assert!(t.charge(4)); // 12 > 10
        assert!(t.should_stop());
        assert_eq!(t.work_done(), 12);
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let t = Budget {
            wall: Some(Duration::ZERO),
            work: None,
        }
        .token();
        assert!(t.should_stop());
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::unlimited();
        let u = t.clone();
        t.cancel();
        assert!(u.should_stop());
        u.rearm(None, Some(5));
        assert!(!t.should_stop());
        assert!(t.charge(6));
        assert!(u.should_stop());
    }
}
