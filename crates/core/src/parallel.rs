//! The one scoped-thread fan-out used by the report paths, the
//! compile-stage weight correlations, and (via
//! [`crate::satcount::BruteForceCounter`] / `approx`) every other
//! worker pool in the crate. `clippy.toml`'s `disallowed-methods` pins
//! this file and `poly.rs` as the only places allowed to touch
//! `std::thread` directly (each use carries an `#[expect]`), so
//! [`crate::ShapleyOptions::threads`] is guaranteed to cap every
//! fan-out.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The payload of a worker panic contained by [`try_par_map_with`].
pub(crate) type PanicPayload = Box<dyn Any + Send + 'static>;

/// Maps `f` over `0..n` across worker threads, preserving order, with
/// an explicit worker cap: `threads == 0` means "all available cores,
/// capped at 16", any other value pins the fan-out — the knob behind
/// [`crate::ShapleyOptions::threads`]. Falls back to a plain sequential
/// map for trivial sizes. A worker panic is re-raised on the calling
/// thread with its original payload.
pub(crate) fn par_map_with<T: Send>(
    threads: usize,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    match try_par_map_with(threads, n, f) {
        Ok(out) => out,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// [`par_map_with`] with worker panics *contained*: the first panic
/// payload is returned as `Err` instead of crossing the thread scope,
/// so callers with a no-panic contract (the sampling paths) can report
/// it as a typed error.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned `thread::scope` in the crate"
)]
pub(crate) fn try_par_map_with<T: Send>(
    threads: usize,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, PanicPayload> {
    let threads = resolve_thread_cap(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return catch_unwind(AssertUnwindSafe(|| (0..n).map(&f).collect()));
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Result<Vec<T>, PanicPayload>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let f = &f;
            let lo = t * chunk;
            let hi = (lo + chunk).min(n);
            handles.push(s.spawn(move || (lo..hi).map(f).collect::<Vec<T>>()));
        }
        out = handles.into_iter().map(|h| h.join()).collect();
    });
    let mut flat = Vec::with_capacity(n);
    for chunk in out {
        flat.extend(chunk?);
    }
    Ok(flat)
}

/// Resolves a requested thread count: `0` → available parallelism,
/// capped at 16. Delegates to [`cqshap_numeric::poly::resolve_threads`]
/// so the policy cannot drift between the core fan-outs and the
/// numeric product trees.
pub(crate) fn resolve_thread_cap(threads: usize) -> usize {
    cqshap_numeric::poly::resolve_threads(threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_every_index() {
        for n in [0usize, 1, 2, 17, 100] {
            assert_eq!(
                par_map_with(0, n, |i| i * 2),
                (0..n).map(|i| i * 2).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn explicit_thread_caps_preserve_results() {
        for threads in [0usize, 1, 2, 5] {
            for n in [0usize, 1, 17] {
                assert_eq!(
                    par_map_with(threads, n, |i| i + 1),
                    (0..n).map(|i| i + 1).collect::<Vec<_>>()
                );
            }
        }
        assert_eq!(resolve_thread_cap(3), 3);
        assert!(resolve_thread_cap(0) >= 1);
    }

    #[test]
    fn worker_panics_are_contained_by_try_variant() {
        for threads in [1usize, 4] {
            let r = try_par_map_with(threads, 8, |i| {
                if i == 5 {
                    panic!("boom {i}");
                }
                i
            });
            let payload = r.expect_err("panic must be contained");
            let text = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(text.contains("boom"), "{text}");
        }
    }
}
