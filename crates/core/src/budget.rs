//! Deadline/budget plumbing for the exact engines.
//!
//! The resource types themselves ([`Budget`], [`CancelToken`]) live in
//! `cqshap-numeric` so the polynomial kernels can poll the same token
//! the engines arm; this module re-exports them and provides the one
//! core-side convention: converting a tripped token into
//! [`CoreError::DeadlineExceeded`] with a named pipeline phase.
//!
//! Every long-running loop in the crate calls the crate-private
//! `check` at group/convolution granularity. The polynomial kernels
//! poll the same token and return `NumericError::Cancelled` when it
//! trips; `tripped` turns that into the same error a checkpoint raises,
//! so a cancelled kernel never yields a value.
//!
//! Only an entry point arms a token from the options' budget — a
//! [`crate::ShapleySession`] method (by re-arming the session's token)
//! or a free top-level function — and everything below it receives that
//! one token, so a budget bounds the whole call.
//!
//! Phase labels are the `&'static str` keys of [`cqshap_obs::phase`],
//! so a `DeadlineExceeded { phase }` error and the observability spans
//! name the same moment identically, and every trip emits a
//! `deadline.trip` event to the installed recorder.

pub use cqshap_numeric::cancel::{Budget, CancelToken, Stopwatch};
use cqshap_numeric::NumericError;

use crate::error::CoreError;

/// Converts a tripped `token` into [`CoreError::DeadlineExceeded`];
/// `Ok(())` while the budget holds. Batched phases that hold finished
/// answers attach them afterwards with
/// [`CoreError::with_partial_answers`].
pub(crate) fn check(token: &CancelToken, phase: &'static str) -> Result<(), CoreError> {
    if token.should_stop() {
        return Err(deadline(token, phase));
    }
    Ok(())
}

/// The error of a kernel that reported `err` while polling `token` in
/// `phase`: [`CoreError::DeadlineExceeded`] for a cancellation (with the
/// same trace event as [`check`]), [`CoreError::Unsupported`] for any
/// other refusal.
pub(crate) fn tripped(
    err: NumericError,
    token: Option<&CancelToken>,
    phase: &'static str,
) -> CoreError {
    match (err, token) {
        (NumericError::Cancelled, Some(token)) => deadline(token, phase),
        (other, _) => CoreError::Unsupported(other.to_string()),
    }
}

/// Emits the `deadline.trip` event for `phase` and builds its error.
pub(crate) fn deadline(token: &CancelToken, phase: &'static str) -> CoreError {
    cqshap_obs::event(cqshap_obs::phase::EV_DEADLINE_TRIP, phase);
    CoreError::DeadlineExceeded {
        phase: phase.to_string(),
        elapsed: token.elapsed(),
        partial: None,
    }
}
