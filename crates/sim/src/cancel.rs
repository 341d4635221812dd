//! Cooperative cancellation for simulation runs.
//!
//! A [`CancelToken`] is a cloneable handle shared between the code that
//! *drives* a simulation (a serve worker enforcing a per-cell wall-clock
//! budget, a test aborting a runaway case) and the run loop itself. The
//! loop polls the token at its outer-loop granularity and exits early
//! when the token fires; the partial run is reported as *cancelled*, and
//! nothing downstream (metrics, caches) may treat its statistics as a
//! completed result.
//!
//! Two trigger paths compose:
//!
//! * an explicit [`CancelToken::cancel`] call from any thread (an atomic
//!   flag, checked on every poll), and
//! * an optional **deadline** fixed at construction
//!   ([`CancelToken::with_deadline`] / [`CancelToken::with_timeout`]),
//!   checked sparsely (every [`DEADLINE_POLL_MASK`]+1 polls) because
//!   reading the monotonic clock costs more than an atomic load.
//!
//! The token never interrupts mid-cycle state: cancellation is only
//! observed between DRAM cycles, so the simulator's invariants hold at
//! the exit point and the partially-run `System` can still be inspected.

// Deadlines are this module's job, and the one place the simulator core
// reads the wall clock: the reading decides only *whether* a run is
// abandoned, never a value inside one, and an abandoned run stores nothing.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline checks run once every `DEADLINE_POLL_MASK + 1` polls; the
/// flag is checked on every poll. At simulator tick rates this bounds
/// deadline-detection latency to well under a millisecond of wall time.
pub const DEADLINE_POLL_MASK: u32 = 0x3F;

/// A cloneable cancellation handle for a simulation run.
///
/// Cloning shares the underlying flag: cancelling any clone cancels all
/// of them. The deadline, if any, is fixed at construction and shared by
/// clones.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; fires only via [`CancelToken::cancel`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally fires once `deadline` has passed.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// A token whose deadline is `budget` from now.
    #[must_use]
    pub fn with_timeout(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    /// Does not consult the deadline (this is the cheap per-poll check).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// True when the token has fired: explicitly cancelled, or past its
    /// deadline. Reads the monotonic clock when a deadline is set.
    #[must_use]
    pub fn expired(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                // Latch the deadline into the flag so every later poll
                // (and every clone) takes the cheap path.
                self.cancel();
                true
            }
            _ => false,
        }
    }

    /// The sparse poll used inside run loops: checks the flag every call
    /// and the deadline once every [`DEADLINE_POLL_MASK`]+1 calls.
    /// `polls` is the caller's monotonically increasing poll counter.
    #[must_use]
    pub fn should_stop(&self, polls: u32) -> bool {
        if self.is_cancelled() {
            return true;
        }
        polls & DEADLINE_POLL_MASK == 0 && self.expired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.expired());
        b.cancel();
        assert!(a.is_cancelled());
        assert!(a.expired());
        assert!(a.should_stop(1));
    }

    #[test]
    fn past_deadline_expires_and_latches() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(!t.is_cancelled(), "flag untouched until a deadline check");
        assert!(t.expired());
        assert!(t.is_cancelled(), "deadline latches into the flag");
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!t.expired());
        assert!(!t.should_stop(0));
    }

    #[test]
    fn should_stop_checks_deadline_sparsely() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        // Off-mask polls skip the clock; the masked poll catches it.
        assert!(!t.should_stop(1));
        assert!(t.should_stop(DEADLINE_POLL_MASK + 1));
    }
}
