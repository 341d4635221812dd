//! Cooperative cancellation for simulation runs.
//!
//! A [`CancelToken`] carries a wall-clock deadline from the code that
//! *drives* a simulation (a serve worker enforcing a per-cell budget, a
//! test bounding a runaway case) into the run loop itself. The loop polls
//! the token at its outer-loop granularity and exits early once the
//! deadline has passed; the partial run is reported as *cancelled*, and
//! nothing downstream (metrics, caches) may treat its statistics as a
//! completed result.
//!
//! The deadline is fixed at construction ([`CancelToken::with_deadline`]
//! / [`CancelToken::with_timeout`]) and checked sparsely (every
//! [`DEADLINE_POLL_MASK`]+1 polls) because reading the monotonic clock
//! costs more than a loop iteration.
//!
//! The token never interrupts mid-cycle state: cancellation is only
//! observed between DRAM cycles, so the simulator's invariants hold at
//! the exit point and the partially-run `System` can still be inspected.

// Deadlines are this module's job, and the one place the simulator core
// reads the wall clock: the reading decides only *whether* a run is
// abandoned, never a value inside one, and an abandoned run stores nothing.
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

/// Deadline checks run once every `DEADLINE_POLL_MASK + 1` polls. At
/// simulator tick rates this bounds deadline-detection latency to well
/// under a millisecond of wall time.
pub const DEADLINE_POLL_MASK: u32 = 0x3F;

/// A simulation run's deadline.
#[derive(Debug, Clone, Copy)]
pub struct CancelToken {
    deadline: Instant,
}

impl CancelToken {
    /// A token that fires once `deadline` has passed.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken { deadline }
    }

    /// A token whose deadline is `budget` from now.
    #[must_use]
    pub fn with_timeout(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    /// True once the deadline has passed. Reads the monotonic clock.
    #[must_use]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// The sparse poll used inside run loops: checks the deadline once
    /// every [`DEADLINE_POLL_MASK`]+1 calls. `polls` is the caller's
    /// monotonically increasing poll counter.
    #[must_use]
    pub fn should_stop(&self, polls: u32) -> bool {
        polls & DEADLINE_POLL_MASK == 0 && self.expired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn past_deadline_expires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.expired());
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
