//! FCFS: plain first-come-first-serve over ready commands.
//!
//! The simplest "fair" policy the paper compares against (Section 4): it
//! ignores the row-buffer state entirely, so it sacrifices DRAM throughput,
//! and it still implicitly favors memory-intensive threads whose requests
//! dominate the front of the queue.

use crate::policy::{Rank, SchedQuery, SchedulerPolicy};
use crate::request::Request;

/// The FCFS scheduling policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Fcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        Fcfs
    }
}

impl SchedulerPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn rank(&self, req: &Request, _q: &SchedQuery<'_>) -> Rank {
        Rank([Rank::older_first(req.id), 0, 0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ThreadId;
    use crate::test_util::harness::{self, Queue};
    use crate::test_util::req_to;

    #[test]
    fn oldest_wins_even_against_row_hit() {
        let (channel, _cfg) = harness::open_row(0, 5);
        let old_miss = req_to(0, ThreadId(0), 9, 0, 1);
        let young_hit = req_to(0, ThreadId(1), 5, 0, 2);
        let queue = Queue::new([old_miss.clone(), young_hit.clone()]);
        let q = queue.query(&channel);
        let p = Fcfs::new();
        assert!(p.rank(&old_miss, &q) > p.rank(&young_hit, &q));
    }
}
