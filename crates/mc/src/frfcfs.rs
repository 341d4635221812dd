//! FR-FCFS: first-ready, first-come-first-serve (Rixner et al.).
//!
//! The paper's baseline (Section 2.4): ready column accesses over ready row
//! accesses, then older requests over younger. Thread-oblivious, maximizes
//! row-buffer hit rate and therefore DRAM throughput — and, as the paper
//! shows, starves threads with poor row-buffer locality.

use crate::policy::{Rank, SchedQuery, SchedulerPolicy};
use crate::request::Request;

/// The FR-FCFS scheduling policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrFcfs;

impl FrFcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        FrFcfs
    }

    /// The FR-FCFS rank of a request, reused by schedulers that fall back
    /// to FR-FCFS ordering (FR-FCFS+Cap, STFM's throughput rule).
    #[inline]
    pub fn base_rank(req: &Request, q: &SchedQuery<'_>) -> Rank {
        let hit = u64::from(q.is_row_hit(req));
        Rank([hit, Rank::older_first(req.id), 0])
    }
}

impl SchedulerPolicy for FrFcfs {
    fn name(&self) -> &'static str {
        "FR-FCFS"
    }

    fn rank(&self, req: &Request, q: &SchedQuery<'_>) -> Rank {
        Self::base_rank(req, q)
    }

    fn decision_epoch(&self) -> Option<u64> {
        // Ranks depend only on the request and bank state, never on
        // internal policy state: decisions carry across any span.
        Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ThreadId;
    use crate::test_util::{harness, req_to};

    #[test]
    fn row_hits_beat_older_row_misses() {
        let (channel, _cfg) = harness::open_row(0, 5);
        let old_miss = req_to(0, ThreadId(0), 9, 0, 1); // row 9, id 1
        let young_hit = req_to(0, ThreadId(1), 5, 0, 2); // row 5, id 2
        let requests = [old_miss.clone(), young_hit.clone()];
        let q = harness::query(&channel, &requests);
        let p = FrFcfs::new();
        assert!(p.rank(&young_hit, &q) > p.rank(&old_miss, &q));
    }

    #[test]
    fn among_hits_older_wins() {
        let (channel, _cfg) = harness::open_row(0, 5);
        let a = req_to(0, ThreadId(0), 5, 0, 1);
        let b = req_to(0, ThreadId(1), 5, 1, 2);
        let requests = [a.clone(), b.clone()];
        let q = harness::query(&channel, &requests);
        let p = FrFcfs::new();
        assert!(p.rank(&a, &q) > p.rank(&b, &q));
    }
}
