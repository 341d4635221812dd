//! PAR-BS: parallelism-aware batch scheduling — the successor the STFM
//! paper's future-work section points toward (Mutlu & Moscibroda, ISCA
//! 2008), included as an extension for comparison.
//!
//! Two ideas compose:
//!
//! * **Batching**: when the current batch is exhausted, mark up to
//!   `marking_cap` oldest requests per (thread, bank). Marked requests
//!   strictly outrank unmarked ones, so no thread can starve: every
//!   request is serviced within a bounded number of batches.
//! * **Parallelism-aware ranking**: within a batch, threads are ranked
//!   shortest-job-first by their maximum per-bank marked-request count
//!   (then by total marked requests). Servicing a light thread's requests
//!   across banks *together* preserves its bank-level parallelism instead
//!   of interleaving everyone and serializing everyone's misses.
//!
//! Priority order: marked-first → row-hit-first → higher-ranked-thread
//! first → oldest-first.

use crate::policy::{Rank, SchedQuery, SchedulerPolicy, SystemView};
use crate::request::{Request, RequestId, ThreadId};
use std::collections::{BTreeMap, HashSet};

/// The PAR-BS scheduling policy (extension; not part of the 2007 paper).
#[derive(Debug, Clone)]
pub struct ParBs {
    marking_cap: u32,
    marked: HashSet<RequestId>,
    /// Higher value = higher priority this batch.
    thread_rank: BTreeMap<ThreadId, u64>,
    batches_formed: u64,
}

impl ParBs {
    /// Creates the policy with the ISCA-2008 default marking cap of 5.
    pub fn new() -> Self {
        Self::with_marking_cap(5)
    }

    /// Creates the policy with an explicit per-(thread, bank) marking cap.
    pub fn with_marking_cap(marking_cap: u32) -> Self {
        assert!(marking_cap > 0, "marking cap must be positive");
        ParBs {
            marking_cap,
            marked: HashSet::new(),
            thread_rank: BTreeMap::new(),
            batches_formed: 0,
        }
    }

    /// Batches formed so far (diagnostics).
    pub fn batches_formed(&self) -> u64 {
        self.batches_formed
    }

    /// True if `id` belongs to the current batch.
    pub fn is_marked(&self, id: RequestId) -> bool {
        self.marked.contains(&id)
    }

    fn form_batch(&mut self, sys: &SystemView<'_>) {
        self.marked.clear();
        // Oldest `marking_cap` waiting requests per (thread, channel, bank).
        let mut per_slot: BTreeMap<(ThreadId, u32, u32), Vec<(RequestId, u64)>> = BTreeMap::new();
        for q in sys.channels() {
            for r in q.requests {
                if r.is_waiting() {
                    per_slot
                        .entry((r.thread, q.channel_id.0, r.loc.bank.0))
                        .or_default()
                        .push((r.id, r.id.0));
                }
            }
        }
        // Per-thread load statistics for the shortest-job-first ranking.
        let mut max_bank_load: BTreeMap<ThreadId, u32> = BTreeMap::new();
        let mut total_load: BTreeMap<ThreadId, u32> = BTreeMap::new();
        for ((thread, _, _), mut reqs) in per_slot {
            reqs.sort_by_key(|&(_, age)| age);
            reqs.truncate(self.marking_cap as usize);
            let n = reqs.len() as u32;
            let mbl = max_bank_load.entry(thread).or_insert(0);
            *mbl = (*mbl).max(n);
            *total_load.entry(thread).or_insert(0) += n;
            for (id, _) in reqs {
                self.marked.insert(id);
            }
        }
        // Rank: lighter threads first. Encode as a single descending key.
        self.thread_rank.clear();
        for (&thread, &mbl) in &max_bank_load {
            let total = total_load.get(&thread).copied().unwrap_or(0);
            // Smaller loads → larger rank value.
            let key = (u64::from(u32::MAX - mbl) << 32) | u64::from(u32::MAX - total);
            self.thread_rank.insert(thread, key);
        }
        if !self.marked.is_empty() {
            self.batches_formed += 1;
        }
    }
}

impl Default for ParBs {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulerPolicy for ParBs {
    fn name(&self) -> &'static str {
        "PAR-BS"
    }

    fn rank(&self, req: &Request, q: &SchedQuery<'_>) -> Rank {
        let marked = u64::from(self.marked.contains(&req.id));
        let hit = u64::from(q.is_row_hit(req));
        let rank = self.thread_rank.get(&req.thread).copied().unwrap_or(0);
        // Oldest-first is the controller's built-in tiebreak.
        Rank([(marked << 1) | hit, rank, Rank::older_first(req.id)])
    }

    fn on_dram_cycle(&mut self, sys: &SystemView<'_>) {
        // Drop marks of requests that finished; form a new batch when the
        // current one is exhausted.
        if !self.marked.is_empty() {
            let mut live: HashSet<RequestId> = HashSet::with_capacity(self.marked.len());
            for q in sys.channels() {
                for r in q.requests {
                    if r.is_waiting() && self.marked.contains(&r.id) {
                        live.insert(r.id);
                    }
                }
            }
            self.marked = live;
        }
        if self.marked.is_empty() {
            self.form_batch(sys);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{harness, req_to};

    fn view<'a>(q: crate::policy::SchedQuery<'a>) -> SystemView<'a> {
        SystemView::single(q)
    }

    #[test]
    fn batch_caps_per_thread_bank() {
        let (channel, _) = harness::closed();
        let mut p = ParBs::with_marking_cap(2);
        // Thread 0 floods bank 0 with 5 requests; thread 1 has one.
        let mut requests: Vec<_> = (0..5u64).map(|i| req_to(0, ThreadId(0), 1, 0, i)).collect();
        requests.push(req_to(0, ThreadId(1), 2, 0, 99));
        let q = harness::query(&channel, &requests);
        p.on_dram_cycle(&view(q));
        let marked: Vec<bool> = requests.iter().map(|r| p.is_marked(r.id)).collect();
        assert_eq!(marked, [true, true, false, false, false, true]);
        assert_eq!(p.batches_formed(), 1);
    }

    #[test]
    fn marked_requests_outrank_unmarked_hits() {
        let (channel, _) = harness::open_row(0, 5);
        let mut p = ParBs::with_marking_cap(1);
        let old_miss = req_to(0, ThreadId(0), 9, 0, 1);
        let requests = vec![old_miss.clone()];
        let q = harness::query(&channel, &requests);
        p.on_dram_cycle(&view(q));
        assert!(p.is_marked(old_miss.id));
        // A younger unmarked row hit arrives after batch formation.
        let young_hit = req_to(0, ThreadId(1), 5, 0, 2);
        let requests = vec![old_miss.clone(), young_hit.clone()];
        let q = harness::query(&channel, &requests);
        assert!(
            p.rank(&old_miss, &q) > p.rank(&young_hit, &q),
            "batch boundary must beat row-hit bypass"
        );
    }

    #[test]
    fn lighter_threads_rank_higher() {
        let (channel, _) = harness::closed();
        let mut p = ParBs::new();
        // Thread 0: 4 requests on one bank (heavy). Thread 1: 1 request.
        let mut requests: Vec<_> = (0..4u64).map(|i| req_to(0, ThreadId(0), 1, 0, i)).collect();
        requests.push(req_to(1, ThreadId(1), 3, 0, 50));
        let q = harness::query(&channel, &requests);
        p.on_dram_cycle(&view(q));
        let q = harness::query(&channel, &requests);
        assert!(
            p.rank(&requests[4], &q) > p.rank(&requests[0], &q),
            "shortest job (thread 1) first"
        );
    }

    #[test]
    fn new_batch_forms_when_exhausted() {
        let (channel, _) = harness::closed();
        let mut p = ParBs::new();
        let a = req_to(0, ThreadId(0), 1, 0, 1);
        let requests = [a.clone()];
        p.on_dram_cycle(&view(harness::query(&channel, &requests)));
        assert_eq!(p.batches_formed(), 1);
        // Request got serviced: buffer now holds only a new request.
        let b = req_to(0, ThreadId(0), 2, 0, 7);
        let requests = [b.clone()];
        p.on_dram_cycle(&view(harness::query(&channel, &requests)));
        assert_eq!(p.batches_formed(), 2);
        assert!(p.is_marked(b.id));
    }
}
