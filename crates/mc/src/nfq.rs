//! NFQ: network-fair-queueing memory scheduling (Nesbit et al., MICRO 2006).
//!
//! Implements the FQ-VFTF ("virtual finish-time first") scheme the STFM
//! paper compares against: every (thread, bank) pair carries a virtual
//! finish time; whenever one of the thread's requests is serviced in a
//! bank, that virtual deadline advances by the request's access latency
//! times the number of threads sharing the system (scaled by bandwidth
//! shares when they are unequal). The scheduler services earliest-deadline
//! first, with Nesbit's *priority inversion prevention* optimization: row
//! hits may bypass earlier deadlines, but only until some request in the
//! bank has waited longer than `tRAS`.
//!
//! Deliberately reproduced quirks the STFM paper criticizes:
//!
//! * **Idleness problem** — deadlines are *not* clamped to real time, so a
//!   thread that idles falls behind in virtual time and then captures the
//!   DRAM when it returns, starving continuously active threads.
//! * **Access-balance problem** — deadlines are per bank, so a thread that
//!   concentrates its accesses on few banks accrues deadlines there much
//!   faster than balanced threads and gets deprioritized in exactly the
//!   banks it needs.

use crate::controller::{bank_slot, BANK_SLOTS};
use crate::policy::{Rank, SchedQuery, SchedulerPolicy, SystemView};
use crate::request::{Request, RequestId, ThreadId};
use std::collections::{BTreeMap, BTreeSet};
use stfm_dram::{ChannelId, DramCommand, DramCycle, DramDelta, TimingParams};

/// The NFQ (FQ-VFTF) scheduling policy.
///
/// Per-bank state is indexed by [`bank_slot`], and sets of banks are
/// slot masks.
#[derive(Debug, Clone)]
pub struct Nfq {
    timing: TimingParams,
    /// Virtual finish time per (thread, channel, bank), in scaled DRAM
    /// cycles. Indexed `[thread][slot]` and grown on demand (thread ids
    /// are dense, core-assigned); O(1) lookups on the per-cycle ranking
    /// path instead of hashing a tuple key.
    vft: Vec<[u64; BANK_SLOTS]>,
    /// Bandwidth share per thread (paper Section 7.5's "NFQ-shares").
    shares: BTreeMap<ThreadId, u32>,
    /// Threads that have issued at least one request.
    active: BTreeSet<ThreadId>,
    /// Per-bank earliest-deadline head request and the cycle it became
    /// head, for the priority-inversion-prevention timer.
    bank_heads: [Option<(RequestId, DramCycle)>; BANK_SLOTS],
    /// Banks whose head may have changed since the last cycle hook: an
    /// arrival, a column command or a completion (which moves a
    /// deadline) marks its bank, and the next hook recomputes the heads
    /// of exactly the marked banks. Every bank starts marked.
    stale_heads: u64,
    /// Banks where hit-bypass is currently disabled by the inversion
    /// prevention threshold, refreshed every DRAM cycle.
    blocked_banks: u64,
    /// Banks whose ranks moved since the controller last asked
    /// ([`SchedulerPolicy::take_stale_banks`]): a completion's bank (its
    /// deadline moved) and every bank whose `blocked_banks` bit flipped.
    stale_ranks: u64,
}

impl Nfq {
    /// Creates the policy for devices with timing `timing`.
    pub fn new(timing: TimingParams) -> Self {
        Nfq {
            timing,
            vft: Vec::new(),
            shares: BTreeMap::new(),
            active: BTreeSet::new(),
            bank_heads: [None; BANK_SLOTS],
            stale_heads: u64::MAX,
            blocked_banks: 0,
            stale_ranks: 0,
        }
    }

    /// Sets `thread`'s bandwidth share (default 1). A thread with share `s`
    /// out of a total `S` is budgeted `s/S` of the DRAM bandwidth: its
    /// virtual deadlines advance `S/s` times the service latency.
    pub fn set_share(&mut self, thread: ThreadId, share: u32) {
        assert!(share > 0, "share must be positive");
        self.shares.insert(thread, share);
    }

    /// The share configured for `thread` (default 1).
    pub fn share(&self, thread: ThreadId) -> u32 {
        self.shares.get(&thread).copied().unwrap_or(1)
    }

    fn total_shares(&self) -> u64 {
        self.active
            .iter()
            .map(|t| u64::from(self.share(*t)))
            .sum::<u64>()
            .max(1)
    }

    /// Marks `req`'s bank for a head recomputation at the next cycle hook.
    fn mark_stale(&mut self, req: &Request) {
        self.stale_heads |= 1 << bank_slot(req.loc.channel.0, req.loc.bank.0);
    }

    /// The earliest-deadline waiting request of `bank`: least
    /// `(virtual finish time, id)`.
    fn fresh_head<'a>(&self, q: &SchedQuery<'a>, bank: u32) -> Option<&'a Request> {
        q.waiting_in_bank(bank)
            .min_by_key(|r| (self.virtual_finish_time(r.thread, q.channel_id, bank), r.id))
    }

    /// Debug-build check, every cycle hook: each cached bank head is the
    /// bank's fresh earliest-deadline head.
    #[cfg(debug_assertions)]
    fn audit_heads(&self, sys: &SystemView<'_>) {
        for q in sys.channels() {
            let ch = q.channel_id.0;
            for bank in 0..q.channel.num_banks() {
                assert_eq!(
                    self.bank_heads[bank_slot(ch, bank)].map(|(id, _)| id),
                    self.fresh_head(&q, bank).map(|r| r.id),
                    "cached NFQ head of channel {ch} bank {bank} is stale at {}",
                    sys.now
                );
            }
        }
    }

    /// Current virtual finish time of (thread, channel, bank).
    pub fn virtual_finish_time(&self, thread: ThreadId, channel: ChannelId, bank: u32) -> u64 {
        self.vft
            .get(thread.0 as usize)
            .map_or(0, |slots| slots[bank_slot(channel.0, bank)])
    }
}

impl SchedulerPolicy for Nfq {
    fn name(&self) -> &'static str {
        "NFQ"
    }

    fn rank(&self, req: &Request, q: &SchedQuery<'_>) -> Rank {
        let bank = req.loc.bank.0;
        let bypass_ok = self.blocked_banks >> bank_slot(q.channel_id.0, bank) & 1 == 0;
        let hit = u64::from(bypass_ok && q.is_row_hit(req));
        let deadline = self.virtual_finish_time(req.thread, q.channel_id, bank);
        Rank([hit, u64::MAX - deadline, Rank::older_first(req.id)])
    }

    fn on_dram_cycle(&mut self, sys: &SystemView<'_>) {
        // Priority inversion prevention (Nesbit et al., Section 3.3): row
        // hits may bypass the earliest-virtual-deadline request of a bank
        // only for up to tRAS; once the current head request has been head
        // for longer, the bank falls back to strict deadline order. The
        // timer restarts whenever the head request changes.
        let threshold: DramDelta = self.timing.t_ras;
        let mut blocked = 0u64;
        for q in sys.channels() {
            for bank in 0..q.channel.num_banks() {
                let slot = bank_slot(q.channel_id.0, bank);
                let bit = 1 << slot;
                if self.stale_heads & bit != 0 {
                    self.stale_heads &= !bit;
                    let head = self.fresh_head(&q, bank).map(|r| r.id);
                    let entry = &mut self.bank_heads[slot];
                    match head {
                        None => *entry = None,
                        // Head unchanged: keep its timer.
                        Some(id) if entry.is_some_and(|(old, _)| old == id) => {}
                        Some(id) => *entry = Some((id, sys.now)),
                    }
                }
                if let Some((_, since)) = self.bank_heads[slot] {
                    if sys.now.saturating_since(since) > threshold {
                        blocked |= bit;
                    }
                }
            }
        }
        self.stale_ranks |= self.blocked_banks ^ blocked;
        self.blocked_banks = blocked;
        #[cfg(debug_assertions)]
        self.audit_heads(sys);
    }

    fn take_stale_banks(&mut self) -> u64 {
        std::mem::take(&mut self.stale_ranks)
    }

    fn on_enqueue(&mut self, req: &Request, _tshared: u64) {
        self.active.insert(req.thread);
        self.mark_stale(req);
    }

    fn on_command(&mut self, cmd: &DramCommand, req: &Request, _q: &SchedQuery<'_>) {
        // A column command takes its request off the bank's waiting list.
        if cmd.is_column() {
            self.mark_stale(req);
        }
    }

    fn on_complete(&mut self, req: &Request) {
        // The completion moves the thread's deadline in this bank, and
        // with it the ranks of the thread's requests there.
        let slot = bank_slot(req.loc.channel.0, req.loc.bank.0);
        self.stale_heads |= 1 << slot;
        self.stale_ranks |= 1 << slot;
        let latency: u64 = req
            .category
            .map(|c| c.service_latency(&self.timing))
            .unwrap_or_else(|| self.timing.read_latency())
            .get();
        let scale = self.total_shares() / u64::from(self.share(req.thread)).max(1);
        let t = req.thread.0 as usize;
        if self.vft.len() <= t {
            self.vft.resize(t + 1, [0; BANK_SLOTS]);
        }
        self.vft[t][slot] += latency * scale.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::harness::{self, Queue};
    use crate::test_util::req_to;
    use stfm_dram::AccessCategory;

    fn nfq() -> Nfq {
        Nfq::new(TimingParams::ddr2_800())
    }

    fn complete(p: &mut Nfq, mut req: Request, cat: AccessCategory) {
        req.category = Some(cat);
        p.on_complete(&req);
    }

    use crate::request::Request;

    #[test]
    fn earliest_deadline_wins_when_no_hits() {
        let (channel, _cfg) = harness::closed();
        let mut p = nfq();
        let a = req_to(0, ThreadId(0), 1, 0, 1);
        let b = req_to(0, ThreadId(1), 2, 0, 2);
        p.on_enqueue(&a, 0);
        p.on_enqueue(&b, 0);
        // Thread 0 already consumed service in this bank, which moves the
        // bank's ranks.
        complete(&mut p, req_to(0, ThreadId(0), 1, 0, 0), AccessCategory::Hit);
        assert_eq!(p.take_stale_banks(), 1 << bank_slot(0, 0));
        let queue = Queue::new([a.clone(), b.clone()]);
        let q = queue.query(&channel);
        assert!(
            p.rank(&b, &q) > p.rank(&a, &q),
            "thread with lower VFT wins"
        );
    }

    #[test]
    fn deadline_scales_with_thread_count_and_share() {
        let mut p = nfq();
        for t in 0..4u32 {
            p.on_enqueue(&req_to(0, ThreadId(t), 1, 0, u64::from(t)), 0);
        }
        complete(&mut p, req_to(0, ThreadId(0), 1, 0, 9), AccessCategory::Hit);
        let lat = AccessCategory::Hit.service_latency(&TimingParams::ddr2_800());
        assert_eq!(
            p.virtual_finish_time(ThreadId(0), ChannelId(0), 0),
            lat * 4,
            "equal shares: latency × numThreads"
        );

        let mut p = nfq();
        for t in 0..4u32 {
            p.on_enqueue(&req_to(0, ThreadId(t), 1, 0, u64::from(t)), 0);
        }
        p.set_share(ThreadId(0), 16); // 16 of 19 total shares
        complete(&mut p, req_to(0, ThreadId(0), 1, 0, 9), AccessCategory::Hit);
        assert_eq!(
            p.virtual_finish_time(ThreadId(0), ChannelId(0), 0),
            lat,
            "large share: deadline advances much more slowly"
        );
    }

    #[test]
    fn hit_bypass_disabled_after_head_waits_past_tras() {
        let (channel, _cfg) = harness::open_row(0, 5);
        let mut p = nfq();
        let old_miss = req_to(0, ThreadId(0), 9, 0, 1);
        let young_hit = req_to(0, ThreadId(1), 5, 0, 2);
        let queue = Queue::new([old_miss.clone(), young_hit.clone()]);
        let t_ras = TimingParams::ddr2_800().t_ras;
        let at = |now| SchedQuery {
            now,
            ..queue.query(&channel)
        };

        // Cycle N: old_miss becomes the bank head; bypass still allowed.
        p.on_dram_cycle(&SystemView::new(harness::NOW, &[at(harness::NOW)]));
        let q = queue.query(&channel);
        assert!(
            p.rank(&young_hit, &q) > p.rank(&old_miss, &q),
            "within the tRAS window hits still bypass"
        );
        assert_eq!(p.take_stale_banks(), 0, "no rank moved yet");

        // tRAS + 1 cycles later the bank must be blocked for bypass, and
        // the flip reported.
        let later = harness::NOW + t_ras + 1;
        p.on_dram_cycle(&SystemView::new(later, &[at(later)]));
        assert_eq!(p.take_stale_banks(), 1 << bank_slot(0, 0));
        assert!(
            p.rank(&old_miss, &q) > p.rank(&young_hit, &q),
            "inversion prevention must stop endless hit bypass"
        );
    }

    #[test]
    fn idleness_problem_is_reproduced() {
        // Thread 0 worked for a long time; thread 1 was idle. When thread 1
        // wakes up, its deadline of 0 beats thread 0 everywhere.
        let (channel, _cfg) = harness::closed();
        let mut p = nfq();
        p.on_enqueue(&req_to(0, ThreadId(0), 1, 0, 0), 0);
        p.on_enqueue(&req_to(0, ThreadId(1), 1, 0, 1), 0);
        for i in 0..100 {
            complete(
                &mut p,
                req_to(0, ThreadId(0), 1, 0, 10 + i),
                AccessCategory::Hit,
            );
        }
        let busy = req_to(0, ThreadId(0), 1, 0, 200);
        let woke = req_to(0, ThreadId(1), 2, 0, 201);
        let queue = Queue::new([busy.clone(), woke.clone()]);
        let q = queue.query(&channel);
        assert!(p.rank(&woke, &q) > p.rank(&busy, &q));
    }
}
