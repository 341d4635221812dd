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

use crate::policy::{Rank, SchedQuery, SchedulerPolicy, SystemView};
use crate::request::{Request, ThreadId};
use std::collections::{BTreeMap, BTreeSet};
use stfm_dram::{ChannelId, DramCycle, DramDelta, TimingParams};

/// Per-channel stride of the flat (channel, bank) slot space used by the
/// virtual-finish-time table; banks per channel stay well below this.
const VFT_STRIDE: usize = 64;

/// The NFQ (FQ-VFTF) scheduling policy.
#[derive(Debug, Clone)]
pub struct Nfq {
    timing: TimingParams,
    /// Virtual finish time per (thread, channel, bank), in scaled DRAM
    /// cycles. Indexed `[thread][channel * VFT_STRIDE + bank]` and grown
    /// on demand (thread ids are dense, core-assigned); O(1) lookups on
    /// the per-cycle ranking path instead of hashing a tuple key.
    vft: Vec<Vec<u64>>,
    /// Bandwidth share per thread (paper Section 7.5's "NFQ-shares").
    shares: BTreeMap<ThreadId, u32>,
    /// Threads that have issued at least one request.
    active: BTreeSet<ThreadId>,
    /// Per-bank earliest-deadline head request and the cycle it became
    /// head, for the priority-inversion-prevention timer; indexed
    /// `[channel][bank]`, grown on demand.
    bank_heads: Vec<Vec<Option<(crate::request::RequestId, DramCycle)>>>,
    /// Banks where hit-bypass is currently disabled by the inversion
    /// prevention threshold; one bank bitmask per channel, refreshed
    /// every DRAM cycle (banks per channel stay below 64).
    blocked_banks: Vec<u64>,
}

impl Nfq {
    /// Creates the policy for devices with timing `timing`.
    pub fn new(timing: TimingParams) -> Self {
        Nfq {
            timing,
            vft: Vec::new(),
            shares: BTreeMap::new(),
            active: BTreeSet::new(),
            bank_heads: Vec::new(),
            blocked_banks: Vec::new(),
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

    /// Current virtual finish time of (thread, channel, bank).
    pub fn virtual_finish_time(&self, thread: ThreadId, channel: ChannelId, bank: u32) -> u64 {
        debug_assert!((bank as usize) < VFT_STRIDE);
        let slot = channel.0 as usize * VFT_STRIDE + bank as usize;
        self.vft
            .get(thread.0 as usize)
            .and_then(|slots| slots.get(slot).copied())
            .unwrap_or(0)
    }
}

impl SchedulerPolicy for Nfq {
    fn name(&self) -> &'static str {
        "NFQ"
    }

    fn rank(&self, req: &Request, q: &SchedQuery<'_>) -> Rank {
        let bank = req.loc.bank.0;
        let bypass_ok = self
            .blocked_banks
            .get(q.channel_id.0 as usize)
            .is_none_or(|m| m >> bank & 1 == 0);
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
        for mask in &mut self.blocked_banks {
            *mask = 0;
        }
        let threshold: DramDelta = self.timing.t_ras;
        for q in sys.channels() {
            let ch = q.channel_id.0 as usize;
            let banks = q.channel.num_banks() as usize;
            debug_assert!(banks <= 64);
            if self.blocked_banks.len() <= ch {
                self.blocked_banks.resize(ch + 1, 0);
            }
            if self.bank_heads.len() <= ch {
                self.bank_heads.resize(ch + 1, Vec::new());
            }
            if self.bank_heads[ch].len() < banks {
                self.bank_heads[ch].resize(banks, None);
            }
            for bank in 0..q.channel.num_banks() {
                let head = q
                    .waiting_in_bank(bank)
                    .min_by_key(|r| (self.virtual_finish_time(r.thread, q.channel_id, bank), r.id));
                let slot = &mut self.bank_heads[ch][bank as usize];
                match head {
                    None => *slot = None,
                    Some(r) => {
                        let since = match *slot {
                            // Head unchanged: keep its timer (the
                            // steady-state case needs no rewrite).
                            Some((id, since)) if id == r.id => since,
                            _ => {
                                *slot = Some((r.id, sys.now));
                                sys.now
                            }
                        };
                        if sys.now.saturating_since(since) > threshold {
                            self.blocked_banks[ch] |= 1 << bank;
                        }
                    }
                }
            }
        }
    }

    fn on_enqueue(&mut self, req: &Request, _tshared: u64) {
        self.active.insert(req.thread);
    }

    fn on_complete(&mut self, req: &Request) {
        let latency: u64 = req
            .category
            .map(|c| c.service_latency(&self.timing))
            .unwrap_or_else(|| self.timing.read_latency())
            .get();
        let scale = self.total_shares() / u64::from(self.share(req.thread)).max(1);
        debug_assert!((req.loc.bank.0 as usize) < VFT_STRIDE);
        let slot = req.loc.channel.0 as usize * VFT_STRIDE + req.loc.bank.0 as usize;
        let t = req.thread.0 as usize;
        if self.vft.len() <= t {
            self.vft.resize(t + 1, Vec::new());
        }
        let slots = &mut self.vft[t];
        if slots.len() <= slot {
            slots.resize(slot + 1, 0);
        }
        slots[slot] += latency * scale.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{harness, req_to};
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
        // Thread 0 already consumed service in this bank.
        complete(&mut p, req_to(0, ThreadId(0), 1, 0, 0), AccessCategory::Hit);
        let requests = [a.clone(), b.clone()];
        let q = harness::query(&channel, &requests);
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
        let requests = [old_miss.clone(), young_hit.clone()];
        let t_ras = TimingParams::ddr2_800().t_ras;

        // Cycle N: old_miss becomes the bank head; bypass still allowed.
        let mk = |now| SystemView::single(stfm_mc_sched_query(&channel, &requests, now));
        p.on_dram_cycle(&mk(harness::NOW));
        let q = harness::query(&channel, &requests);
        assert!(
            p.rank(&young_hit, &q) > p.rank(&old_miss, &q),
            "within the tRAS window hits still bypass"
        );

        // tRAS + 1 cycles later the bank must be blocked for bypass.
        p.on_dram_cycle(&mk(harness::NOW + t_ras + 1));
        let q = harness::query(&channel, &requests);
        assert!(
            p.rank(&old_miss, &q) > p.rank(&young_hit, &q),
            "inversion prevention must stop endless hit bypass"
        );
    }

    fn stfm_mc_sched_query<'a>(
        channel: &'a stfm_dram::Channel,
        requests: &'a [Request],
        now: DramCycle,
    ) -> crate::policy::SchedQuery<'a> {
        crate::policy::SchedQuery {
            channel_id: ChannelId(0),
            now,
            channel,
            requests,
            bank_waiting: None,
        }
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
        let requests = [busy.clone(), woke.clone()];
        let q = harness::query(&channel, &requests);
        assert!(p.rank(&woke, &q) > p.rank(&busy, &q));
    }
}
