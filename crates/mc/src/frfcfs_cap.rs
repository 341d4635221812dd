//! FR-FCFS+Cap: FR-FCFS with a cap on column-over-row reordering.
//!
//! The new comparison algorithm introduced by the paper (Section 4): at most
//! `cap` younger column (row-hit) accesses may be serviced in a bank while
//! an older row access to the same bank waits; once the cap is reached the
//! bank falls back to FCFS ordering until the bypassed request is serviced.
//! This bounds the starvation caused by FR-FCFS's column-first rule but
//! retains FCFS's bias toward memory-intensive threads.

use crate::frfcfs::FrFcfs;
use crate::policy::{Rank, SchedQuery, SchedulerPolicy, SystemView};
use crate::request::{Request, RequestId};
use stfm_dram::{ChannelId, DramCommand};

/// Banks per channel in the flat table: slot `channel * 16 + bank`, the
/// packing `stfm-core`'s slot masks use.
const BANK_SLOTS: u32 = 16;

#[derive(Debug, Clone, Copy, Default)]
struct BankCap {
    /// The oldest waiting row-access (non-hit) request being bypassed.
    victim: Option<RequestId>,
    /// Younger column accesses serviced while `victim` waited.
    bypasses: u32,
}

/// The FR-FCFS+Cap scheduling policy.
#[derive(Debug, Clone)]
pub struct FrFcfsCap {
    cap: u32,
    /// Per-bank cap state, indexed by [`FrFcfsCap::slot`]; grown on first
    /// write, so a slot beyond the end reads as the default (no victim).
    banks: Vec<BankCap>,
}

impl FrFcfsCap {
    /// Creates the policy with the paper's empirically chosen cap of 4.
    pub fn new() -> Self {
        Self::with_cap(4)
    }

    /// Creates the policy with an explicit cap (used by the cap ablation).
    pub fn with_cap(cap: u32) -> Self {
        assert!(cap > 0, "cap must be positive");
        FrFcfsCap {
            cap,
            banks: Vec::new(),
        }
    }

    /// The configured cap.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    fn slot(channel: ChannelId, bank: u32) -> usize {
        debug_assert!(
            bank < BANK_SLOTS,
            "bank {bank} overflows its channel's slots"
        );
        (channel.0 * BANK_SLOTS + bank) as usize
    }

    fn bank_capped(&self, channel: ChannelId, bank: u32) -> bool {
        self.banks
            .get(Self::slot(channel, bank))
            .is_some_and(|b| b.victim.is_some() && b.bypasses >= self.cap)
    }
}

impl Default for FrFcfsCap {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulerPolicy for FrFcfsCap {
    fn name(&self) -> &'static str {
        "FRFCFS+Cap"
    }

    fn rank(&self, req: &Request, q: &SchedQuery<'_>) -> Rank {
        if self.bank_capped(q.channel_id, req.loc.bank.0) {
            // Cap reached: FCFS within the bank. The leading 1 also lets the
            // starving bank win channel-level arbitration.
            Rank([1, Rank::older_first(req.id), 0])
        } else {
            let base = FrFcfs::base_rank(req, q);
            Rank([0, base.0[0], base.0[1]])
        }
    }

    fn on_dram_cycle(&mut self, sys: &SystemView<'_>) {
        // Drop victims that are no longer waiting (serviced or promoted to
        // row hits by a row change).
        for q in sys.channels() {
            for bank in 0..q.channel.num_banks() {
                let Some(entry) = self.banks.get_mut(Self::slot(q.channel_id, bank)) else {
                    break; // never written: no victim here or beyond
                };
                if let Some(victim) = entry.victim {
                    let still_waiting = q
                        .requests
                        .iter()
                        .any(|r| r.id == victim && r.is_waiting() && !q.is_row_hit(r));
                    if !still_waiting {
                        *entry = BankCap::default();
                    }
                }
            }
        }
    }

    fn on_command(&mut self, cmd: &DramCommand, req: &Request, q: &SchedQuery<'_>) {
        if !cmd.is_column() {
            return;
        }
        // A column access was serviced; find the oldest waiting row access
        // to the same bank that this access bypassed.
        let bypassed = q
            .requests
            .iter()
            .filter(|r| {
                r.loc.bank == cmd.bank && r.is_waiting() && r.id < req.id && !q.is_row_hit(r)
            })
            .min_by_key(|r| r.id)
            .map(|r| r.id);
        let slot = Self::slot(q.channel_id, cmd.bank.0);
        if slot >= self.banks.len() {
            self.banks.resize(slot + 1, BankCap::default());
        }
        let entry = &mut self.banks[slot];
        match (bypassed, entry.victim) {
            (Some(new), Some(old)) if new == old => entry.bypasses += 1,
            (Some(new), _) => {
                entry.victim = Some(new);
                entry.bypasses = 1;
            }
            (None, _) => *entry = BankCap::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ThreadId;
    use crate::test_util::{harness, req_to};

    #[test]
    fn behaves_like_frfcfs_below_cap() {
        let (channel, _cfg) = harness::open_row(0, 5);
        let old_miss = req_to(0, ThreadId(0), 9, 0, 1);
        let young_hit = req_to(0, ThreadId(1), 5, 0, 2);
        let requests = [old_miss.clone(), young_hit.clone()];
        let q = harness::query(&channel, &requests);
        let p = FrFcfsCap::new();
        assert!(p.rank(&young_hit, &q) > p.rank(&old_miss, &q));
    }

    #[test]
    fn cap_reached_switches_to_fcfs() {
        let (channel, _cfg) = harness::open_row(0, 5);
        let old_miss = req_to(0, ThreadId(0), 9, 0, 1);
        let mut p = FrFcfsCap::with_cap(2);
        // Two younger hits get serviced while the old miss waits.
        for id in [2u64, 3] {
            let hit = req_to(0, ThreadId(1), 5, 0, id);
            let requests = [old_miss.clone(), hit.clone()];
            let q = harness::query(&channel, &requests);
            let cmd = DramCommand::read(hit.loc.bank, 5, 0);
            p.on_command(&cmd, &hit, &q);
        }
        let young_hit = req_to(0, ThreadId(1), 5, 0, 4);
        let requests = [old_miss.clone(), young_hit.clone()];
        let q = harness::query(&channel, &requests);
        assert!(
            p.rank(&old_miss, &q) > p.rank(&young_hit, &q),
            "after the cap, the bypassed row access must win"
        );
    }

    #[test]
    fn victim_service_resets_the_cap() {
        let (channel, _cfg) = harness::open_row(0, 5);
        let old_miss = req_to(0, ThreadId(0), 9, 0, 1);
        let mut p = FrFcfsCap::with_cap(1);
        let hit = req_to(0, ThreadId(1), 5, 0, 2);
        {
            let requests = [old_miss.clone(), hit.clone()];
            let q = harness::query(&channel, &requests);
            p.on_command(&DramCommand::read(hit.loc.bank, 5, 0), &hit, &q);
            assert!(p.bank_capped(q.channel_id, 0));
        }
        // The victim got serviced and left the queue: cap state clears.
        let remaining = [hit.clone()];
        let q = harness::query(&channel, &remaining);
        let sys = SystemView::single(q);
        p.on_dram_cycle(&sys);
        assert!(!p.bank_capped(ChannelId(0), 0));
    }

    #[test]
    fn caps_and_clears_a_bank_on_the_last_channel() {
        // Channel 3, bank 7 is slot 55 of the flat table: past every slot a
        // one-channel system touches, so the table has to grow to reach it.
        let ch3 = ChannelId(3);
        let (channel, _cfg) = harness::open_row(7, 5);
        let old_miss = req_to(7, ThreadId(0), 9, 0, 1);
        let hit = req_to(7, ThreadId(1), 5, 0, 2);
        let mut p = FrFcfsCap::with_cap(1);
        assert!(!p.bank_capped(ch3, 7), "an unwritten slot is uncapped");
        let requests = [old_miss.clone(), hit.clone()];
        let q = SchedQuery {
            channel_id: ch3,
            ..harness::query(&channel, &requests)
        };
        p.on_command(&DramCommand::read(hit.loc.bank, 5, 0), &hit, &q);
        assert!(p.bank_capped(ch3, 7));
        assert!(p.rank(&old_miss, &q) > p.rank(&hit, &q));
        for (c, b) in [(3, 6), (2, 7), (0, 7)] {
            assert!(!p.bank_capped(ChannelId(c), b), "ch{c} bank {b} capped");
        }
        // The victim got serviced and left the queue: cap state clears.
        let remaining = [hit.clone()];
        let q = SchedQuery {
            channel_id: ch3,
            ..harness::query(&channel, &remaining)
        };
        p.on_dram_cycle(&SystemView::single(q));
        assert!(!p.bank_capped(ch3, 7));
    }
}
