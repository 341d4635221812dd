//! FR-FCFS+Cap: FR-FCFS with a cap on column-over-row reordering.
//!
//! The new comparison algorithm introduced by the paper (Section 4): at most
//! `cap` younger column (row-hit) accesses may be serviced in a bank while
//! an older row access to the same bank waits; once the cap is reached the
//! bank falls back to FCFS ordering until the bypassed request is serviced.
//! This bounds the starvation caused by FR-FCFS's column-first rule but
//! retains FCFS's bias toward memory-intensive threads.

use crate::controller::{bank_slot, BANK_SLOTS};
use crate::frfcfs::FrFcfs;
use crate::policy::{Rank, SchedQuery, SchedulerPolicy, SystemView};
use crate::request::{Request, RequestId};
use stfm_dram::{ChannelId, DramCommand};

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
    /// Per-bank cap state, indexed by [`bank_slot`].
    banks: [BankCap; BANK_SLOTS],
    /// Banks whose cap engaged or lifted since the last
    /// [`SchedulerPolicy::take_stale_banks`], bit [`bank_slot`] each.
    flipped: u64,
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
            banks: [BankCap::default(); BANK_SLOTS],
            flipped: 0,
        }
    }

    /// The configured cap.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    fn bank_capped(&self, channel: ChannelId, bank: u32) -> bool {
        self.capped(bank_slot(channel.0, bank))
    }

    fn capped(&self, slot: usize) -> bool {
        let b = &self.banks[slot];
        b.victim.is_some() && b.bypasses >= self.cap
    }

    /// Sets slot `slot`'s cap state, noting the bank if its rank order
    /// flips (the cap engages or lifts).
    fn set(&mut self, slot: usize, state: BankCap) {
        let was = self.capped(slot);
        self.banks[slot] = state;
        if self.capped(slot) != was {
            self.flipped |= 1 << slot;
        }
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
        // row hits by a row change). A victim is recorded on its own bank,
        // so only that bank's waiting list is searched.
        for q in sys.channels() {
            for bank in 0..q.channel.num_banks() {
                let slot = bank_slot(q.channel_id.0, bank);
                if let Some(victim) = self.banks[slot].victim {
                    let still_waiting = q
                        .waiting_in_bank(bank)
                        .any(|r| r.id == victim && !q.is_row_hit(r));
                    if !still_waiting {
                        self.set(slot, BankCap::default());
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
            .waiting_in_bank(cmd.bank.0)
            .filter(|r| r.id < req.id && !q.is_row_hit(r))
            .min_by_key(|r| r.id)
            .map(|r| r.id);
        let slot = bank_slot(q.channel_id.0, cmd.bank.0);
        let entry = self.banks[slot];
        let next = match (bypassed, entry.victim) {
            (Some(new), Some(old)) if new == old => BankCap {
                bypasses: entry.bypasses + 1,
                ..entry
            },
            (Some(new), _) => BankCap {
                victim: Some(new),
                bypasses: 1,
            },
            (None, _) => BankCap::default(),
        };
        self.set(slot, next);
    }

    fn take_stale_banks(&mut self) -> u64 {
        // The rank reads the bank's cap state only through
        // `bank_capped`, so a bank's ranks move exactly when it flips.
        std::mem::take(&mut self.flipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ThreadId;
    use crate::test_util::harness::{self, Queue};
    use crate::test_util::req_to;

    #[test]
    fn behaves_like_frfcfs_below_cap() {
        let (channel, _cfg) = harness::open_row(0, 5);
        let old_miss = req_to(0, ThreadId(0), 9, 0, 1);
        let young_hit = req_to(0, ThreadId(1), 5, 0, 2);
        let queue = Queue::new([old_miss.clone(), young_hit.clone()]);
        let q = queue.query(&channel);
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
            let queue = Queue::new([old_miss.clone(), hit.clone()]);
            let q = queue.query(&channel);
            let cmd = DramCommand::read(hit.loc.bank, 5, 0);
            p.on_command(&cmd, &hit, &q);
        }
        let young_hit = req_to(0, ThreadId(1), 5, 0, 4);
        let queue = Queue::new([old_miss.clone(), young_hit.clone()]);
        let q = queue.query(&channel);
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
            let queue = Queue::new([old_miss.clone(), hit.clone()]);
            let q = queue.query(&channel);
            p.on_command(&DramCommand::read(hit.loc.bank, 5, 0), &hit, &q);
            assert!(p.bank_capped(q.channel_id, 0));
        }
        // The victim got serviced and left the queue: cap state clears.
        let remaining = Queue::new([hit.clone()]);
        let q = remaining.query(&channel);
        p.on_dram_cycle(&SystemView::new(q.now, &[q]));
        assert!(!p.bank_capped(ChannelId(0), 0));
    }

    /// A bank's rank order flips exactly when its cap engages or lifts,
    /// whichever hook moves it, and `take_stale_banks` names that bank
    /// then and only then.
    #[test]
    fn reports_its_bank_when_the_cap_engages_and_lifts() {
        let (channel, _cfg) = harness::open_row(3, 5);
        let bank = 1 << bank_slot(0, 3);
        let old_miss = req_to(3, ThreadId(0), 9, 0, 1);
        let mut p = FrFcfsCap::with_cap(2);
        let bypass = |p: &mut FrFcfsCap, id: u64, waiting: &[Request]| {
            let hit = req_to(3, ThreadId(1), 5, 0, id);
            let queue = Queue::new([waiting, std::slice::from_ref(&hit)].concat());
            let q = queue.query(&channel);
            p.on_command(&DramCommand::read(hit.loc.bank, 5, 0), &hit, &q);
            p.take_stale_banks()
        };
        let victim = [old_miss.clone()];
        assert_eq!(bypass(&mut p, 2, &victim), 0, "one bypass, below the cap");
        assert_eq!(bypass(&mut p, 3, &victim), bank, "the cap engages");
        assert_eq!(bypass(&mut p, 4, &victim), 0, "a capped bank stays capped");
        // The victim leaves the queue: the cycle hook lifts the cap.
        let empty = Queue::new(Vec::new());
        let idle = empty.query(&channel);
        p.on_dram_cycle(&SystemView::new(idle.now, &[idle]));
        assert_eq!(
            p.take_stale_banks(),
            bank,
            "the cap lifts in the cycle hook"
        );
        assert_eq!(p.take_stale_banks(), 0, "a report is taken once");
        // Engage again, then lift it in `on_command`: a column access
        // that bypassed nothing.
        assert_eq!(bypass(&mut p, 5, &victim), 0);
        assert_eq!(bypass(&mut p, 6, &victim), bank);
        assert_eq!(bypass(&mut p, 7, &[]), bank, "the cap lifts in on_command");
        // A cycle hook that finds nothing to prune reports nothing.
        p.on_dram_cycle(&SystemView::new(idle.now, &[idle]));
        assert_eq!(p.take_stale_banks(), 0);
    }

    #[test]
    fn caps_and_clears_a_bank_on_the_last_channel() {
        // Channel 3, bank 7 is slot 55 of the flat table: past every slot a
        // one-channel system touches.
        let ch3 = ChannelId(3);
        let (channel, _cfg) = harness::open_row(7, 5);
        let old_miss = req_to(7, ThreadId(0), 9, 0, 1);
        let hit = req_to(7, ThreadId(1), 5, 0, 2);
        let mut p = FrFcfsCap::with_cap(1);
        assert!(!p.bank_capped(ch3, 7), "an unwritten slot is uncapped");
        let queue = Queue::new([old_miss.clone(), hit.clone()]);
        let q = SchedQuery {
            channel_id: ch3,
            ..queue.query(&channel)
        };
        p.on_command(&DramCommand::read(hit.loc.bank, 5, 0), &hit, &q);
        assert!(p.bank_capped(ch3, 7));
        assert!(p.rank(&old_miss, &q) > p.rank(&hit, &q));
        for (c, b) in [(3, 6), (2, 7), (0, 7)] {
            assert!(!p.bank_capped(ChannelId(c), b), "ch{c} bank {b} capped");
        }
        // The victim got serviced and left the queue: cap state clears.
        let remaining = Queue::new([hit.clone()]);
        let q = SchedQuery {
            channel_id: ch3,
            ..remaining.query(&channel)
        };
        p.on_dram_cycle(&SystemView::new(q.now, &[q]));
        assert!(!p.bank_capped(ch3, 7));
    }
}
