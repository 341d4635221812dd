//! Support utilities for policy unit tests (also used by the `stfm-core`
//! crate's tests). Not intended for production use.

use crate::controller::MemorySystem;
use crate::request::{AccessKind, Request, RequestId, RequestState, ThreadId};
use std::any::Any;
use stfm_dram::{
    BankId, ChannelId, CpuCycle, DecodedAddr, DramConfig, DramCycle, PhysAddr, TimingAudit,
};

/// Builds a queued read request to (`bank`, `row`, `col`) with the given
/// arrival id (smaller = older). The address is synthesized from the
/// coordinates and may not decode back through a real mapping.
pub fn req_to(bank: u32, thread: ThreadId, row: u32, col: u32, id: u64) -> Request {
    Request {
        id: RequestId(id),
        thread,
        addr: PhysAddr(u64::from(row) << 20 | u64::from(bank) << 14 | u64::from(col) << 6),
        loc: DecodedAddr {
            channel: ChannelId(0),
            bank: BankId(bank),
            row,
            col,
        },
        kind: AccessKind::Read,
        arrival_cpu: CpuCycle::new(id * 10),
        state: RequestState::Queued,
        service_started: None,
        category: None,
    }
}

/// Builders for device state and scheduler queries.
pub mod harness {
    use super::*;
    use crate::controller::MAX_BANKS;
    use crate::policy::SchedQuery;
    use stfm_dram::{Channel, DramCommand};

    /// Query timestamp used by the harness (late enough that all timing
    /// constraints from setup commands have expired).
    pub const NOW: DramCycle = DramCycle::new(1000);

    /// A fresh single-channel device with `row` open in `bank`
    /// (refresh disabled so tests are time-insensitive).
    pub fn open_row(bank: u32, row: u32) -> (Channel, DramConfig) {
        let cfg = DramConfig {
            refresh_enabled: false,
            ..DramConfig::ddr2_800()
        };
        let mut ch = Channel::new(&cfg);
        ch.issue(&DramCommand::activate(BankId(bank), row), DramCycle::ZERO);
        (ch, cfg)
    }

    /// A fresh single-channel device with all banks closed.
    pub fn closed() -> (Channel, DramConfig) {
        let cfg = DramConfig {
            refresh_enabled: false,
            ..DramConfig::ddr2_800()
        };
        (Channel::new(&cfg), cfg)
    }

    /// A hand-built request buffer in the controller's own form: the
    /// requests in slots, in arrival order, and per bank the slots of its
    /// waiting requests. The lists are rebuilt whenever a request
    /// changes.
    #[derive(Debug)]
    pub struct Queue {
        slots: Vec<Request>,
        bank_waiting: Vec<Vec<usize>>,
    }

    impl Queue {
        /// A buffer holding `requests`.
        ///
        /// # Panics
        ///
        /// Panics unless the ids ascend, as arrivals do.
        pub fn new(requests: impl Into<Vec<Request>>) -> Self {
            let mut q = Queue {
                slots: requests.into(),
                bank_waiting: Vec::new(),
            };
            q.index();
            q
        }

        /// The requests, in arrival order.
        pub fn requests(&self) -> &[Request] {
            &self.slots
        }

        /// Appends an arrival.
        pub fn push(&mut self, req: Request) {
            self.slots.push(req);
            self.index();
        }

        /// Changes request `i` (its state, say) through `f`.
        pub fn update(&mut self, i: usize, f: impl FnOnce(&mut Request)) {
            f(&mut self.slots[i]);
            self.index();
        }

        /// The query over this buffer on `channel`, as channel 0 at
        /// [`NOW`].
        pub fn query<'a>(&'a self, channel: &'a Channel) -> SchedQuery<'a> {
            SchedQuery {
                channel_id: ChannelId(0),
                now: NOW,
                channel,
                slots: &self.slots,
                bank_waiting: &self.bank_waiting,
            }
        }

        fn index(&mut self) {
            assert!(
                self.slots.windows(2).all(|w| w[0].id < w[1].id),
                "requests must be in arrival (id) order"
            );
            self.bank_waiting = vec![Vec::new(); MAX_BANKS as usize];
            for (s, r) in self.slots.iter().enumerate() {
                if r.is_waiting() {
                    self.bank_waiting[r.loc.bank.0 as usize].push(s);
                }
            }
        }
    }
}

/// Attaches a [`TimingAudit`] of every channel to `mem` as its sink.
pub fn audit_timing(mem: &mut MemorySystem) {
    let audit = TimingAudit::new(mem.dram_config());
    mem.set_sink(Box::new(audit));
}

/// Asserts that the [`TimingAudit`] attached by [`audit_timing`] has
/// recorded no violation. The audit stays attached.
///
/// # Panics
///
/// Panics with the first violation, or if `mem`'s sink is not a
/// [`TimingAudit`].
pub fn assert_timing_clean(mem: &mut MemorySystem) {
    let mut sink = mem.take_sink();
    match (&mut *sink as &mut dyn Any).downcast_mut::<TimingAudit>() {
        Some(audit) => {
            if let Err(violation) = audit.check() {
                panic!("{violation}");
            }
        }
        None => panic!("the memory system's sink is not a TimingAudit"),
    }
    mem.set_sink(sink);
}

/// A deliberately erratic scheduling policy for stress tests: ranks
/// requests by a deterministic hash of (request id, cycle), so the
/// controller's selections jump around arbitrarily. Any sequence of
/// choices must still produce DDR2-legal commands and conserve requests —
/// the controller, not the policy, owns correctness.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosPolicy {
    /// Seed folded into the hash.
    pub seed: u64,
}

impl crate::policy::SchedulerPolicy for ChaosPolicy {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn rank(&self, req: &Request, q: &crate::policy::SchedQuery<'_>) -> crate::policy::Rank {
        let mut x = req.id.0 ^ (q.now.get() << 17) ^ self.seed;
        // splitmix64 scramble.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        crate::policy::Rank([x ^ (x >> 31), 0, 0])
    }

    fn take_stale_banks(&mut self) -> u64 {
        // Ranks read `q.now`: no bank's winner outlives its tick.
        u64::MAX
    }
}
