//! The per-bank walk cache against its definition. One bank is flooded
//! with requests, most of them to one row, under each of the six
//! policies and both row policies, while arrivals keep landing on the
//! bank's carried winner. Every run must issue exactly the command and
//! completion stream of a run whose policy reports every bank on every
//! tick, so that each scheduling visit walks the bank afresh and calls
//! `rank` on every waiting request. In a debug build the controller's
//! own audit also holds every visit's carried decision, and every cached
//! rank, equal to such a walk.

// `allow-expect-in-tests` covers `#[test]` fns only, not their helpers.
#![allow(clippy::expect_used)]

use std::any::Any;
use std::cell::Cell;
use stfm_core::Stfm;
use stfm_dram::{
    BankId, ChannelId, CpuCycle, DecodedAddr, DramCommand, DramConfig, DramCycle, TimingAudit,
    TimingParams,
};
use stfm_mc::{
    AccessKind, ControllerConfig, Fcfs, FrFcfs, FrFcfsCap, MemorySystem, Nfq, ParBs, Rank, Request,
    RowPolicy, SchedCounters, SchedQuery, SchedulerPolicy, SystemView, ThreadId,
};
use stfm_telemetry::{Event, RingSink, Sink, TeeSink};

/// Wraps a policy, counts its `rank` calls and, when `uncached`, reports
/// every bank stale on every tick.
struct Probe {
    inner: Box<dyn SchedulerPolicy>,
    uncached: bool,
    rank_calls: Cell<u64>,
}

impl SchedulerPolicy for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rank(&self, req: &Request, q: &SchedQuery<'_>) -> Rank {
        self.rank_calls.set(self.rank_calls.get() + 1);
        self.inner.rank(req, q)
    }

    fn on_dram_cycle(&mut self, sys: &SystemView<'_>) {
        self.inner.on_dram_cycle(sys);
    }

    fn on_enqueue(&mut self, req: &Request, tshared: u64) {
        self.inner.on_enqueue(req, tshared);
    }

    fn on_command(&mut self, cmd: &DramCommand, req: &Request, q: &SchedQuery<'_>) {
        self.inner.on_command(cmd, req, q);
    }

    fn on_complete(&mut self, req: &Request) {
        self.inner.on_complete(req);
    }

    fn record_interval(&self, now: DramCycle, sink: &mut dyn Sink) {
        self.inner.record_interval(now, sink);
    }

    fn take_stale_banks(&mut self) -> u64 {
        let reported = self.inner.take_stale_banks();
        if self.uncached {
            u64::MAX
        } else {
            reported
        }
    }
}

/// The six policies, built fresh.
fn policies(timing: TimingParams) -> Vec<Box<dyn SchedulerPolicy>> {
    vec![
        Box::new(FrFcfs::new()),
        Box::new(Fcfs::new()),
        Box::new(FrFcfsCap::new()),
        Box::new(Nfq::new(timing)),
        Box::new(ParBs::new()),
        Box::new(Stfm::new(timing)),
    ]
}

/// What one flood leaves behind.
struct Flood {
    events: Vec<Event>,
    counters: SchedCounters,
    rank_calls: u64,
    to_main_row: usize,
}

/// Floods bank 2 of channel 0: two arrivals per DRAM cycle for the first
/// 80 cycles from four threads, every eighth to a second row (a conflict
/// the winner can change over) and every fifth a write, then runs until
/// the buffer drains. Ticks every cycle, as the stepped loop does.
fn flood(policy: Box<dyn SchedulerPolicy>, row_policy: RowPolicy, uncached: bool) -> Flood {
    let dram = DramConfig::ddr2_800();
    let lines_per_row = dram.row_bytes() / dram.line_bytes;
    let probe = Probe {
        inner: policy,
        uncached,
        rank_calls: Cell::new(0),
    };
    let ctrl = ControllerConfig {
        row_policy,
        ..ControllerConfig::paper_baseline()
    };
    let audit = TimingAudit::new(&dram);
    let mut mem = MemorySystem::with_controller_config(dram, ctrl, Box::new(probe));
    mem.set_sink(Box::new(TeeSink::new(RingSink::new(1 << 16), audit)));
    let mut to_main_row = 0;
    let mut now = DramCycle::ZERO;
    for n in 0u32..160 {
        let row = if n % 8 == 7 { 11 } else { 4 };
        let loc = DecodedAddr {
            channel: ChannelId(0),
            bank: BankId(2),
            row,
            col: n % lines_per_row,
        };
        let addr = mem.mapping().encode(loc);
        assert_eq!(mem.mapping().decode(addr), loc, "address {addr:?}");
        let kind = if n % 5 == 4 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let cpu = CpuCycle::new(now.get() * 10);
        let accepted = mem.try_enqueue(ThreadId(n % 4), kind, addr, cpu, u64::from(n));
        to_main_row += usize::from(accepted.is_some() && row == 4);
        if n % 2 == 1 {
            mem.tick(now);
            mem.drain_completions();
            now += 1;
        }
    }
    while mem.outstanding() > 0 {
        mem.tick(now);
        mem.drain_completions();
        now += 1;
        assert!(now.get() < 1_000_000, "memory system wedged");
    }
    let mut sink = mem.take_sink();
    let tee = sink
        .as_any_mut()
        .downcast_mut::<TeeSink<RingSink, TimingAudit>>()
        .expect("the tee comes back out");
    assert_eq!(tee.second.check(), Ok(()));
    let ring = &tee.first;
    assert_eq!(ring.dropped(), 0, "ring too small for the run");
    let rank_calls = (mem.policy() as &dyn Any)
        .downcast_ref::<Probe>()
        .expect("the probe is the policy")
        .rank_calls
        .get();
    Flood {
        events: ring.events().cloned().collect(),
        counters: mem.sched_counters(),
        rank_calls,
        to_main_row,
    }
}

#[test]
fn a_flooded_bank_decides_as_a_fresh_walk_would() {
    let timing = DramConfig::ddr2_800().timing;
    for row_policy in [RowPolicy::OpenPage, RowPolicy::ClosedPage] {
        for (cached, uncached) in policies(timing).into_iter().zip(policies(timing)) {
            let name = cached.name();
            let got = flood(cached, row_policy, false);
            let want = flood(uncached, row_policy, true);
            assert!(
                got.to_main_row >= 64,
                "{name}: {} to one row",
                got.to_main_row
            );
            for (i, (a, b)) in got.events.iter().zip(&want.events).enumerate() {
                assert_eq!(a, b, "{name} {row_policy:?}: event {i} diverges");
            }
            assert_eq!(got.events.len(), want.events.len(), "{name} {row_policy:?}");
            // The cache carried decisions and merged arrivals: far fewer
            // walks than visits, and — counted where the controller's
            // debug audit, which ranks every request on every visit, is
            // compiled out — far fewer rank calls.
            let (got_walks, want_walks) = (got.counters.rank_scans, want.counters.rank_scans);
            assert!(got.counters.rank_carried > 0, "{name} {row_policy:?}");
            assert!(
                got_walks * 2 < want_walks,
                "{name} {row_policy:?}: {got_walks} walks cached, {want_walks} uncached"
            );
            assert!(
                cfg!(debug_assertions) || got.rank_calls * 3 < want.rank_calls,
                "{name} {row_policy:?}: {} rank calls cached, {} uncached",
                got.rank_calls,
                want.rank_calls
            );
        }
    }
}
