//! Machine-independent regression guards for the incremental STFM
//! estimator (PR 10): instead of asserting wall-clock throughput (which
//! varies by host), these tests pin the *work counters* — how many
//! O(queue) estimator walks, decision recomputations, and per-bank rank
//! scans a run performs. The speedup's mechanism is "do asymptotically
//! less work per DRAM cycle"; the counters make that mechanism a
//! testable invariant:
//!
//! * full estimator rebuilds scale with O(events), not O(cycles);
//! * the decision cache actually carries decisions across quiet ticks;
//! * the event-driven loop visits the scheduler strictly fewer times
//!   than the stepped reference loop on the same workload.

// `allow-expect-in-tests` covers `#[test]` fns only, not their helpers.
#![allow(clippy::expect_used)]

use std::any::Any;
use stfm_sim::{AloneCache, Experiment, SchedulerKind};
use stfm_telemetry::{Event, Sink};
use stfm_workloads::{mix, spec, Profile};

const INSTS: u64 = 20_000;

/// The counter snapshot `MemorySystem::record_work_counters` emits at
/// end of run.
#[derive(Clone, Copy, Debug, Default)]
struct Work {
    full_rebuilds: u64,
    incremental_updates: u64,
    decides_recomputed: u64,
    decides_carried: u64,
    sched_visits: u64,
    rank_scans: u64,
    rank_carried: u64,
}

/// Sink that keeps only the final [`Event::EstimatorWork`] snapshot.
#[derive(Default)]
struct WorkSink {
    work: Option<Work>,
}

impl Sink for WorkSink {
    fn record(&mut self, event: &Event) {
        if let Event::EstimatorWork {
            full_rebuilds,
            incremental_updates,
            decides_recomputed,
            decides_carried,
            sched_visits,
            rank_scans,
            rank_carried,
            ..
        } = event
        {
            self.work = Some(Work {
                full_rebuilds: *full_rebuilds,
                incremental_updates: *incremental_updates,
                decides_recomputed: *decides_recomputed,
                decides_carried: *decides_carried,
                sched_visits: *sched_visits,
                rank_scans: *rank_scans,
                rank_carried: *rank_carried,
            });
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn streaming() -> Vec<Profile> {
    vec![
        spec::mcf(),
        spec::libquantum(),
        spec::omnetpp(),
        spec::gems_fdtd(),
    ]
}

/// Runs `profiles` under STFM and returns (work counters, final DRAM
/// cycle). `event` selects the event-driven loop vs the stepped
/// reference.
fn run_stfm(profiles: &[Profile], cache: &AloneCache, event: bool) -> (Work, u64) {
    let mut traced = Experiment::new(profiles.to_vec())
        .scheduler(SchedulerKind::Stfm)
        .instructions_per_thread(INSTS)
        .fast_forward(event)
        .run_traced(cache, Box::new(WorkSink::default()));
    let work = traced
        .sink
        .as_any_mut()
        .downcast_mut::<WorkSink>()
        .and_then(|s| s.work)
        .expect("run emits an EstimatorWork snapshot");
    (work, traced.final_dram_cycle)
}

/// S4: on a bandwidth-bound mix the estimator must maintain its state
/// incrementally — full O(queue) rebuilds are reserved for the rare
/// fairness tie-break scan, so their count tracks events, not cycles.
#[test]
fn estimator_rebuilds_scale_with_events_not_cycles() {
    let cache = AloneCache::new();
    let (work, cycles) = run_stfm(&streaming(), &cache, true);
    println!("streaming/event: {work:?} over {cycles} dram cycles");

    assert!(cycles > 10_000, "run too short to be meaningful: {cycles}");
    // The old implementation rebuilt once per DRAM cycle (full_rebuilds
    // == cycles). Incremental maintenance leaves only tie-break scans.
    assert!(
        work.full_rebuilds * 10 < cycles,
        "full rebuilds not O(events): {} rebuilds over {} cycles",
        work.full_rebuilds,
        cycles
    );
    // Lifecycle transitions (enqueue, first command, column command,
    // expiry) drive O(1) updates instead.
    assert!(
        work.incremental_updates > 0,
        "incremental estimator updates never ran"
    );
    // The gen-gated decision cache must fire: quiet ticks reuse the
    // previous slowdown ranking instead of recomputing it.
    assert!(
        work.decides_carried > 0,
        "decision cache never carried a decision"
    );
}

/// S4 (latency-bound flavor): on the pointer-chase mix the queues are
/// mostly empty, so whole quiet cycles are elided before the scheduler
/// is ever consulted — the decision carry there happens at the elision
/// level (an elided cycle is an implicitly carried decision), and the
/// real ticks that remain are exactly the busy ones, where the paced
/// interference drain legitimately moves the estimator generation. The
/// machine-independent invariants are therefore: rebuilds stay O(events),
/// the scheduler is visited on strictly fewer cycles than the run has,
/// at most one mode decision is recomputed per visit, and the per-bank
/// rank cache carries more often than it scans.
#[test]
fn pointer_chase_elides_and_carries() {
    let cache = AloneCache::new();
    let (work, cycles) = run_stfm(&mix::pointer_chase(), &cache, true);
    println!("pointer-chase/event: {work:?} over {cycles} dram cycles");

    assert!(
        work.full_rebuilds * 10 < cycles,
        "full rebuilds not O(events): {} rebuilds over {} cycles",
        work.full_rebuilds,
        cycles
    );
    assert!(
        work.sched_visits < cycles,
        "latency-bound mix elided no cycles: {} visits over {} cycles",
        work.sched_visits,
        cycles
    );
    assert!(
        work.decides_recomputed <= work.sched_visits,
        "more than one mode recompute per scheduler visit: {} vs {}",
        work.decides_recomputed,
        work.sched_visits
    );
    assert!(
        work.rank_carried > work.rank_scans,
        "per-bank decision cache should carry more than it scans: \
         carried {} vs scanned {}",
        work.rank_carried,
        work.rank_scans
    );
}

/// S5: the event-driven loop must visit the scheduler strictly fewer
/// times than the stepped reference on the same workload — that
/// difference is the cycle-elision win, asserted machine-independently
/// (no wall-clock involved). Also pins that the controller's per-bank
/// decision cache participates (rank_carried > 0).
#[test]
fn event_loop_schedules_less_than_stepped() {
    let cache = AloneCache::new();
    let (ev, ev_cycles) = run_stfm(&streaming(), &cache, true);
    let (st, st_cycles) = run_stfm(&streaming(), &cache, false);
    println!("event:   {ev:?} over {ev_cycles} cycles");
    println!("stepped: {st:?} over {st_cycles} cycles");

    // Bit-identical simulated outcome (the fuzz suite proves this in
    // depth; here it guards the counters' denominator).
    assert_eq!(ev_cycles, st_cycles, "loops disagree on run length");
    assert!(
        ev.sched_visits < st.sched_visits,
        "event loop did not elide scheduler visits: event {} vs stepped {}",
        ev.sched_visits,
        st.sched_visits
    );
    assert!(
        ev.rank_carried > 0,
        "per-bank decision cache never carried a ranking"
    );
}
