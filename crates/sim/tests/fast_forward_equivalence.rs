//! Fast-forward soundness: skipping provably-dead DRAM cycles must leave
//! every simulated outcome bit-identical to the reference cycle-by-cycle
//! run — request completions, core and controller statistics, and the
//! full telemetry event stream, for every scheduler.

// `allow-expect-in-tests` covers `#[test]` fns only, not their helpers.
#![allow(clippy::expect_used)]

use stfm_cpu::{Core, TraceOp, VecTrace};
use stfm_dram::DramConfig;
use stfm_mc::{MemorySystem, ThreadId};
use stfm_sim::{AloneCache, Experiment, RunOutcome, SchedulerKind, System};
use stfm_telemetry::{Event, RingSink};
use stfm_workloads::spec;

fn workload() -> Experiment {
    Experiment::new(vec![
        spec::mcf(),
        spec::libquantum(),
        spec::omnetpp(),
        spec::gems_fdtd(),
    ])
    .instructions_per_thread(4_000)
    .seed(7)
}

/// Runs `kind` with the sink attached and returns (events, per-thread
/// shared stats, final dram cycle).
fn traced(
    kind: SchedulerKind,
    fast_forward: bool,
    cache: &AloneCache,
) -> (Vec<Event>, Vec<stfm_cpu::CoreStats>, u64) {
    let run = workload()
        .scheduler(kind)
        .fast_forward(fast_forward)
        .run_traced(cache, Box::new(RingSink::new(1 << 21)));
    let mut sink = run.sink;
    let ring = sink
        .as_any_mut()
        .downcast_mut::<RingSink>()
        .expect("RingSink comes back out");
    assert_eq!(ring.dropped(), 0, "ring too small for the run");
    let events = ring.events().cloned().collect();
    let stats = run.metrics.threads.iter().map(|t| t.shared).collect();
    (events, stats, run.final_dram_cycle)
}

/// Element-wise event comparison with a readable first-divergence report.
///
/// [`Event::EstimatorWork`] is excluded: it reports how much work the
/// *loop* performed (scheduler visits, carried decisions), which differs
/// between the event-driven and stepped loops by design — that difference
/// is the speedup, not a simulated outcome. `work_counters.rs` asserts
/// its expected shape instead.
fn assert_streams_equal(kind: SchedulerKind, ff: &[Event], stepped: &[Event]) {
    let outcome = |events: &[Event]| -> Vec<Event> {
        events
            .iter()
            .filter(|e| !matches!(e, Event::EstimatorWork { .. }))
            .cloned()
            .collect()
    };
    let (ff, stepped) = (outcome(ff), outcome(stepped));
    for (i, (a, b)) in ff.iter().zip(&stepped).enumerate() {
        assert_eq!(
            a, b,
            "{kind:?}: event {i} diverges (fast-forwarded vs stepped)"
        );
    }
    assert_eq!(
        ff.len(),
        stepped.len(),
        "{kind:?}: event counts diverge after a common prefix"
    );
}

#[test]
fn fast_forward_matches_stepped_for_every_scheduler() {
    let cache = AloneCache::new();
    for kind in SchedulerKind::all() {
        let (ev_ff, stats_ff, end_ff) = traced(kind, true, &cache);
        let (ev_st, stats_st, end_st) = traced(kind, false, &cache);
        assert_streams_equal(kind, &ev_ff, &ev_st);
        // The RequestServiced subset of the stream is the completion
        // record (id, cycle, latency); make the coverage explicit.
        let served = ev_ff
            .iter()
            .filter(|e| matches!(e, Event::RequestServiced { .. }))
            .count();
        assert!(served > 0, "{kind:?}: no completions observed");
        assert_eq!(stats_ff, stats_st, "{kind:?}: core stats diverge");
        assert_eq!(end_ff, end_st, "{kind:?}: run length diverges");
    }
}

fn pointer_chase_system(n: usize) -> System {
    let cfg = DramConfig::for_cores(n as u32);
    let mem = MemorySystem::new(cfg, Box::new(stfm_mc::FrFcfs::new()));
    let cores = (0..n)
        .map(|i| {
            // Dependent misses with long stretches where the whole system
            // provably idles — the fast-forward sweet spot.
            let ops: Vec<_> = (0..400u64)
                .map(|k| {
                    let mut op = TraceOp::load(((i as u64) << 28) | (k * 64 * 131), 2);
                    op.dependent = true;
                    op
                })
                .collect();
            Core::new(
                ThreadId(i as u32),
                Box::new(VecTrace::new(format!("t{i}"), ops)),
            )
        })
        .collect();
    System::new(cores, mem)
}

fn outcome(fast_forward: bool) -> (RunOutcome, u64) {
    let mut sys = pointer_chase_system(2);
    sys.set_fast_forward(fast_forward);
    let out = sys.run(1_200, 50_000_000);
    (out, sys.fast_forwarded_cycles())
}

#[test]
fn fast_forward_matches_stepped_run_outcome() {
    let (ff, skipped) = outcome(true);
    let (stepped, zero) = outcome(false);
    // Not a vacuous pass: the dependent-miss workload must actually give
    // the fast path dead spans to skip.
    assert!(skipped > 0, "fast-forward never engaged");
    assert_eq!(zero, 0);
    assert_eq!(ff.frozen, stepped.frozen, "core stats diverge");
    assert_eq!(
        ff.frozen_mem, stepped.frozen_mem,
        "controller stats diverge"
    );
    assert_eq!(ff.cpu_cycles, stepped.cpu_cycles);
    assert_eq!(ff.truncated, stepped.truncated);
}

#[test]
fn truncation_boundary_is_respected_when_fast_forwarding() {
    // The cap fires on the exact same cycle whether or not dead spans are
    // skipped, so `cpu_cycles` (and `truncated`) stay bit-identical.
    let mut ff = pointer_chase_system(1);
    ff.set_fast_forward(true);
    let a = ff.run(u64::MAX, 10_000);
    let mut stepped = pointer_chase_system(1);
    stepped.set_fast_forward(false);
    let b = stepped.run(u64::MAX, 10_000);
    assert!(a.truncated && b.truncated);
    assert_eq!(a.cpu_cycles, b.cpu_cycles);
}
