//! Time advance, tier-1: the event-driven loop (`predict_next`, elided
//! ticks, the deferred policy residue) must leave every simulated outcome
//! bit-identical to the stepped oracle, for every scheduler, on one
//! channel and on two — and it must actually elide something. The seeded
//! fuzz suite in `crates/sim/tests/` goes deeper; this is the slice
//! `cargo test -q` sees.

// `allow-expect-in-tests` covers `#[test]` fns only, not their helpers.
#![allow(clippy::expect_used)]

use stfm_repro::sim::{AloneCache, Experiment, SchedulerKind};
use stfm_repro::telemetry::{Event, RingSink};
use stfm_repro::workloads::{mix, Profile};

const INSTS: u64 = 2_000;

/// What one run leaves behind: the loop-agnostic event stream, the
/// scheduling passes the loop paid for, metric bits, and the run length.
struct Observed {
    stream: Vec<Event>,
    sched_visits: u64,
    metrics: Vec<u64>,
    final_dram_cycle: u64,
}

fn observe(
    profiles: &[Profile],
    kind: SchedulerKind,
    event_loop: bool,
    cache: &AloneCache,
) -> Observed {
    let run = Experiment::new(profiles.to_vec())
        .scheduler(kind)
        .instructions_per_thread(INSTS)
        .fast_forward(event_loop)
        .run_traced(cache, Box::new(RingSink::new(1 << 21)));
    let mut sink = run.sink;
    let ring = sink
        .as_any_mut()
        .downcast_mut::<RingSink>()
        .expect("RingSink comes back out");
    assert_eq!(ring.dropped(), 0, "ring too small for the run");
    // `EstimatorWork` reports loop work, which differs between the loops
    // by design; everything else in the stream is a simulated outcome.
    let (work, stream): (Vec<Event>, Vec<Event>) = ring
        .events()
        .cloned()
        .partition(|e| matches!(e, Event::EstimatorWork { .. }));
    let Some(Event::EstimatorWork { sched_visits, .. }) = work.last() else {
        panic!("{kind:?}: run_traced emitted no trailing EstimatorWork snapshot");
    };
    let m = &run.metrics;
    let mut metrics = vec![m.unfairness().to_bits(), m.weighted_speedup().to_bits()];
    for t in &m.threads {
        metrics.extend([t.mem_slowdown().to_bits(), t.shared.cycles]);
        metrics.extend([t.shared.instructions, t.shared.mem_stall_cycles]);
    }
    Observed {
        stream,
        sched_visits: *sched_visits,
        metrics,
        final_dram_cycle: run.final_dram_cycle,
    }
}

fn assert_event_loop_matches_stepped(profiles: &[Profile]) {
    let cache = AloneCache::new();
    for kind in SchedulerKind::all() {
        let event = observe(profiles, kind, true, &cache);
        let stepped = observe(profiles, kind, false, &cache);
        assert_eq!(event.metrics, stepped.metrics, "{kind:?}: metrics diverge");
        assert_eq!(
            event.final_dram_cycle, stepped.final_dram_cycle,
            "{kind:?}: run length diverges"
        );
        for (i, (a, b)) in event.stream.iter().zip(&stepped.stream).enumerate() {
            assert_eq!(a, b, "{kind:?}: event {i} diverges (event loop vs stepped)");
        }
        assert_eq!(
            event.stream.len(),
            stepped.stream.len(),
            "{kind:?}: event counts diverge after a common prefix"
        );
        assert!(
            event.sched_visits < stepped.sched_visits,
            "{kind:?}: the event loop elided nothing ({} scheduling passes vs {} stepped)",
            event.sched_visits,
            stepped.sched_visits
        );
    }
}

#[test]
fn four_cores_one_channel() {
    assert_event_loop_matches_stepped(&mix::case_study_intensive());
}

#[test]
fn eight_cores_two_channels() {
    assert_event_loop_matches_stepped(&mix::fig10_eight_core());
}
