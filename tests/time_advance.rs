//! Time advance, tier-1: the event-driven loop (`predict_next`, elided
//! ticks, the deferred policy residue) must leave every simulated outcome
//! bit-identical to the stepped oracle, for every scheduler, on one
//! channel and on two, and for STFM, FR-FCFS+Cap and NFQ on four — and it
//! must actually elide something. In a debug build (`cargo test -q`) the
//! controller also checks every carried bank decision against a fresh
//! walk here. The seeded fuzz suite in `crates/sim/tests/` goes
//! deeper; this is the slice `cargo test -q` sees.

// `allow-expect-in-tests` covers `#[test]` fns only, not their helpers.
#![allow(clippy::expect_used)]

use stfm_repro::sim::{AloneCache, Experiment, SchedulerKind};
use stfm_repro::stfm::StfmConfig;
use stfm_repro::telemetry::{Event, RingSink};
use stfm_repro::workloads::{mix, Profile};

const INSTS: u64 = 2_000;

/// The 16-core budget, kept tiny: every channel sees commands from 5
/// instructions per thread up (at 4 the run hits its cycle cap first),
/// and 10 leaves a margin.
const SIXTEEN_CORE_INSTS: u64 = 10;

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
    insts: u64,
    event_loop: bool,
    cache: &AloneCache,
) -> Observed {
    let run = Experiment::new(profiles.to_vec())
        .scheduler(kind)
        .instructions_per_thread(insts)
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

/// Runs each of `kinds` on both loops and holds them equal; returns the
/// event loop's streams, one per kind.
fn assert_event_loop_matches_stepped(
    profiles: &[Profile],
    kinds: &[SchedulerKind],
    insts: u64,
) -> Vec<Vec<Event>> {
    let cache = AloneCache::new();
    let mut streams = Vec::new();
    for &kind in kinds {
        let event = observe(profiles, kind, insts, true, &cache);
        let stepped = observe(profiles, kind, insts, false, &cache);
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
        streams.push(event.stream);
    }
    streams
}

/// With PAR-BS, and STFM on a 5,000-CPU-cycle interval: the run spans
/// many intervals, so elided spans cross resets, which
/// `Stfm::fast_forward` must settle exactly as stepping would.
#[test]
fn four_cores_one_channel() {
    let mut kinds = SchedulerKind::all().to_vec();
    kinds.push(SchedulerKind::ParBs);
    kinds.push(SchedulerKind::StfmWith(StfmConfig {
        interval_length: 5_000,
        ..StfmConfig::default()
    }));
    assert_event_loop_matches_stepped(&mix::case_study_intensive(), &kinds, INSTS);
}

#[test]
fn eight_cores_two_channels() {
    assert_event_loop_matches_stepped(&mix::fig10_eight_core(), &SchedulerKind::all(), INSTS);
}

/// Per-bank policy state is packed `channel * 16 + bank`: this reaches
/// channels 2 and 3, which the smaller systems never use, for every
/// policy that keeps such state.
#[test]
fn sixteen_cores_four_channels() {
    let (name, profiles) = &mix::sixteen_core_mixes()[0];
    let kinds = [
        SchedulerKind::Stfm,
        SchedulerKind::FrFcfsCap { cap: 4 },
        SchedulerKind::Nfq,
    ];
    let streams = assert_event_loop_matches_stepped(profiles, &kinds, SIXTEEN_CORE_INSTS);
    for (kind, stream) in kinds.iter().zip(&streams) {
        let mut used = [false; 4];
        for e in stream {
            if let Event::DramCommandIssued { channel, .. } = e {
                used[*channel as usize] = true;
            }
        }
        assert_eq!(
            used, [true; 4],
            "{name}, {kind:?}: commands issued per channel"
        );
    }
}
