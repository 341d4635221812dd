//! The controller's rank cache, tier-1. Each bank's decision and the
//! rank of each of its waiting requests are carried across ticks, and an
//! arrival is ranked once and merged into the carried winner. In a debug
//! build (`cargo test -q`) the controller holds every carried decision
//! and every cached rank equal to a walk that calls `rank` on every
//! waiting request, and every cached class presence equal to a fresh
//! scan; this file drives those audits through the run shape that
//! stresses the cache hardest — a cold two-thread cell of mcf and
//! libquantum, whose streaming thread keeps one bank's list deep — under
//! all six policies, on the event-driven loop and on the stepped oracle,
//! and pins the completion streams to one golden digest.
//!
//! The `#[ignore]` deep tier widens this to every two-thread mix of the
//! benchmark's cold sweep over several seeds; CI runs it optimized with
//! debug assertions on.

// `allow-expect-in-tests` covers `#[test]` fns only, not their helpers.
#![allow(clippy::expect_used)]

use stfm_repro::sim::digest::Fnv64;
use stfm_repro::sim::{AloneCache, Experiment, SchedulerKind};
use stfm_repro::telemetry::{Event, RingSink};
use stfm_repro::workloads::{spec, Profile};

/// The six policies.
const KINDS: [SchedulerKind; 6] = [
    SchedulerKind::FrFcfs,
    SchedulerKind::Fcfs,
    SchedulerKind::FrFcfsCap { cap: 4 },
    SchedulerKind::Nfq,
    SchedulerKind::Stfm,
    SchedulerKind::ParBs,
];

/// The instruction budget of a cold-sweep cell.
const INSTS: u64 = 3_000;

/// The event stream of one run, minus the end-of-run work counters,
/// which differ between the loops by design.
fn stream(profiles: &[Profile], kind: SchedulerKind, seed: u64, event_loop: bool) -> Vec<Event> {
    let run = Experiment::new(profiles.to_vec())
        .scheduler(kind)
        .instructions_per_thread(INSTS)
        .seed(seed)
        .fast_forward(event_loop)
        .run_traced(&AloneCache::new(), Box::new(RingSink::new(1 << 20)));
    assert!(!run.truncated && !run.metrics.threads.is_empty());
    let mut sink = run.sink;
    let ring = sink
        .as_any_mut()
        .downcast_mut::<RingSink>()
        .expect("RingSink comes back out");
    assert_eq!(ring.dropped(), 0, "ring too small for the run");
    ring.events()
        .filter(|e| !matches!(e, Event::EstimatorWork { .. }))
        .cloned()
        .collect()
}

/// Runs `profiles` under every policy on both loops, holds the streams
/// equal, and folds the event loop's completions into one digest.
fn check(profiles: &[Profile], seed: u64, digest: &mut Fnv64) {
    for kind in KINDS {
        let event = stream(profiles, kind, seed, true);
        let stepped = stream(profiles, kind, seed, false);
        for (i, (a, b)) in event.iter().zip(&stepped).enumerate() {
            assert_eq!(a, b, "{kind:?} seed {seed}: event {i} diverges");
        }
        assert_eq!(event.len(), stepped.len(), "{kind:?} seed {seed}");
        for e in &event {
            if let Event::RequestServiced {
                dram_cycle,
                thread,
                request,
                latency_cpu,
                ..
            } = e
            {
                digest.write_u64(*request);
                digest.write_u64(dram_cycle.get());
                digest.write_u64(u64::from(*thread));
                digest.write_u64(latency_cpu.get());
            }
        }
    }
}

#[test]
fn a_cold_sweep_cell_matches_the_oracle_under_every_policy() {
    let mut digest = Fnv64::new();
    check(&[spec::mcf(), spec::libquantum()], 1, &mut digest);
    assert_eq!(
        digest.finish(),
        0xdf33_103c_51d5_2bb9,
        "the completion streams moved: a scheduling decision changed"
    );
}

/// Every two-thread mix of the cold sweep, seeds 1 to 8.
#[test]
#[ignore = "deep tier: 5 mixes x 8 seeds x 6 policies x 2 loops"]
fn every_cold_sweep_mix_matches_the_oracle() {
    let mixes = [
        [spec::mcf(), spec::libquantum()],
        [spec::mcf(), spec::hmmer()],
        [spec::libquantum(), spec::omnetpp()],
        [spec::gems_fdtd(), spec::astar()],
        [spec::mcf(), spec::omnetpp()],
    ];
    for profiles in &mixes {
        for seed in 1..=8 {
            check(profiles, seed, &mut Fnv64::new());
        }
    }
}
