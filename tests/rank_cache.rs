//! The controller's rank cache, tier-1. Each bank's decision and the
//! rank of each of its waiting requests are carried across ticks, and an
//! arrival is ranked once and merged into the carried winner. In a debug
//! build (`cargo test -q`) the controller holds every carried decision
//! and every cached rank equal to a walk that calls `rank` on every
//! waiting request, and every cached class presence equal to a fresh
//! scan; this file drives those audits through the run shape that
//! stresses the cache hardest — a cold two-thread cell of mcf and
//! libquantum, whose streaming thread keeps one bank's list deep — under
//! all five policies. [`stfm_repro::sim::oracle`] holds the event-driven
//! loop equal to the stepped oracle on each, and the event loop's
//! completion streams are pinned to one golden digest.
//!
//! The `#[ignore]` deep tier widens this to every two-thread mix of the
//! benchmark's cold sweep over several seeds; CI runs it optimized with
//! debug assertions on.

use stfm_repro::sim::oracle::{compare, completion_digest, Case};
use stfm_repro::sim::{Experiment, RunStop, SchedulerKind};
use stfm_repro::telemetry::Event;
use stfm_repro::workloads::{spec, Profile};

/// The five policies.
const KINDS: [SchedulerKind; 5] = [
    SchedulerKind::FrFcfs,
    SchedulerKind::Fcfs,
    SchedulerKind::FrFcfsCap { cap: 4 },
    SchedulerKind::Nfq,
    SchedulerKind::Stfm,
];

/// Compares a cold-sweep cell (3 000 instructions per thread) of
/// `profiles` under every policy on both loops; returns the event loop's
/// streams, one per policy.
fn check(profiles: &[Profile], seed: u64) -> Vec<Vec<Event>> {
    KINDS
        .iter()
        .map(|&kind| {
            let exp = Experiment::new(profiles.to_vec())
                .scheduler(kind)
                .instructions_per_thread(3_000)
                .seed(seed);
            let (event, _) = compare(&Case::experiment(format!("{kind:?} seed {seed}"), &exp));
            assert_eq!(
                RunStop::of(&event.outcomes[0]),
                None,
                "{kind:?} seed {seed}: did not complete"
            );
            event.stream
        })
        .collect()
}

#[test]
fn a_cold_sweep_cell_matches_the_oracle_under_every_policy() {
    let streams = check(&[spec::mcf(), spec::libquantum()], 1);
    assert_eq!(
        completion_digest(streams.iter().flatten()),
        0x57d4_3bc6_1b2d_85d8,
        "the completion streams moved: a scheduling decision changed"
    );
}

/// Every two-thread mix of the cold sweep, seeds 1 to 8.
#[test]
#[ignore = "deep tier: 5 mixes x 8 seeds x 5 policies x 2 loops"]
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
            check(profiles, seed);
        }
    }
}
