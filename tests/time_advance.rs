//! Time advance, tier-1: the event-driven loop (`predict_next`, elided
//! ticks, the deferred policy residue) must leave every simulated outcome
//! bit-identical to the stepped oracle, for every scheduler, on one
//! channel and on two, and for STFM, FR-FCFS+Cap and NFQ on four — and it
//! must actually elide something. [`stfm_repro::sim::oracle`] runs each
//! case on both loops and holds every observable equal. In a debug build
//! (`cargo test -q`) the controller also checks every carried bank
//! decision against a fresh walk here. The seeded fuzz in
//! `crates/sim/tests/event_equivalence.rs` goes deeper; this is the
//! slice `cargo test -q` sees.

use stfm_repro::sim::oracle::{compare, Case, Run};
use stfm_repro::sim::{Experiment, RunStop, SchedulerKind};
use stfm_repro::stfm::StfmConfig;
use stfm_repro::telemetry::Event;
use stfm_repro::workloads::{mix, Profile};

const INSTS: u64 = 2_000;

/// The 16-core budget, kept tiny: every channel sees commands from 5
/// instructions per thread up (at 4 the run hits its cycle cap first),
/// and 10 leaves a margin.
const SIXTEEN_CORE_INSTS: u64 = 10;

/// Compares each of `kinds` on both loops, requires each run to complete
/// and the event loop to pay for fewer scheduling passes; returns the
/// event loop's streams, one per kind.
fn assert_event_loop_matches_stepped(
    profiles: &[Profile],
    kinds: &[SchedulerKind],
    insts: u64,
) -> Vec<Vec<Event>> {
    let visits = |run: &Run| run.system.memory().sched_counters().sched_visits;
    kinds
        .iter()
        .map(|&kind| {
            let exp = Experiment::new(profiles.to_vec())
                .scheduler(kind)
                .instructions_per_thread(insts);
            let (event, stepped) = compare(&Case::experiment(format!("{kind:?}"), &exp));
            assert_eq!(
                RunStop::of(&event.outcome),
                None,
                "{kind:?}: the run did not complete"
            );
            assert!(
                visits(&event) < visits(&stepped),
                "{kind:?}: the event loop elided nothing ({} scheduling passes vs {} stepped)",
                visits(&event),
                visits(&stepped)
            );
            event.stream
        })
        .collect()
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
