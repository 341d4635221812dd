//! The event-driven loop against the stepped oracle, as case lists over
//! [`stfm_sim::oracle`], which runs each case on both loops and holds
//! every observable equal:
//!
//! * a seeded fuzz — scheduler × workload mix × STFM parameters × DRAM
//!   geometry (up to 16 cores on 4 channels) × run length. A failure
//!   names the case and its configuration, and re-running replays it
//!   exactly. 200 cases run in four shards; the `--ignored` deep tier
//!   adds 800 more;
//! * cancelled runs, each an exact prefix of its uncancelled oracle;
//! * every scheduler on a streaming mix, a pointer chase the event loop
//!   skips most of, and two runs cut by their cycle cap;
//! * the work counters: the event loop must do less work, not merely
//!   the same;
//! * golden completion digests of the event loop on a streaming and a
//!   pointer-chase mix. After an *intentional* behaviour change, copy
//!   the new values from the failure message.

use stfm_core::{Stfm, StfmConfig, StfmWork};
use stfm_cpu::{Core, CoreConfig, PrefetchConfig, TraceOp, VecTrace};
use stfm_dram::rng::SmallRng;
use stfm_dram::{DramConfig, CPU_CYCLES_PER_DRAM_CYCLE};
use stfm_mc::{ControllerConfig, MemorySystem, RowPolicy, SchedCounters, ThreadId};
use stfm_sim::digest::Fnv64;
use stfm_sim::oracle::{compare, completion_digest, observe, Case, Run};
use stfm_sim::{CancelToken, Experiment, RunStop, SchedulerKind, System};
use stfm_telemetry::Event;
use stfm_workloads::{micro, mix, spec, Profile, SyntheticTrace};

/// Everything that defines one fuzz case, drawn from the case seed.
/// `Debug` output is the reproduction recipe.
#[derive(Debug, Clone)]
struct CaseConfig {
    scheduler: SchedulerKind,
    profiles: Vec<Profile>,
    dram: DramConfig,
    ctrl: ControllerConfig,
    prefetch: Option<PrefetchConfig>,
    insts: u64,
    trace_seed: u64,
}

/// The small-system workload palettes: the streaming case-study mix, the
/// dependent-load (pointer-chase) mix, and adversarial micro mixes. Each
/// such case takes a random 2–4 thread prefix.
fn palette(idx: u64) -> Vec<Profile> {
    match idx % 4 {
        0 => streaming(),
        1 => mix::pointer_chase(),
        2 => micro::figure3_scenario(),
        _ => vec![
            micro::stream(),
            micro::random(),
            micro::chase_sparse(),
            micro::bank_hog(),
        ],
    }
}

fn draw_scheduler(rng: &mut SmallRng) -> SchedulerKind {
    match rng.random_range(0u32..7) {
        0 => SchedulerKind::FrFcfs,
        1 => SchedulerKind::Fcfs,
        2 => SchedulerKind::FrFcfsCap {
            cap: rng.random_range(1u32..6),
        },
        3 => SchedulerKind::Nfq,
        4 => SchedulerKind::Stfm,
        // All four STFM parameters at once. The interval is drawn short
        // enough to expire within a run, so the reset — on real ticks and
        // inside elided spans, in `Stfm::fast_forward` — is exercised,
        // which the 2^24-cycle default never is here.
        5 => SchedulerKind::StfmWith(StfmConfig {
            alpha: 1.0 + rng.random_range(5u32..200) as f64 / 100.0,
            interval_length: rng.random_range(5_000u64..100_000),
            gamma_shift: rng.random_range(0u32..2),
            use_parallelism: rng.random_range(0u32..4) != 0,
        }),
        _ => SchedulerKind::ParBs,
    }
}

/// Workload and geometry. About one case in sixteen leaves the 2–4
/// thread / 1–2 channel range for the paper's many-core systems: the
/// Figure 10 mix on 8 cores and 2 channels, or a Figure 12 mix on 16
/// cores and 4 channels — the upper edge of STFM's 64-slot
/// `(channel, bank)` packing.
fn draw_system(rng: &mut SmallRng) -> (Vec<Profile>, DramConfig) {
    match rng.random_range(0u32..32) {
        0 => (mix::fig10_eight_core(), DramConfig::for_cores(8)),
        1 => {
            let mut mixes = mix::sixteen_core_mixes();
            let (_, profiles) = mixes.swap_remove(rng.random_range(0usize..mixes.len()));
            (profiles, DramConfig::for_cores(16))
        }
        _ => {
            let threads = rng.random_range(2usize..5);
            let mut profiles = palette(rng.random_range(0u64..4));
            profiles.truncate(threads);
            let mut dram = DramConfig::for_cores(threads as u32);
            dram.channels = rng.random_range(1u32..3);
            (profiles, dram)
        }
    }
}

fn draw_case(case: u64) -> CaseConfig {
    let mut rng = SmallRng::seed_from_u64(0xE4E4_BA5E ^ (case * 0x9E37_79B9));
    let (profiles, mut dram) = draw_system(&mut rng);
    dram.banks = if rng.random_range(0u32..2) == 0 { 4 } else { 8 };
    dram.refresh_enabled = rng.random_range(0u32..4) != 0;
    let ctrl = ControllerConfig {
        row_policy: if rng.random_range(0u32..4) == 0 {
            RowPolicy::ClosedPage
        } else {
            RowPolicy::OpenPage
        },
        // Occasionally shrink the buffers so back-pressure (and the
        // cores' retry-gate machinery) engages hard.
        ..if rng.random_range(0u32..3) == 0 {
            ControllerConfig {
                read_capacity: 16,
                write_capacity: 8,
                drain_high: 6,
                drain_low: 2,
                row_policy: RowPolicy::OpenPage,
            }
        } else {
            ControllerConfig::paper_baseline()
        }
    };
    CaseConfig {
        scheduler: draw_scheduler(&mut rng),
        profiles,
        dram,
        ctrl,
        prefetch: (rng.random_range(0u32..4) == 0).then(PrefetchConfig::default),
        // Short measured windows: equivalence bugs are configuration
        // bugs, not length bugs, and even 150 instructions crosses
        // multiple refresh intervals and drain flips.
        insts: rng.random_range(150u64..500),
        trace_seed: rng.random_range(1u64..1_000_000),
    }
}

fn fuzz_system(cfg: &CaseConfig) -> System {
    let policy = cfg.scheduler.build(cfg.dram.timing, &[], &[]);
    let mem = MemorySystem::with_controller_config(cfg.dram.clone(), cfg.ctrl, policy);
    let core_cfg = CoreConfig {
        prefetch: cfg.prefetch,
        ..CoreConfig::paper_baseline()
    };
    let cores = cfg
        .profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let trace = SyntheticTrace::new(p.clone(), &cfg.dram, i as u32, cfg.trace_seed);
            Core::with_config(ThreadId(i as u32), Box::new(trace), core_cfg)
        })
        .collect();
    System::new(cores, mem)
}

/// Fuzz case `case`; with `cancel`, every run of it carries a token
/// whose deadline has already passed.
fn fuzz_case(case: u64, cancel: bool) -> Case {
    let cfg = draw_case(case);
    let label = format!("case {case} (cancelled: {cancel}), config {cfg:#?}");
    let insts = cfg.insts;
    Case::new(label, insts / 4, insts, insts * 4_000, move || {
        let mut sys = fuzz_system(&cfg);
        if cancel {
            #[allow(clippy::disallowed_methods)] // an already-past deadline needs a clock reading
            sys.set_cancel_token(CancelToken::with_deadline(std::time::Instant::now()));
        }
        sys
    })
}

/// Compares fuzz cases `[from, to)` and asserts that at least half of
/// them completed a request: the sweep must not be vacuous.
fn sweep(from: u64, to: u64) {
    let mut nonempty = 0u64;
    for case in from..to {
        let (event, _) = compare(&fuzz_case(case, false));
        if completion_digest(&event.stream) != Fnv64::new().finish() {
            nonempty += 1;
        }
    }
    assert!(
        nonempty * 2 >= to - from,
        "sweep {from}..{to}: only {nonempty} cases produced completions"
    );
}

#[test]
fn fuzz_cases_0_to_50() {
    sweep(0, 50);
}

#[test]
fn fuzz_cases_50_to_100() {
    sweep(50, 100);
}

#[test]
fn fuzz_cases_100_to_150() {
    sweep(100, 150);
}

#[test]
fn fuzz_cases_150_to_200() {
    sweep(150, 200);
}

/// The deep tier: 800 further cases, in four shards. Slow in a debug
/// build; CI runs it optimized with debug assertions on.
#[test]
#[ignore = "deep fuzz sweep"]
fn fuzz_cases_200_to_400() {
    sweep(200, 400);
}

#[test]
#[ignore = "deep fuzz sweep"]
fn fuzz_cases_400_to_600() {
    sweep(400, 600);
}

#[test]
#[ignore = "deep fuzz sweep"]
fn fuzz_cases_600_to_800() {
    sweep(600, 800);
}

#[test]
#[ignore = "deep fuzz sweep"]
fn fuzz_cases_800_to_1000() {
    sweep(800, 1_000);
}

/// Mid-run cancellation must not corrupt anything already simulated: a
/// cancelled run's telemetry stream is an exact prefix of the
/// uncancelled oracle's. The token's deadline is already expired at
/// install time, so it fires at the loop's first masked deadline poll
/// (poll 64 — deterministic in poll count, though the two loops reach
/// it at different simulated cycles, which is why the cancelled runs
/// are compared against the full oracle rather than each other).
#[test]
fn cancelled_runs_are_prefixes_of_the_oracle() {
    let mut cancelled = 0u64;
    for case in 0..24 {
        let oracle = observe(&fuzz_case(case, false), false).stream;
        let stopped = fuzz_case(case, true);
        for fast_forward in [true, false] {
            let run = observe(&stopped, fast_forward);
            assert!(
                oracle.starts_with(&run.stream),
                "{} (fast_forward={fast_forward}): not an oracle prefix",
                stopped.label
            );
            cancelled += u64::from(run.outcome.cancelled);
        }
    }
    // Not vacuous: most cases must actually stop early (a case short
    // enough to finish before the first deadline poll is fine, but the
    // sweep as a whole has to exercise the mid-run stop).
    assert!(cancelled >= 24, "only {cancelled}/48 runs were cancelled");
}

/// The streaming case-study mix: mcf, libquantum, omnetpp, gems_fdtd.
fn streaming() -> Vec<Profile> {
    vec![
        spec::mcf(),
        spec::libquantum(),
        spec::omnetpp(),
        spec::gems_fdtd(),
    ]
}

#[test]
fn every_scheduler_matches_on_the_streaming_mix() {
    for kind in SchedulerKind::all() {
        let exp = Experiment::new(streaming())
            .scheduler(kind)
            .instructions_per_thread(4_000)
            .seed(7);
        let (event, _) = compare(&Case::experiment(format!("{kind:?}"), &exp));
        assert_eq!(
            RunStop::of(&event.outcome),
            None,
            "{kind:?}: the run did not complete"
        );
        let served = |e: &Event| matches!(e, Event::RequestServiced { .. });
        assert!(
            event.stream.iter().any(served),
            "{kind:?}: no completions observed"
        );
    }
}

/// `n` cores under FR-FCFS, each loading `loads` lines `bubbles`
/// instructions apart. With `dependent`, each load waits for the one
/// before, leaving long stretches where the whole system provably idles:
/// the elision sweet spot.
fn loads_system(n: usize, loads: u64, bubbles: u32, dependent: bool) -> System {
    let dram = DramConfig::for_cores(n as u32);
    let mem = MemorySystem::new(dram, Box::new(stfm_mc::FrFcfs::new()));
    let cores = (0..n)
        .map(|i| {
            let ops = (0..loads)
                .map(|k| TraceOp {
                    dependent,
                    ..TraceOp::load(((i as u64) << 28) | (k * 64 * 131), bubbles)
                })
                .collect();
            let trace = VecTrace::new(format!("t{i}"), ops);
            Core::new(ThreadId(i as u32), Box::new(trace))
        })
        .collect();
    System::new(cores, mem)
}

#[test]
fn a_pointer_chase_matches_and_skips_cycles() {
    let case = Case::new("pointer chase", 0, 1_200, 50_000_000, || {
        loads_system(2, 400, 2, true)
    });
    let (event, stepped) = compare(&case);
    assert_eq!(
        RunStop::of(&event.outcome),
        None,
        "the pointer chase did not complete"
    );
    let skipped = |run: &Run| run.system.jumped_cycles() + run.system.elided_cycles();
    // Not a vacuous pass: the event loop must actually skip cycles.
    assert!(skipped(&event) > 0, "the event loop skipped nothing");
    assert_eq!(skipped(&stepped), 0, "the stepped loop skipped cycles");
}

/// The cap fires on the same cycle whether or not dead spans are
/// skipped, so the run length and the verdict stay bit-identical.
#[test]
fn truncation_is_loop_invariant() {
    let cases = [
        Case::new("independent loads", 0, u64::MAX, 10_000, || {
            loads_system(2, 64, 6, false)
        }),
        Case::new("pointer chase", 0, u64::MAX, 10_000, || {
            loads_system(1, 400, 2, true)
        }),
    ];
    for case in &cases {
        let (event, _) = compare(case);
        assert!(event.outcome.truncated, "{}: not truncated", case.label);
    }
}

/// The instruction budget of the work-counter runs.
const WORK_INSTS: u64 = 20_000;

/// `kind` on `profiles` at [`WORK_INSTS`], seed 1.
fn work_case(kind: SchedulerKind, profiles: Vec<Profile>) -> Case {
    let exp = Experiment::new(profiles)
        .scheduler(kind)
        .instructions_per_thread(WORK_INSTS);
    Case::experiment(format!("{kind:?}"), &exp)
}

/// A completed run's work counters: the estimator's (zero under other
/// policies), the controller's, and the DRAM cycles simulated.
fn work(run: &Run) -> (StfmWork, SchedCounters, u64) {
    assert_eq!(
        RunStop::of(&run.outcome),
        None,
        "a work-counter run did not complete"
    );
    let stfm = run.stfm().map(Stfm::work).unwrap_or_default();
    let sched = run.system.memory().sched_counters();
    let cycles = run.outcome.cpu_cycles / CPU_CYCLES_PER_DRAM_CYCLE;
    (stfm, sched, cycles)
}

/// STFM on the streaming mix, one run per loop, held equal by the oracle.
///
/// On a bandwidth-bound mix the estimator must maintain its state
/// incrementally: full O(queue) rebuilds are reserved for the rare
/// fairness tie-break scan, so their count tracks events, not cycles.
/// And the event loop must visit the scheduler strictly fewer times than
/// the stepped loop: that difference is the cycle-elision win, asserted
/// without a clock.
#[test]
fn stfm_streaming_rebuilds_track_events_and_the_event_loop_schedules_less() {
    let (event, stepped) = compare(&work_case(SchedulerKind::Stfm, streaming()));
    let (stfm, sched, cycles) = work(&event);
    let (_, stepped_sched, _) = work(&stepped);
    println!("event:   {stfm:?} {sched:?} over {cycles} dram cycles");
    println!("stepped: {stepped_sched:?}");

    assert!(cycles > 10_000, "run too short to be meaningful: {cycles}");
    // The old implementation rebuilt once per DRAM cycle (full_rebuilds
    // == cycles). Incremental maintenance leaves only tie-break scans.
    assert!(
        stfm.full_rebuilds * 10 < cycles,
        "full rebuilds not O(events): {} rebuilds over {cycles} cycles",
        stfm.full_rebuilds
    );
    // Lifecycle transitions (enqueue, first command, column command,
    // expiry) drive O(1) updates instead.
    assert!(
        stfm.incremental_updates > 0,
        "incremental estimator updates never ran"
    );
    // The gen-gated decision cache must fire: quiet ticks reuse the
    // previous slowdown ranking instead of recomputing it.
    assert!(
        stfm.decides_carried > 0,
        "decision cache never carried a decision"
    );
    assert!(
        sched.sched_visits < stepped_sched.sched_visits,
        "event loop did not elide scheduler visits: event {} vs stepped {}",
        sched.sched_visits,
        stepped_sched.sched_visits
    );
    assert!(
        sched.rank_carried > 0,
        "per-bank decision cache never carried a ranking"
    );
}

/// On the pointer-chase mix the queues are mostly empty, so whole quiet
/// cycles are elided before the scheduler is ever consulted — the
/// decision carry there happens at the elision level (an elided cycle is
/// an implicitly carried decision), and the real ticks that remain are
/// exactly the busy ones, where the paced interference drain
/// legitimately moves the estimator generation. The invariants are
/// therefore: rebuilds stay O(events), the scheduler is visited on
/// strictly fewer cycles than the run has, at most one mode decision is
/// recomputed per visit, and the per-bank rank cache carries more often
/// than it scans.
#[test]
fn pointer_chase_elides_and_carries() {
    let run = observe(&work_case(SchedulerKind::Stfm, mix::pointer_chase()), true);
    let (stfm, sched, cycles) = work(&run);
    println!("pointer-chase/event: {stfm:?} {sched:?} over {cycles} dram cycles");

    assert!(
        stfm.full_rebuilds * 10 < cycles,
        "full rebuilds not O(events): {} rebuilds over {cycles} cycles",
        stfm.full_rebuilds
    );
    assert!(
        sched.sched_visits < cycles,
        "latency-bound mix elided no cycles: {} visits over {cycles} cycles",
        sched.sched_visits
    );
    assert!(
        stfm.decides_recomputed <= sched.sched_visits,
        "more than one mode recompute per scheduler visit: {} vs {}",
        stfm.decides_recomputed,
        sched.sched_visits
    );
    assert!(
        sched.rank_carried > sched.rank_scans,
        "per-bank decision cache should carry more than it scans: \
         carried {} vs scanned {}",
        sched.rank_carried,
        sched.rank_scans
    );
}

/// The per-bank decision cache serves the stateful policies too, not
/// only those whose ranks depend on request and bank state alone: NFQ,
/// FR-FCFS+Cap and PAR-BS carry every bank winner their own state did
/// not move.
#[test]
fn stateful_policies_carry_bank_decisions() {
    for kind in [
        SchedulerKind::Nfq,
        SchedulerKind::FrFcfsCap { cap: 4 },
        SchedulerKind::ParBs,
    ] {
        let (_, sched, cycles) = work(&observe(&work_case(kind, streaming()), true));
        println!("{kind:?}/event: {sched:?} over {cycles} dram cycles");
        assert!(
            sched.rank_carried > 0,
            "{kind:?}: per-bank decision cache never carried a ranking"
        );
    }
}

/// Runs every golden entry on the event loop (3 000 instructions per
/// thread, seed 11) and asserts its completion digest, reporting all
/// current values on divergence.
fn check_goldens(profiles: Vec<Profile>, golden: &[(SchedulerKind, u64)]) {
    let mut failures = String::new();
    for &(kind, expect) in golden {
        let exp = Experiment::new(profiles.clone())
            .scheduler(kind)
            .instructions_per_thread(3_000)
            .seed(11);
        let run = observe(&Case::experiment(format!("{kind:?}"), &exp), true);
        assert_eq!(
            RunStop::of(&run.outcome),
            None,
            "{kind:?}: the run did not complete"
        );
        let got = completion_digest(&run.stream);
        if got != expect {
            failures.push_str(&format!("        (SchedulerKind::{kind:?}, {got:#x}),\n"));
        }
    }
    assert!(
        failures.is_empty(),
        "completion digests diverged; current values:\n{failures}"
    );
}

#[test]
fn completion_streams_match_goldens() {
    check_goldens(
        streaming(),
        &[
            (SchedulerKind::FrFcfs, 0x516443d7429d06c7),
            (SchedulerKind::Fcfs, 0xe2573d87c5116701),
            (SchedulerKind::FrFcfsCap { cap: 4 }, 0xf414530b2bb7a865),
            (SchedulerKind::Nfq, 0xa5c2ee8152755867),
            (SchedulerKind::Stfm, 0xb0ca41e7e50d5377),
            (SchedulerKind::ParBs, 0xd00ed1c779a67942),
        ],
    );
}

/// The dependent-load regime: serial miss chains and long quiet spans
/// instead of bandwidth saturation, so the event loop's jumps and
/// elisions carry most of the run.
#[test]
fn pointer_chase_streams_match_goldens() {
    check_goldens(
        mix::pointer_chase(),
        &[
            (SchedulerKind::FrFcfs, 0x808ec81a31f11608),
            (SchedulerKind::Fcfs, 0xad04a43e0a4621b5),
            (SchedulerKind::FrFcfsCap { cap: 4 }, 0xb76722b48eb707a1),
            (SchedulerKind::Nfq, 0xdcf3dd918e5f048b),
            (SchedulerKind::Stfm, 0x5ce7f47243925b85),
            (SchedulerKind::ParBs, 0x6fc44e1735f8243f),
        ],
    );
}
