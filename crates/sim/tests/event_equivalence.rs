//! Differential fuzz harness for the event-driven simulation core.
//!
//! The event loop (`System` with fast-forwarding on, the default) claims
//! to be an *exact* reorganization of the stepped reference loop: jumps
//! and elisions may skip work, never change it. This suite hammers that
//! claim with seeded random configurations — scheduler × workload mix ×
//! STFM parameters × DRAM geometry (up to 16 cores on 4 channels) × run
//! length — and requires, for every case, that the two loops produce
//!
//! * the same full telemetry event stream (commands, enqueues,
//!   completions, refreshes, samples — element by element),
//! * the same frozen core and controller statistics,
//! * the same run length and truncation verdict,
//! * and the same FNV-1a completion digest (the compact fingerprint the
//!   cross-scheduler golden tests also use).
//!
//! Every case is deterministic: a failure message names the case seed,
//! and re-running the suite replays it exactly. The CI-fast tier covers
//! 200 cases; `--ignored` adds an 800-case deep sweep.

// `allow-expect-in-tests` covers `#[test]` fns only, not their helpers.
#![allow(clippy::expect_used)]

use stfm_core::StfmConfig;
use stfm_cpu::{Core, CoreConfig, PrefetchConfig};
use stfm_dram::rng::SmallRng;
use stfm_dram::DramConfig;
use stfm_mc::{ControllerConfig, MemorySystem, RowPolicy, ThreadId};
use stfm_sim::digest::Fnv64;
use stfm_sim::{RunOutcome, SchedulerKind, System};
use stfm_telemetry::{Event, RingSink};
use stfm_workloads::{micro, mix, spec, Profile, SyntheticTrace};

/// Everything that defines one differential case, drawn from the case
/// seed. `Debug` output is the reproduction recipe.
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
        0 => vec![
            spec::mcf(),
            spec::libquantum(),
            spec::omnetpp(),
            spec::gems_fdtd(),
        ],
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
        // enough to expire within a run, so the reset — and the
        // `next_event_hint` fence that keeps elided spans from crossing
        // it — is exercised, which the 2^24-cycle default never is here.
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

/// Builds the system for one mode and runs it to completion, returning
/// the outcome, the drained telemetry stream, and (for STFM policies)
/// the end-of-run register-file digest.
fn run_mode(cfg: &CaseConfig, fast_forward: bool) -> (RunOutcome, Vec<Event>, Option<u64>) {
    run_mode_with(cfg, fast_forward, None)
}

/// [`run_mode`] with an optional cancellation token installed.
fn run_mode_with(
    cfg: &CaseConfig,
    fast_forward: bool,
    cancel: Option<stfm_sim::CancelToken>,
) -> (RunOutcome, Vec<Event>, Option<u64>) {
    let policy = cfg.scheduler.build(cfg.dram.timing, &[], &[]);
    let mut mem = MemorySystem::with_controller_config(cfg.dram.clone(), cfg.ctrl, policy);
    mem.set_sink(Box::new(RingSink::new(1 << 18)));
    let core_cfg = CoreConfig {
        prefetch: cfg.prefetch,
        ..CoreConfig::paper_baseline()
    };
    let cores: Vec<Core> = cfg
        .profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let trace = SyntheticTrace::new(p.clone(), &cfg.dram, i as u32, cfg.trace_seed);
            Core::with_config(ThreadId(i as u32), Box::new(trace), core_cfg)
        })
        .collect();
    let mut sys = System::new(cores, mem);
    sys.set_fast_forward(fast_forward);
    if let Some(token) = cancel {
        sys.set_cancel_token(token);
    }
    let out = sys.run_with_warmup(cfg.insts / 4, cfg.insts, cfg.insts.saturating_mul(4_000));
    let regs = register_digest(sys.memory().policy());
    let mut sink = sys.memory_mut().take_sink();
    let ring = sink
        .as_any_mut()
        .downcast_mut::<RingSink>()
        .expect("RingSink comes back out");
    assert_eq!(ring.dropped(), 0, "telemetry ring too small for the run");
    (out, ring.events().cloned().collect(), regs)
}

/// FNV-1a over every thread's STFM slowdown-estimation registers — the
/// estimator's *internal* state, not just its scheduling decisions. The
/// incremental estimator must leave these bit-identical to the stepped
/// walk's, which is a strictly stronger claim than stream equality
/// (identical decisions could mask compensating register errors).
/// `None` for non-STFM policies.
///
/// Deliberately excluded: derived values that are recomputed on demand
/// rather than accumulated — the two published queue snapshots
/// (`bank_waiting_parallelism`, `bank_access_parallelism`, republished
/// from the live aggregates each DRAM cycle the scheduler actually runs)
/// and the slowdown pair (`slowdown`, `weighted_slowdown`, a pure
/// function of the digested accumulators, recomputed whenever the
/// estimator generation moves before a decision). When a run ends inside an
/// elided span these lag the stepped oracle's per-cycle refresh by
/// design — no decision ever reads the stale window; the debug-build
/// `audit_incremental` check compares the snapshots against a fresh
/// O(queue) walk at every real tick, and identical decisions plus
/// identical accumulators pin the slowdowns at every point they are
/// consulted.
fn register_digest(policy: &dyn stfm_mc::SchedulerPolicy) -> Option<u64> {
    let stfm = policy.as_any()?.downcast_ref::<stfm_core::Stfm>()?;
    let mut h = Fnv64::new();
    for (thread, r) in stfm.registers().threads() {
        h.write_u64(u64::from(thread.0));
        h.write_u64(r.core_tshared);
        h.write_u64(r.tshared_base);
        h.write_u64(r.tinterference as u64);
        h.write_u64(u64::from(r.stall_rate.raw()));
        h.write_u64(r.pending_interference as u64);
        h.write_u64(r.last_sample_cpu.get());
        h.write_u64(r.last_sample_tshared);
    }
    Some(h.finish())
}

/// FNV-1a over the serviced-request stream, field-for-field the same
/// fingerprint as the cross-scheduler golden digests.
fn completion_digest(events: &[Event]) -> u64 {
    let mut h = Fnv64::new();
    let mut mix = |v: u64| h.write_u64(v);
    for e in events {
        if let Event::RequestServiced {
            dram_cycle,
            cpu_cycle,
            thread,
            request,
            is_write,
            latency_cpu,
            ..
        } = e
        {
            mix(*request);
            mix(dram_cycle.get());
            mix(cpu_cycle.get());
            mix(u64::from(*thread));
            mix(u64::from(*is_write));
            mix(latency_cpu.get());
        }
    }
    h.finish()
}

/// Runs one case in both modes and cross-checks every observable.
/// Returns the case's completion digest for aggregate reporting.
fn check_case(case: u64) -> u64 {
    let cfg = draw_case(case);
    let (out_ev, stream_ev, regs_ev) = run_mode(&cfg, true);
    let (out_st, stream_st, regs_st) = run_mode(&cfg, false);
    for (i, (a, b)) in stream_ev.iter().zip(&stream_st).enumerate() {
        assert_eq!(a, b, "case {case}: event {i} diverges\nconfig: {cfg:#?}");
    }
    assert_eq!(
        stream_ev.len(),
        stream_st.len(),
        "case {case}: event counts diverge after a common prefix\nconfig: {cfg:#?}"
    );
    assert_eq!(
        out_ev.frozen, out_st.frozen,
        "case {case}: core stats diverge\nconfig: {cfg:#?}"
    );
    assert_eq!(
        out_ev.frozen_mem, out_st.frozen_mem,
        "case {case}: controller stats diverge\nconfig: {cfg:#?}"
    );
    assert_eq!(
        out_ev.cpu_cycles, out_st.cpu_cycles,
        "case {case}: run length diverges\nconfig: {cfg:#?}"
    );
    assert_eq!(
        out_ev.truncated, out_st.truncated,
        "case {case}: truncation verdict diverges\nconfig: {cfg:#?}"
    );
    assert_eq!(
        regs_ev, regs_st,
        "case {case}: STFM register files diverge\nconfig: {cfg:#?}"
    );
    let (d_ev, d_st) = (completion_digest(&stream_ev), completion_digest(&stream_st));
    assert_eq!(d_ev, d_st, "case {case}: completion digests diverge");
    d_ev
}

/// Runs cases `[from, to)` and asserts at least one non-trivial
/// completion stream was covered (the sweep must not be vacuous).
fn sweep(from: u64, to: u64) {
    let mut nonempty = 0u64;
    for case in from..to {
        if check_case(case) != Fnv64::new().finish() {
            nonempty += 1;
        }
    }
    assert!(
        nonempty * 2 >= to - from,
        "sweep {from}..{to}: only {nonempty} cases produced completions"
    );
}

#[test]
fn event_loop_matches_stepped_oracle_200_cases() {
    sweep(0, 200);
}

/// Mid-run cancellation must not corrupt anything already simulated: a
/// cancelled run's telemetry stream is an exact prefix of the
/// uncancelled oracle's. The token's deadline is already expired at
/// install time, so it fires at the loop's first masked deadline poll
/// (poll 64 — deterministic in poll count, though the two loops reach
/// it at different simulated cycles, which is why the cancelled runs
/// are compared against the full oracle rather than each other).
#[test]
#[allow(clippy::disallowed_methods)] // an already-past deadline needs a clock reading
fn cancelled_runs_are_prefixes_of_the_oracle() {
    let mut cancelled = 0u64;
    for case in 0..24 {
        let cfg = draw_case(case);
        let (_, oracle, _) = run_mode(&cfg, false);
        for fast_forward in [true, false] {
            let token = stfm_sim::CancelToken::with_deadline(std::time::Instant::now());
            let (out, stream, _) = run_mode_with(&cfg, fast_forward, Some(token));
            assert!(
                stream.len() <= oracle.len() && stream == oracle[..stream.len()],
                "case {case} (fast_forward={fast_forward}): cancelled stream \
                 is not an oracle prefix\nconfig: {cfg:#?}"
            );
            cancelled += u64::from(out.cancelled);
        }
    }
    // Not vacuous: most cases must actually stop early (a case short
    // enough to finish before the first deadline poll is fine, but the
    // sweep as a whole has to exercise the mid-run stop).
    assert!(cancelled >= 24, "only {cancelled}/48 runs were cancelled");
}

/// Deep sweep: 800 further cases. Slow; run explicitly with
/// `cargo test -p stfm-sim --test event_equivalence -- --ignored`.
#[test]
#[ignore = "deep fuzz sweep, ~minutes in debug builds"]
fn event_loop_matches_stepped_oracle_deep() {
    sweep(200, 1_000);
}
