//! Cross-crate integrity checks: timing legality under every scheduler,
//! request conservation, determinism, and metric plumbing.

use stfm_repro::cpu::Core;
use stfm_repro::dram::{ClockRatio, DramConfig, DramCycle};
use stfm_repro::mc::test_util::{assert_timing_clean, audit_timing};
use stfm_repro::mc::{MemorySystem, ThreadId};
use stfm_repro::sim::{AloneCache, Budget, Experiment, RunStop, SchedulerKind, System};
use stfm_repro::workloads::{mix, spec, SyntheticTrace};

/// Runs `exp`'s shared system over `insts` instructions per thread under
/// the independent timing audit, which checks every issued command.
fn assert_audited_run_clean(exp: Experiment, insts: u64) {
    let mut sys = exp.shared_system();
    audit_timing(sys.memory_mut());
    let out = sys.run(&[Budget::of(insts)]).remove(0);
    assert_eq!(RunStop::of(&out), None, "{}", sys.memory().policy().name());
    assert_timing_clean(sys.memory_mut());
}

/// Every scheduler must produce DDR2-legal command streams end to end.
#[test]
fn all_schedulers_are_timing_clean() {
    for kind in SchedulerKind::all() {
        assert_audited_run_clean(
            Experiment::new(mix::case_study_mixed()).scheduler(kind),
            8_000,
        );
    }
}

/// ... including with refresh disabled and on swept DRAM geometries.
#[test]
fn timing_clean_across_geometries() {
    for banks in [4u32, 16] {
        for row_kb in [1u32, 4] {
            let cfg = DramConfig::for_cores(4)
                .with_geometry(Some(banks), Some(row_kb))
                .unwrap();
            let exp = Experiment::new(mix::case_study_non_intensive())
                .scheduler(SchedulerKind::Stfm)
                .dram_config(cfg);
            assert_audited_run_clean(exp, 5_000);
        }
    }
}

/// Whole-experiment determinism: identical runs produce identical metrics,
/// and different seeds produce different (but valid) metrics.
#[test]
fn experiments_are_deterministic_per_seed() {
    let exp = |seed: u64| {
        Experiment::new(mix::case_study_mixed())
            .scheduler(SchedulerKind::Stfm)
            .instructions_per_thread(10_000)
            .seed(seed)
            .run()
    };
    let (a, b, c) = (exp(7), exp(7), exp(8));
    assert_eq!(a.unfairness(), b.unfairness());
    assert_eq!(a.weighted_speedup(), b.weighted_speedup());
    for (x, y) in a.threads.iter().zip(&b.threads) {
        assert_eq!(x.shared, y.shared);
    }
    assert_ne!(a.unfairness(), c.unfairness(), "seed must matter");
}

/// Request conservation on the raw controller: every accepted request
/// completes exactly once, under an adversarial mixed workload.
#[test]
fn memory_system_conserves_requests() {
    use stfm_repro::dram::PhysAddr;
    use stfm_repro::mc::AccessKind;

    for kind in SchedulerKind::all() {
        let cfg = DramConfig::for_cores(4);
        let mut mem = MemorySystem::new(cfg.clone(), kind.build(cfg.timing, &[], &[]));
        audit_timing(&mut mem);
        let mut accepted = 0u64;
        let mut completed = 0u64;
        let mut now = DramCycle::ZERO;
        for i in 0..3_000u64 {
            let thread = ThreadId((i % 4) as u32);
            let addr = PhysAddr((i * 64).wrapping_mul(2654435761) % (1 << 30));
            let kind_a = if i % 5 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            if mem
                .try_enqueue(thread, kind_a, addr, ClockRatio::PAPER.dram_to_cpu(now), 0)
                .is_some()
            {
                accepted += 1;
            }
            mem.tick(now);
            completed += mem.drain_completions().len() as u64;
            now += 1;
        }
        let mut guard = 0;
        while mem.outstanding() > 0 {
            mem.tick(now);
            completed += mem.drain_completions().len() as u64;
            now += 1;
            guard += 1;
            assert!(guard < 2_000_000, "{}: wedged", kind.name());
        }
        assert_eq!(
            accepted,
            completed,
            "{}: lost/duplicated requests",
            kind.name()
        );
        assert_timing_clean(&mut mem);
    }
}

/// A full multi-core system drains: no deadlock under back-pressure with
/// writeback-heavy traffic.
#[test]
fn writeback_heavy_system_makes_progress() {
    let profiles = [spec::lbm(), spec::lbm(), spec::milc(), spec::lbm()];
    let dram = DramConfig::for_cores(4);
    let mem = MemorySystem::new(
        dram.clone(),
        SchedulerKind::Stfm.build(dram.timing, &[], &[]),
    );
    let cores: Vec<Core> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let tr = SyntheticTrace::new(p.clone(), &dram, i as u32, 3);
            Core::new(ThreadId(i as u32), Box::new(tr))
        })
        .collect();
    let mut sys = System::new(cores, mem);
    let out = sys.run_with_warmup(0, 15_000, 500_000_000);
    assert!(!out.truncated, "system wedged under writeback pressure");
    for f in &out.frozen {
        assert!(f.instructions >= 15_000);
    }
}

/// The alone-run cache returns bit-identical baselines, and sharing it
/// across schedulers does not perturb results.
#[test]
fn alone_cache_consistency() {
    let cache = AloneCache::new();
    let with_cache = Experiment::new(vec![spec::omnetpp(), spec::libquantum()])
        .scheduler(SchedulerKind::Nfq)
        .instructions_per_thread(8_000)
        .run_with_cache(&cache);
    let without = Experiment::new(vec![spec::omnetpp(), spec::libquantum()])
        .scheduler(SchedulerKind::Nfq)
        .instructions_per_thread(8_000)
        .run();
    assert_eq!(with_cache.unfairness(), without.unfairness());
    assert_eq!(cache.len(), 2);
}

/// Channel scaling: the 8-core configuration uses 2 channels and must
/// spread traffic across both.
#[test]
fn multi_channel_systems_use_all_channels() {
    let m = Experiment::new(mix::fig10_eight_core())
        .scheduler(SchedulerKind::FrFcfs)
        .instructions_per_thread(5_000)
        .run();
    // All threads made progress, which requires both channels to flow.
    // (The measurement window is instruction-budget wide up to a few
    // instructions of snapshot quantization.)
    for t in &m.threads {
        assert!(t.shared.instructions >= 4_900, "{} starved", t.name);
    }
}

/// Chaos monkey: a policy that makes arbitrary (but deterministic)
/// scheduling choices every cycle. Whatever it picks, the controller must
/// emit only DDR2-legal commands, never lose a request, and never wedge.
#[test]
fn chaos_policy_cannot_break_the_controller() {
    use stfm_repro::dram::PhysAddr;
    use stfm_repro::mc::test_util::ChaosPolicy;
    use stfm_repro::mc::AccessKind;

    for seed in [1u64, 7, 42] {
        let cfg = DramConfig::for_cores(4);
        let mut mem = MemorySystem::new(cfg.clone(), Box::new(ChaosPolicy { seed }));
        audit_timing(&mut mem);
        let mut accepted = 0u64;
        let mut completed = 0u64;
        let mut now = DramCycle::ZERO;
        for i in 0..4_000u64 {
            let addr = PhysAddr((i.wrapping_mul(2654435761 + seed) * 64) % (1 << 31));
            let kind = if i % 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            if mem
                .try_enqueue(
                    ThreadId((i % 4) as u32),
                    kind,
                    addr,
                    ClockRatio::PAPER.dram_to_cpu(now),
                    0,
                )
                .is_some()
            {
                accepted += 1;
            }
            mem.tick(now);
            completed += mem.drain_completions().len() as u64;
            now += 1;
        }
        let mut guard = 0;
        while mem.outstanding() > 0 {
            mem.tick(now);
            completed += mem.drain_completions().len() as u64;
            now += 1;
            guard += 1;
            assert!(guard < 3_000_000, "chaos seed {seed} wedged the controller");
        }
        assert_eq!(accepted, completed, "chaos seed {seed} lost requests");
        assert_timing_clean(&mut mem);
    }
}
