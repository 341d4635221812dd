//! Telemetry end-to-end properties: sinks must observe without perturbing,
//! and the epoch sampler's time series must agree with the final metrics.

use stfm_repro::dram::TimingParams;
use stfm_repro::sim::{AloneCache, Experiment, SchedulerKind, WorkloadMetrics};
use stfm_repro::telemetry::{self, EpochConfig, EpochSampler, Event, RingSink};
use stfm_repro::workloads::spec;

const INSTS: u64 = 30_000;

fn experiment() -> Experiment {
    Experiment::new(vec![spec::mcf(), spec::libquantum()])
        .scheduler(SchedulerKind::Stfm)
        .instructions_per_thread(INSTS)
}

fn fingerprint(m: &WorkloadMetrics) -> Vec<u64> {
    // Bit-exact, not approximate: attaching a sink must not change a
    // single scheduling decision.
    let mut v = vec![
        m.unfairness().to_bits(),
        m.weighted_speedup().to_bits(),
        m.hmean_speedup().to_bits(),
    ];
    for t in &m.threads {
        v.push(t.mem_slowdown().to_bits());
        v.push(t.shared.cycles);
        v.push(t.shared.instructions);
        v.push(t.shared.mem_stall_cycles);
    }
    v
}

/// Attaching a recording sink must leave the simulation bit-identical to
/// an untraced run (the default NullSink).
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let cache = AloneCache::new();
    let untraced = experiment().run_with_cache(&cache);
    let traced = experiment().run_traced(&cache, RingSink::new(4096));
    assert_eq!(fingerprint(&untraced), fingerprint(&traced.metrics));

    // And the sink did actually observe the run.
    let ring = traced.sink;
    assert!(ring.total_recorded() > 0, "ring sink saw no events");
    assert!(ring
        .events()
        .any(|e| matches!(e, Event::RequestServiced { .. })));
}

/// The epoch time series must be gap-free and its per-thread slowdown
/// estimates must land near the final measured memory slowdowns.
#[test]
fn epoch_slowdowns_track_final_metrics() {
    let cache = AloneCache::new();
    let sampler = EpochSampler::new(EpochConfig {
        epoch_len: 5_000,
        threads: 2,
    });
    let mut run = experiment()
        .sample_interval(500)
        .run_traced(&cache, sampler);
    let sampler = &mut run.sink;
    sampler.finish(run.final_dram_cycle);

    let rows = sampler.rows();
    assert!(rows.len() >= 2, "run too short for a time series");
    for (i, pair) in rows.windows(2).enumerate() {
        assert_eq!(pair[0].end, pair[1].start, "gap after epoch {i}");
    }
    assert!(rows.iter().any(|r| r.serviced() > 0));

    // STFM's runtime estimates vs the offline shared/alone measurement:
    // different estimators, same quantity — they must agree loosely.
    let last = rows.last().unwrap();
    for (t, measured) in run
        .metrics
        .threads
        .iter()
        .map(|t| t.mem_slowdown())
        .enumerate()
    {
        let estimated = last.slowdowns[t].expect("STFM reports every thread");
        assert!(
            (estimated - measured).abs() < 0.75,
            "thread {t}: estimated {estimated:.2} vs measured {measured:.2}"
        );
    }
}

/// The epoch sampler's burst constants are the simulated machine's: a
/// CAS moves one cache line and holds the data bus for DDR2-800's burst.
#[test]
fn epoch_burst_constants_match_the_dram_model() {
    assert_eq!(
        telemetry::LINE_BYTES,
        u64::from(stfm_repro::dram::LINE_BYTES)
    );
    assert_eq!(
        telemetry::CAS_DATA_CYCLES,
        TimingParams::ddr2_800().burst_cycles().get()
    );
}
