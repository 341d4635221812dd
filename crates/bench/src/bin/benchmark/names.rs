//! The benchmark's declared vocabulary: workloads, end-to-end metrics
//! and per-layer metrics, with units, direction and bounds.
//!
//! `BENCHMARK.json` at the repository root lists exactly these names
//! (a unit test compares the two), every emitted result is built by
//! iterating these tables, and `diff`/`selfcheck` read bounds and
//! exactness from here — so a name exists in one place only.

/// Scheduler suffixes, in `SchedulerKind::all()` / `SchedSpec::all()`
/// order (the `SchedSpec` tokens).
pub const SCHEDS: [&str; 5] = ["frfcfs", "fcfs", "cap", "nfq", "stfm"];

/// Index of STFM in [`SCHEDS`].
pub const STFM: usize = 4;

/// Index of FR-FCFS in [`SCHEDS`].
pub const FRFCFS: usize = 0;

/// One benchmark workload.
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Timed repetitions when neither `--seconds` nor `--reps` is given.
    pub reps: usize,
    /// Share by which two runs of one seed may differ on this workload's
    /// times, rates and latencies before `diff` and `selfcheck` call it a
    /// change: three times the widest fixed-seed spread seen for the
    /// workload, to the nearest 0.05 (README, "Reading `diff` and
    /// `selfcheck`").
    pub same_seed_bound: f64,
}

/// The five workloads.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "intensive4",
        why: "paper case study I on 4 cores: bandwidth-bound, deep queues, so mc ranking and the STFM estimator are worked hardest; has a paper reference (Fig. 6)",
        reps: 5,
        same_seed_bound: 0.20,
    },
    Workload {
        name: "chase4",
        why: "pointer-chase mix on 4 cores: latency-bound, short queues; the event loop skips its largest share of DRAM cycles here (35%), so a jump or prediction gain shows here first",
        reps: 5,
        same_seed_bound: 0.15,
    },
    Workload {
        name: "scale16",
        why: "the three Fig. 12 mixes on 16 cores and 4 channels: cpu stepping x16 and per-channel scans x4 share the time evenly, and it is the accuracy workload (Fig. 12)",
        reps: 5,
        same_seed_bound: 0.10,
    },
    Workload {
        name: "sweep_cold",
        why: "1000 short cells through run_sweep with cold on-disk caches, jobs 2: a thousand constructions, warm-ups and cold alone baselines plus serve's keying and stores; little steady ticking",
        reps: 3,
        same_seed_bound: 0.25,
    },
    Workload {
        name: "serve_cells",
        why: "closed loop, one client, 240 one-cell lines against in-process serve: protocol, emitter and cache-hit path, latency instead of throughput",
        reps: 3,
        same_seed_bound: 0.15,
    },
];

/// The workload whose process also runs the kernels. They take no
/// workload input, so they are measured once, beside the workload with
/// the shortest invocation, and read 0 on the others.
pub const KERNELS_RUN_IN: &str = "serve_cells";

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A host-time end-to-end metric (measured with tracing off).
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the base value by which the metric may worsen before a
    /// change is a regression.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports with `--trace 0`.
///
/// These are the driver's bounds: one per metric for all five workloads,
/// each three times the widest spread the metric showed over ten runs of
/// different seeds on any workload, rounded up to the next 0.05. The
/// issue asked for 10-15%. The noisiest workload decides, and for every
/// metric that is `sweep_cold` (7-10% between quartiles) or, for peak
/// memory, the two threaded workloads (7-8%), which puts every bound at
/// the contract's maximum; `baseline.json` records each spread. Runs of
/// one seed are held closer: see [`bound_between_runs`].
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_kcycles_per_s",
        unit: "kcycles/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "stfm_kcycles_per_s",
        unit: "kcycles/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cell_latency_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cell_latency_ms_p95",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// How a per-layer value behaves across two runs of one build.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Class {
    /// A deterministic count or simulated value: repeats exactly for a
    /// seed, compared exactly by `diff` and `selfcheck`.
    Exact,
    /// A simulated end-to-end outcome: exact for a seed like
    /// [`Class::Exact`], and additionally held to the given bound by
    /// `diff` when two builds are compared.
    Outcome(f64),
    /// Host time or a ratio of host times: noisy, never gated.
    Host,
}

/// A per-layer metric (reported with `--trace 1`).
pub struct Layer {
    /// `<layer>.<name>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Exactness class.
    pub class: Class,
}

const fn count(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        better: Better::Lower,
        class: Class::Exact,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        class: Class::Exact,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        class: Class::Host,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, grouped by layer. A metric a workload cannot
/// observe from outside the layer reads 0 there (see the README).
pub const PER_LAYER: [Layer; 100] = [
    // Simulated end-to-end outcomes: exact per seed, so they are gated by
    // exact comparison and by these bounds in `diff`, not by a noise
    // bound in `BENCHMARK.json`.
    Layer {
        name: "fail_share",
        unit: "share",
        better: Lower,
        class: Class::Outcome(0.0),
    },
    Layer {
        name: "stfm_unfairness",
        unit: "ratio",
        better: Lower,
        class: Class::Outcome(0.02),
    },
    Layer {
        name: "stfm_weighted_speedup",
        unit: "ratio",
        better: Higher,
        class: Class::Outcome(0.02),
    },
    Layer {
        name: "stfm_unfairness_rank",
        unit: "rank",
        better: Lower,
        class: Class::Outcome(0.0),
    },
    // sim
    host("sim.wall_s.frfcfs", "s", Lower),
    host("sim.wall_s.fcfs", "s", Lower),
    host("sim.wall_s.cap", "s", Lower),
    host("sim.wall_s.nfq", "s", Lower),
    host("sim.wall_s.stfm", "s", Lower),
    count("sim.dram_cycles"),
    count("sim.insts"),
    count("sim.requests"),
    count("sim.real_ticks"),
    exact("sim.jumped_cycles", "count", Higher),
    exact("sim.elided_cycles", "count", Higher),
    host("sim.host_ns_per_real_tick", "ns", Lower),
    host("sim.stepped_wall_s", "s", Lower),
    host("sim.event_speedup", "ratio", Higher),
    host("sim.alone_run_s", "s", Lower),
    host("sim.construct_us", "us", Lower),
    host("sim.loop_self_s", "s", Lower),
    exact("sim.unfairness.frfcfs", "ratio", Lower),
    exact("sim.unfairness.fcfs", "ratio", Lower),
    exact("sim.unfairness.cap", "ratio", Lower),
    exact("sim.unfairness.nfq", "ratio", Lower),
    exact("sim.unfairness.stfm", "ratio", Lower),
    exact("sim.wspeedup.frfcfs", "ratio", Higher),
    exact("sim.wspeedup.fcfs", "ratio", Higher),
    exact("sim.wspeedup.cap", "ratio", Higher),
    exact("sim.wspeedup.nfq", "ratio", Higher),
    exact("sim.wspeedup.stfm", "ratio", Higher),
    // mc
    host("mc.tick_s", "s", Lower),
    host("mc.drain_s", "s", Lower),
    count("mc.sched_visits"),
    count("mc.rank_scans"),
    exact("mc.rank_carried", "count", Higher),
    exact("mc.carry_ratio", "ratio", Higher),
    count("mc.enqueued"),
    count("mc.completed"),
    exact("mc.row_hit_rate", "ratio", Higher),
    exact("mc.avg_read_latency_cpu", "cycles", Lower),
    exact("mc.max_read_latency_cpu", "cycles", Lower),
    host("mc.tick64_ns.frfcfs", "ns", Lower),
    host("mc.tick64_ns.fcfs", "ns", Lower),
    host("mc.tick64_ns.cap", "ns", Lower),
    host("mc.tick64_ns.nfq", "ns", Lower),
    host("mc.tick64_ns.stfm", "ns", Lower),
    host("mc.try_enqueue_ns", "ns", Lower),
    host("mc.predict_next_ns", "ns", Lower),
    // core (STFM estimator and policy)
    count("core.full_rebuilds"),
    count("core.incremental_updates"),
    count("core.decides_recomputed"),
    exact("core.decides_carried", "count", Higher),
    exact("core.decide_carry_ratio", "ratio", Higher),
    host("core.stfm_extra_ns_per_tick", "ns", Lower),
    // dram
    count("dram.activates"),
    count("dram.precharges"),
    count("dram.reads"),
    count("dram.writes"),
    count("dram.refreshes"),
    exact("dram.data_bus_util", "ratio", Higher),
    host("dram.channel_issue_ns", "ns", Lower),
    host("dram.earliest_issue_ns", "ns", Lower),
    host("dram.addr_decode_ns", "ns", Lower),
    // cpu
    host("cpu.step_s", "s", Lower),
    count("cpu.l2_misses"),
    count("cpu.l2_merged"),
    count("cpu.writebacks"),
    count("cpu.mem_stall_cycles"),
    exact("cpu.sum_ipc", "ipc", Higher),
    host("cpu.cache_access_ns", "ns", Lower),
    // workloads
    host("workloads.next_op_ns", "ns", Lower),
    host("workloads.trace_build_us", "us", Lower),
    // telemetry
    count("telemetry.events"),
    host("telemetry.ring_event_ns", "ns", Lower),
    host("telemetry.jsonl_event_ns", "ns", Lower),
    host("telemetry.live_sink_wall_ratio", "ratio", Lower),
    // serve
    host("serve.run_cell_s", "s", Lower),
    host("serve.expand_line_us", "us", Lower),
    host("serve.to_experiment_us", "us", Lower),
    host("serve.cache_store_us", "us", Lower),
    host("serve.cache_lookup_us", "us", Lower),
    host("serve.result_line_ns", "ns", Lower),
    host("serve.overhead_share", "share", Lower),
    host("serve.sweep_jobs1_wall_s", "s", Lower),
    host("serve.parallel_efficiency", "ratio", Higher),
    host("serve.warm_replay_cells_per_s", "1/s", Higher),
    exact("serve.cache_hits", "count", Higher),
    count("serve.cache_misses"),
    count("serve.quarantined"),
    count("serve.errors"),
    count("serve.timeouts"),
    host("serve.hit_latency_us_p50", "us", Lower),
    host("serve.protocol_overhead_ms_p50", "ms", Lower),
    host("serve.json_parse_ns", "ns", Lower),
    host("serve.parse_result_line_ns", "ns", Lower),
    host("serve.cell_key_ns", "ns", Lower),
    // trace
    count("trace.spans"),
    host("trace.overhead_share", "share", Lower),
    // The sandbox itself: reference-loop time over its nominal time.
    host("host.slowdown", "ratio", Lower),
];

/// The declared unit of `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// Share by which peak memory may differ between two runs of one seed:
/// it repeats within 1-3% on the simulator workloads and steps by up to
/// 1 MB (11%) on the two threaded ones.
const RSS_SAME_SEED_BOUND: f64 = 0.15;

/// The bound `diff` and `selfcheck` hold metric `m` to on `workload`.
///
/// The bounds in [`END_TO_END`] are the driver's: wide enough for runs of
/// different seeds on the noisiest workload. Two runs of one seed on one
/// workload can be held closer: times, rates and latencies by that
/// workload's own [`Workload::same_seed_bound`], peak memory by
/// [`RSS_SAME_SEED_BOUND`]. Set-up is one short piece of work per run
/// and spreads by 5-20% on every workload, so it keeps the driver's
/// bound.
pub fn bound_between_runs(workload: &str, m: &EndToEnd) -> f64 {
    let Some(w) = WORKLOADS.iter().find(|w| w.name == workload) else {
        return m.bound;
    };
    match m.name {
        "setup_s" => m.bound,
        "peak_rss_mb" => m.bound.min(RSS_SAME_SEED_BOUND),
        _ => m.bound.min(w.same_seed_bound),
    }
}

/// `prefix.<sched>` for scheduler index `i`, as declared in
/// [`PER_LAYER`] (falls back to the prefix for an index out of range,
/// which the emitter then reports as undeclared).
pub fn per_sched(prefix: &str, i: usize) -> &'static str {
    let want = format!("{prefix}.{}", SCHEDS.get(i).copied().unwrap_or("?"));
    PER_LAYER
        .iter()
        .find(|m| m.name == want)
        .map_or("undeclared", |m| m.name)
}
