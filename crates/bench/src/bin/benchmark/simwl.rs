//! The three simulator workloads: `intensive4`, `chase4`, `scale16`.
//!
//! Timed reps go through `Experiment::run_traced` with a counting sink,
//! exactly as a figure binary would. The per-layer passes measure every
//! layer from outside: a count pass builds the `System` itself, the way
//! `Experiment::run_inner` does, to read the counters `Experiment` does
//! not return; a stepped pass times the reference loop; and a traced
//! pass drives the stepped loop from here — the body of `System::tick`
//! rebuilt from its public parts — with a span around each call group.

use std::time::Instant;

use stfm_cpu::{Core, CoreConfig, CoreStats};
use stfm_dram::{ClockRatio, DramConfig, DramCycle, CPU_CYCLES_PER_DRAM_CYCLE};
use stfm_mc::{ControllerConfig, MemorySystem, ThreadId, ThreadStats};
use stfm_sim::digest::Fnv64;
use stfm_sim::experiment::default_warmup;
use stfm_sim::{gmean, AloneCache, Experiment, SchedulerKind, System, WorkloadMetrics};
use stfm_telemetry::{CmdKind, Event, JsonLinesSink, Sink};
use stfm_workloads::{mix, Profile, SyntheticTrace};

use crate::measure::{
    report_core_sums, report_end_to_end, report_schedulers, secs, typical, HostRef, Outcome,
    RepStats, SchedRow, Timed,
};
use crate::names::{FRFCFS, SCHEDS, STFM};
use crate::trace::{Fold, Tracer};
use crate::Opts;

/// `stfm_sim::experiment`'s private cycle-cap factor, copied: a run is
/// cut off after `insts × MAX_CPI` CPU cycles.
const MAX_CPI: u64 = 4_000;

/// What a sim workload runs.
pub struct Plan {
    mixes: Vec<(String, Vec<Profile>)>,
    insts: u64,
    /// The mix the stepped, traced and live-sink passes use.
    traced_mix: usize,
    /// Whether the live-sink pass runs (the issue asks for one
    /// `intensive4` pass; elsewhere the ratio reads 0).
    live_sink: bool,
}

/// The plan for `workload`, or `None` if it is not a sim workload.
pub fn plan(workload: &str, quick: bool) -> Option<Plan> {
    let (mixes, insts, traced_mix) = match workload {
        "intensive4" => (
            vec![(
                "case_study_intensive".to_string(),
                mix::case_study_intensive(),
            )],
            200_000,
            0,
        ),
        "chase4" => (
            vec![("pointer_chase".to_string(), mix::pointer_chase())],
            200_000,
            0,
        ),
        // Mix 1 is high8+low8.
        "scale16" => (mix::sixteen_core_mixes(), 30_000, 1),
        _ => return None,
    };
    Some(Plan {
        mixes,
        insts: if quick { insts / 10 } else { insts },
        traced_mix,
        live_sink: workload == "intensive4",
    })
}

/// The scheduler work counters of one `Event::EstimatorWork`.
#[derive(Clone, Copy, Default)]
struct Work {
    full_rebuilds: u64,
    incremental_updates: u64,
    decides_recomputed: u64,
    decides_carried: u64,
    sched_visits: u64,
    rank_scans: u64,
    rank_carried: u64,
}

/// Counts events by kind without keeping them (sinks only observe, so
/// attaching one never changes simulated results).
#[derive(Default)]
struct CountingSink {
    events: u64,
    enqueued: u64,
    serviced: u64,
    /// Commands by `CmdKind`: activate, precharge, read, write, refresh.
    cmds: [u64; 5],
    work: Work,
}

impl Sink for CountingSink {
    fn record(&mut self, event: &Event) {
        self.events += 1;
        match event {
            Event::RequestEnqueued { .. } => self.enqueued += 1,
            Event::RequestServiced { .. } => self.serviced += 1,
            Event::DramCommandIssued { cmd, .. } => {
                // Refreshes are counted from `RefreshIssued` below.
                let slot = match cmd {
                    CmdKind::Activate => Some(0),
                    CmdKind::Precharge => Some(1),
                    CmdKind::Read => Some(2),
                    CmdKind::Write => Some(3),
                    CmdKind::Refresh => None,
                };
                if let Some(slot) = slot {
                    self.cmds[slot] += 1;
                }
            }
            Event::RefreshIssued { .. } => self.cmds[4] += 1,
            Event::EstimatorWork {
                full_rebuilds,
                incremental_updates,
                decides_recomputed,
                decides_carried,
                sched_visits,
                rank_scans,
                rank_carried,
                ..
            } => {
                self.work = Work {
                    full_rebuilds: *full_rebuilds,
                    incremental_updates: *incremental_updates,
                    decides_recomputed: *decides_recomputed,
                    decides_carried: *decides_carried,
                    sched_visits: *sched_visits,
                    rank_scans: *rank_scans,
                    rank_carried: *rank_carried,
                };
            }
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One timed `Experiment::run_traced` call.
struct Run {
    sched: usize,
    wall: Timed,
    final_cycle: u64,
    counts: CountingSink,
    metrics: WorkloadMetrics,
}

/// One timed rep: every mix under every scheduler.
struct Rep {
    /// The sum over the runs.
    wall: Timed,
    runs: Vec<Run>,
}

impl Plan {
    fn experiment(&self, mix: usize, sched: usize, seed: u64, insts: u64) -> Experiment {
        Experiment::new(self.mixes[mix].1.clone())
            .scheduler(SchedulerKind::all()[sched])
            .instructions_per_thread(insts)
            .seed(seed)
    }

    /// Set-up: a fresh alone-baseline cache warmed by one FR-FCFS run per
    /// mix (the only public way to fill an `AloneCache`), then a
    /// discarded pass of every run at a tenth of the length.
    fn setup(&self, seed: u64) -> AloneCache {
        let cache = AloneCache::new();
        for mix in 0..self.mixes.len() {
            let _ = self
                .experiment(mix, FRFCFS, seed, self.insts)
                .run_with_cache(&cache);
            for sched in 0..SCHEDS.len() {
                let _ = self
                    .experiment(mix, sched, seed, (self.insts / 10).max(1))
                    .run_with_cache(&cache);
            }
        }
        cache
    }

    fn timed_run(
        &self,
        mix: usize,
        sched: usize,
        seed: u64,
        cache: &AloneCache,
        host: &mut HostRef,
    ) -> Run {
        let e = self.experiment(mix, sched, seed, self.insts);
        let (mut traced, wall) =
            host.around(|| e.run_traced(cache, Box::new(CountingSink::default())));
        let counts = traced
            .sink
            .as_any_mut()
            .downcast_mut::<CountingSink>()
            .map(std::mem::take)
            .unwrap_or_default();
        Run {
            sched,
            wall,
            final_cycle: traced.final_dram_cycle,
            counts,
            metrics: traced.metrics,
        }
    }

    fn rep(&self, seed: u64, cache: &AloneCache, host: &mut HostRef) -> Rep {
        let mut runs = Vec::new();
        for mix in 0..self.mixes.len() {
            for sched in 0..SCHEDS.len() {
                runs.push(self.timed_run(mix, sched, seed, cache, host));
            }
        }
        Rep {
            wall: runs.iter().map(|r| r.wall).sum(),
            runs,
        }
    }

    /// Checks one rep's outputs and returns their digest: every run
    /// finished, and the digest covers scheduler names, frozen
    /// `CoreStats` and final cycle. A cancelled run returns no threads; a
    /// truncated one freezes unfinished threads where they stand, well
    /// short of the budget (a finished window misses it by at most the
    /// few instructions one DRAM cycle commits).
    fn check_rep(&self, rep: &Rep, out: &mut Outcome) -> u64 {
        let mut h = Fnv64::new();
        for run in &rep.runs {
            let threads = &run.metrics.threads;
            let reached = threads
                .iter()
                .all(|t| t.shared.instructions * 10 >= self.insts * 9);
            out.op(!threads.is_empty() && reached, || {
                format!("{} run truncated or cancelled", run.metrics.scheduler)
            });
            h.write_str(&run.metrics.scheduler);
            for t in &run.metrics.threads {
                digest_core(&mut h, &t.shared);
            }
            h.write_u64(run.final_cycle);
        }
        h.finish()
    }
}

fn digest_core(h: &mut Fnv64, s: &CoreStats) {
    for v in [
        s.cycles,
        s.instructions,
        s.mem_stall_cycles,
        s.loads,
        s.stores,
        s.l2_misses,
        s.l2_merged,
        s.writebacks,
        s.prefetches,
        s.prefetch_hits,
    ] {
        h.write_u64(v);
    }
}

fn digest_mem(h: &mut Fnv64, s: &ThreadStats) {
    for v in [
        s.reads,
        s.writes,
        s.row_hits,
        s.row_closed,
        s.row_conflicts,
        s.total_read_latency_cpu,
        s.max_read_latency_cpu,
    ] {
        h.write_u64(v);
    }
}

/// Frozen window statistics of one run built by the benchmark itself.
struct Frozen {
    core: Vec<CoreStats>,
    mem: Vec<ThreadStats>,
    final_cycle: u64,
    truncated: bool,
}

impl Frozen {
    fn digest(&self, scheduler: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(scheduler);
        for s in &self.core {
            digest_core(&mut h, s);
        }
        for s in &self.mem {
            digest_mem(&mut h, s);
        }
        h.write_u64(self.final_cycle);
        h.finish()
    }
}

/// Builds cores and memory system exactly as `Experiment::run_inner`
/// does for a default experiment.
fn build(profiles: &[Profile], sched: usize, seed: u64) -> (Vec<Core>, MemorySystem) {
    let dram = DramConfig::for_cores(profiles.len() as u32);
    let policy = SchedulerKind::all()[sched].build(dram.timing, &[], &[]);
    let mem = MemorySystem::with_controller_config(
        dram.clone(),
        ControllerConfig::paper_baseline(),
        policy,
    );
    let cores = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let trace = SyntheticTrace::new(p.clone(), &dram, i as u32, seed);
            Core::with_config(
                ThreadId(i as u32),
                Box::new(trace),
                CoreConfig::paper_baseline(),
            )
        })
        .collect();
    (cores, mem)
}

/// Copy of `stfm_sim::system`'s private warm-up/freeze bookkeeping.
struct Window {
    baseline: Vec<Option<(CoreStats, ThreadStats)>>,
    frozen: Vec<Option<(CoreStats, ThreadStats)>>,
    warmup: u64,
    budget: u64,
    remaining: usize,
}

impl Window {
    fn new(n: usize, warmup: u64, budget: u64) -> Window {
        let seeded = (warmup == 0).then(|| (CoreStats::default(), ThreadStats::default()));
        Window {
            baseline: vec![seeded; n],
            frozen: vec![None; n],
            warmup,
            budget,
            remaining: n,
        }
    }

    fn observe(&mut self, cores: &[Core], mem: &mut MemorySystem) {
        for (i, core) in cores.iter().enumerate() {
            let thread = ThreadId(i as u32);
            let insts = core.stats().instructions;
            if self.baseline[i].is_none() && insts >= self.warmup {
                self.baseline[i] = Some((*core.stats(), mem.thread_stats(thread)));
                mem.reset_max_read_latency(thread);
            }
            if self.frozen[i].is_none() && insts >= self.budget {
                self.frozen[i] = Some((*core.stats(), mem.thread_stats(thread)));
                self.remaining -= 1;
            }
        }
    }

    /// Window statistics per thread; a thread cut off before its marks
    /// is frozen where it stands, as `System::run_with_warmup` does.
    fn finish(self, cores: &[Core], mem: &MemorySystem) -> (Vec<CoreStats>, Vec<ThreadStats>) {
        let mut core = Vec::new();
        let mut memory = Vec::new();
        for (i, (f, b)) in self.frozen.into_iter().zip(self.baseline).enumerate() {
            let (fc, fm) =
                f.unwrap_or_else(|| (*cores[i].stats(), mem.thread_stats(ThreadId(i as u32))));
            let (bc, bm) = b.unwrap_or_default();
            core.push(fc.minus(&bc));
            memory.push(fm.minus(&bm));
        }
        (core, memory)
    }
}

/// Per-cycle layers of the traced stepped driver, in fold order.
const CYCLE_LAYERS: [&str; 4] = ["mc.tick", "mc.drain", "cpu.step", "sim.window"];

/// The fold that takes the clock readings out of the four layers.
const CLOCK_LAYER: &str = "trace.clock";

/// One traced run: its frozen statistics, its run span, and its
/// per-cycle folds in [`CYCLE_LAYERS`] order, net of the clock readings.
struct Traced {
    frozen: Frozen,
    run_span: usize,
    loop_span: usize,
    folds: [Fold; 4],
    /// What the clock readings themselves took.
    clock_ns: u64,
}

/// The stepped loop driven from here with a span around each call
/// group per DRAM cycle.
fn traced_run(
    tr: &mut Tracer,
    run: u32,
    profiles: &[Profile],
    sched: usize,
    seed: u64,
    insts: u64,
    clock_cost_ns: f64,
) -> Traced {
    let run_span = tr.open("sim.run", run);
    let (mut cores, mut mem) = tr.scope("sim.construct", run, || build(profiles, sched, seed));
    let warmup = default_warmup(insts);
    let max_cpu_cycles = insts.saturating_mul(MAX_CPI);
    let mut window = Window::new(cores.len(), warmup, warmup + insts);
    let mut cycle = DramCycle::ZERO;
    let mut truncated = false;
    let mut folds = [Fold::default(); 4];

    let loop_span = tr.open("sim.loop", run);
    let mut top = tr.now_ns();
    while window.remaining > 0 {
        mem.tick(cycle);
        let ticked = tr.now_ns();
        for c in mem.drain_completions() {
            cores[c.thread.0 as usize].push_completion(c);
        }
        let drained = tr.now_ns();
        for core in &mut cores {
            for _ in 0..CPU_CYCLES_PER_DRAM_CYCLE {
                core.step(&mut mem);
            }
        }
        let stepped = tr.now_ns();
        folds[0].add(ticked - top);
        folds[1].add(drained - ticked);
        folds[2].add(stepped - drained);
        cycle += 1;
        window.observe(&cores, &mut mem);
        if ClockRatio::PAPER.dram_to_cpu(cycle) >= max_cpu_cycles {
            truncated = true;
        }
        top = tr.now_ns();
        folds[3].add(top - stepped);
        if truncated {
            break;
        }
    }
    tr.close(loop_span);
    // The four folds are differences of successive clock readings, so
    // together they cover the loop by construction, the readings
    // included. Take one reading out of every span and book the
    // readings as a layer of their own (no spans: count 0).
    let gross: u64 = folds.iter().map(|f| f.sum_ns).sum();
    let folds = folds.map(|f| f.net_of_clock(clock_cost_ns));
    let clock_ns = gross - folds.iter().map(|f| f.sum_ns).sum::<u64>();
    for (name, fold) in CYCLE_LAYERS.into_iter().zip(folds) {
        tr.add_fold(loop_span, name, fold);
    }
    tr.add_fold(
        loop_span,
        CLOCK_LAYER,
        Fold {
            count: 0,
            sum_ns: clock_ns,
            max_ns: clock_cost_ns as u64,
        },
    );
    let (core, memory) = tr.scope("sim.freeze", run, || {
        mem.flush_residue();
        window.finish(&cores, &mem)
    });
    tr.close(run_span);
    let frozen = Frozen {
        core,
        mem: memory,
        final_cycle: cycle.get(),
        truncated,
    };
    Traced {
        frozen,
        run_span,
        loop_span,
        folds,
        clock_ns,
    }
}

/// What the count pass reads from one event-loop run it built itself.
struct Counted {
    frozen: Frozen,
    construct_s: f64,
    jumped: u64,
    elided: u64,
    enqueued: u64,
    completed: u64,
}

fn counted_run(profiles: &[Profile], sched: usize, seed: u64, insts: u64) -> Counted {
    let start = Instant::now();
    let (cores, mem) = build(profiles, sched, seed);
    let mut sys = System::new(cores, mem);
    let construct_s = secs(start);
    let run = sys.run_with_warmup(default_warmup(insts), insts, insts.saturating_mul(MAX_CPI));
    let stats = sys.memory().stats();
    Counted {
        frozen: Frozen {
            core: run.frozen,
            mem: run.frozen_mem,
            final_cycle: run.cpu_cycles / CPU_CYCLES_PER_DRAM_CYCLE,
            truncated: run.truncated || run.cancelled,
        },
        construct_s,
        jumped: sys.jumped_cycles(),
        elided: sys.elided_cycles(),
        enqueued: stats.enqueued,
        completed: stats.completed,
    }
}

/// Runs one sim workload under `opts` and fills `out`.
pub fn run(plan: &Plan, opts: &Opts, default_reps: usize, out: &mut Outcome) {
    let seed = opts.seed;
    let mut host = HostRef::default();
    let mut setups = Vec::new();
    let mut cache = AloneCache::new();
    for _ in 0..opts.setups() {
        let (fresh, took) = host.around(|| plan.setup(seed));
        cache = fresh;
        setups.push(took);
    }

    let mut reps: Vec<Rep> = Vec::new();
    let mut digests = Vec::new();
    opts.rep_loop(default_reps, || {
        let rep = plan.rep(seed, &cache, &mut host);
        digests.push(plan.check_rep(&rep, out));
        reps.push(rep);
    });
    out.digest = digests.first().copied().unwrap_or(0);
    out.op(digests.iter().all(|&d| d == out.digest), || {
        "timed reps disagree on their outputs".to_string()
    });

    if opts.timed() {
        let stats: Vec<RepStats> = reps
            .iter()
            .map(|rep| {
                let kc = |pred: &dyn Fn(&Run) -> bool| {
                    rep.runs
                        .iter()
                        .filter(|r| pred(r))
                        .map(|r| r.final_cycle as f64 / 1e3)
                        .sum::<f64>()
                };
                let stfm = rep.runs.iter().filter(|r| r.sched == STFM);
                RepStats {
                    wall: rep.wall,
                    kcycles: kc(&|_| true),
                    stfm_kcycles: kc(&|r| r.sched == STFM),
                    stfm_wall: stfm.map(|r| r.wall).sum(),
                    cells: rep.runs.len() as u64,
                    latencies: rep.runs.iter().map(|r| r.wall).collect(),
                }
            })
            .collect();
        report_end_to_end(out, &setups, &stats);
    }
    if opts.layers() {
        let walls: Vec<f64> = reps.iter().map(|r| r.wall.raw_s).collect();
        if let Some(rep) = typical(&walls).map(|i| &reps[i]) {
            layers(plan, opts, &cache, rep, out);
        }
        out.set("host.slowdown", host.slowdown());
    }
}

/// The per-layer passes, given one timed rep.
fn layers(plan: &Plan, opts: &Opts, cache: &AloneCache, rep: &Rep, out: &mut Outcome) {
    let seed = opts.seed;
    let n_sched = SCHEDS.len();
    let n_mix = plan.mixes.len();
    let of = |mix: usize, sched: usize| &rep.runs[mix * n_sched + sched];

    // From the timed rep: per-scheduler walls, simulated outcomes, and
    // the counts its sink and returned metrics carry.
    let rows: Vec<Option<SchedRow>> = (0..n_sched)
        .map(|sched| {
            let runs = || (0..n_mix).map(move |m| of(m, sched));
            Some(SchedRow {
                unfairness: gmean(runs().map(|r| r.metrics.unfairness())),
                wspeedup: gmean(runs().map(|r| r.metrics.weighted_speedup())),
                wall_s: runs().map(|r| r.wall.raw_s).sum(),
            })
        })
        .collect();
    report_schedulers(out, &rows);
    for (m, (name, _)) in plan.mixes.iter().enumerate() {
        let per_sched: Vec<String> = (0..n_sched)
            .map(|s| format!("{} {:.2}", SCHEDS[s], of(m, s).metrics.unfairness()))
            .collect();
        println!("unfairness on {name}: {}", per_sched.join(", "));
    }

    let sum = |f: &dyn Fn(&Run) -> u64| rep.runs.iter().map(f).sum::<u64>() as f64;
    report_core_sums(
        out,
        rep.runs
            .iter()
            .flat_map(|r| r.metrics.threads.iter().map(|t| &t.shared)),
    );
    let dram_cycles = sum(&|r| r.final_cycle);
    out.set("sim.dram_cycles", dram_cycles);
    out.set("sim.requests", sum(&|r| r.counts.serviced));
    out.set(
        "cpu.sum_ipc",
        rep.runs
            .iter()
            .map(|r| r.metrics.sum_of_ipcs())
            .sum::<f64>()
            / rep.runs.len() as f64,
    );
    out.set("telemetry.events", sum(&|r| r.counts.events));
    out.set("dram.activates", sum(&|r| r.counts.cmds[0]));
    out.set("dram.precharges", sum(&|r| r.counts.cmds[1]));
    out.set("dram.reads", sum(&|r| r.counts.cmds[2]));
    out.set("dram.writes", sum(&|r| r.counts.cmds[3]));
    out.set("dram.refreshes", sum(&|r| r.counts.cmds[4]));
    let dram = DramConfig::for_cores(plan.mixes[0].1.len() as u32);
    let bursts = sum(&|r| r.counts.cmds[2] + r.counts.cmds[3]);
    out.set(
        "dram.data_bus_util",
        bursts * dram.timing.burst_cycles().as_f64() / (dram_cycles * f64::from(dram.channels)),
    );
    let visits = sum(&|r| r.counts.work.sched_visits);
    let scans = sum(&|r| r.counts.work.rank_scans);
    let carried = sum(&|r| r.counts.work.rank_carried);
    out.set("mc.sched_visits", visits);
    out.set("mc.rank_scans", scans);
    out.set("mc.rank_carried", carried);
    out.set("mc.carry_ratio", carried / (scans + carried).max(1.0));
    let recomputed = sum(&|r| r.counts.work.decides_recomputed);
    let decides_carried = sum(&|r| r.counts.work.decides_carried);
    out.set("core.full_rebuilds", sum(&|r| r.counts.work.full_rebuilds));
    out.set(
        "core.incremental_updates",
        sum(&|r| r.counts.work.incremental_updates),
    );
    out.set("core.decides_recomputed", recomputed);
    out.set("core.decides_carried", decides_carried);
    out.set(
        "core.decide_carry_ratio",
        decides_carried / (recomputed + decides_carried).max(1.0),
    );

    // Count pass: the same runs, built here, for what `Experiment` does
    // not return. Untimed except for construction.
    let mut counted: Vec<Counted> = Vec::new();
    for (mix, (_, profiles)) in plan.mixes.iter().enumerate() {
        for (sched, token) in SCHEDS.iter().enumerate() {
            let c = counted_run(profiles, sched, seed, plan.insts);
            let timed = of(mix, sched);
            let same_core = c.frozen.core.len() == timed.metrics.threads.len()
                && c.frozen
                    .core
                    .iter()
                    .zip(&timed.metrics.threads)
                    .all(|(a, t)| *a == t.shared);
            out.op(
                !c.frozen.truncated
                    && same_core
                    && c.frozen.final_cycle == timed.final_cycle
                    && c.completed == timed.counts.serviced
                    && c.enqueued == timed.counts.enqueued,
                || format!("count pass differs from the timed {token} run"),
            );
            counted.push(c);
        }
    }
    let csum = |f: &dyn Fn(&Counted) -> u64| counted.iter().map(f).sum::<u64>() as f64;
    let msum = |f: &dyn Fn(&ThreadStats) -> u64| csum(&|c| c.frozen.mem.iter().map(f).sum());
    let skipped = csum(&|c| c.jumped + c.elided);
    let real_ticks = dram_cycles - skipped;
    out.set("sim.jumped_cycles", csum(&|c| c.jumped));
    out.set("sim.elided_cycles", csum(&|c| c.elided));
    out.set("sim.real_ticks", real_ticks);
    out.set(
        "sim.host_ns_per_real_tick",
        rep.runs.iter().map(|r| r.wall.raw_s).sum::<f64>() * 1e9 / real_ticks.max(1.0),
    );
    out.set(
        "sim.construct_us",
        counted.iter().map(|c| c.construct_s).sum::<f64>() * 1e6 / counted.len() as f64,
    );
    out.set("mc.enqueued", csum(&|c| c.enqueued));
    out.set("mc.completed", csum(&|c| c.completed));
    let hits = msum(&|s| s.row_hits);
    out.set(
        "mc.row_hit_rate",
        hits / (hits + msum(&|s| s.row_closed + s.row_conflicts)).max(1.0),
    );
    out.set(
        "mc.avg_read_latency_cpu",
        msum(&|s| s.total_read_latency_cpu) / msum(&|s| s.reads).max(1.0),
    );
    out.set(
        "mc.max_read_latency_cpu",
        counted
            .iter()
            .flat_map(|c| c.frozen.mem.iter().map(|s| s.max_read_latency_cpu))
            .max()
            .unwrap_or(0) as f64,
    );

    // Alone baselines, timed on their own: one per distinct benchmark.
    let mut seen: Vec<&str> = Vec::new();
    let start = Instant::now();
    for (_, profiles) in &plan.mixes {
        for p in profiles {
            if !seen.contains(&p.name) {
                seen.push(p.name);
                std::hint::black_box(stfm_sim::run_alone(p, &dram, plan.insts, seed));
            }
        }
    }
    out.set("sim.alone_run_s", secs(start));

    // Stepped, traced and live-sink passes: FR-FCFS (the cheapest
    // policy) and STFM (the estimator policy) on one mix.
    let mix = plan.traced_mix;
    let profiles = &plan.mixes[mix].1;
    let pair = [FRFCFS, STFM];
    let event_wall: f64 = pair.iter().map(|&s| of(mix, s).wall.raw_s).sum();

    let mut stepped_wall = 0.0;
    for &sched in &pair {
        let e = plan
            .experiment(mix, sched, seed, plan.insts)
            .fast_forward(false);
        let start = Instant::now();
        let m = e.run_with_cache(cache);
        stepped_wall += secs(start);
        let same = m
            .threads
            .iter()
            .zip(&of(mix, sched).metrics.threads)
            .all(|(a, b)| a.shared == b.shared);
        out.op(same, || {
            format!("stepped {} run differs from the event loop", SCHEDS[sched])
        });
    }
    out.set("sim.stepped_wall_s", stepped_wall);
    out.set("sim.event_speedup", stepped_wall / event_wall);

    let mut tr = Tracer::new();
    let clock_cost_ns = tr.clock_cost_ns();
    println!("one clock reading costs {clock_cost_ns:.1} ns");
    let mut traced_wall = 0.0;
    let mut loop_self_ns = 0;
    let mut tick_ns = [0.0; 2];
    for (slot, &sched) in pair.iter().enumerate() {
        let t = traced_run(
            &mut tr,
            slot as u32,
            profiles,
            sched,
            seed,
            plan.insts,
            clock_cost_ns,
        );
        let name = SchedulerKind::all()[sched].name();
        let event = &counted[mix * n_sched + sched].frozen;
        out.op(
            !t.frozen.truncated && t.frozen.digest(name) == event.digest(name),
            || format!("traced stepped {name} run differs from the event loop"),
        );
        let run_s = tr.duration_ns(t.run_span) as f64 / 1e9;
        traced_wall += run_s;
        // Not an output check: contiguous spans cover the run whatever
        // happens. What is worth reading is how much of it the clock took.
        let layers_ns: u64 = t.folds.iter().map(|f| f.sum_ns).sum();
        let own_ns = tr.self_ns(t.run_span) + tr.self_ns(t.loop_span);
        println!(
            "traced {name}: run {run_s:.4} s = layers {:.4} s + clock readings {:.4} s + construct and freeze + {:.6} s in no span",
            layers_ns as f64 / 1e9,
            t.clock_ns as f64 / 1e9,
            own_ns as f64 / 1e9,
        );
        loop_self_ns += t.folds[3].sum_ns + tr.self_ns(t.loop_span);
        tick_ns[slot] = t.folds[0].sum_ns as f64 / t.folds[0].count.max(1) as f64;
    }
    out.set("core.stfm_extra_ns_per_tick", tick_ns[1] - tick_ns[0]);
    out.set("mc.tick_s", tr.total_s("mc.tick"));
    out.set("mc.drain_s", tr.total_s("mc.drain"));
    // Includes the `try_enqueue` calls cores make into `mc`: they
    // happen inside `Core::step` and cannot be split from outside.
    out.set("cpu.step_s", tr.total_s("cpu.step"));
    out.set("sim.loop_self_s", loop_self_ns as f64 / 1e9);
    out.set("trace.spans", tr.span_count() as f64);
    out.set(
        "trace.overhead_share",
        (traced_wall - stepped_wall) / stepped_wall,
    );
    println!(
        "traced layers net of clock readings over the untraced stepped pass: {:.3}",
        CYCLE_LAYERS.iter().map(|n| tr.total_s(n)).sum::<f64>() / stepped_wall.max(1e-12)
    );
    for name in CYCLE_LAYERS
        .iter()
        .chain(&[CLOCK_LAYER, "sim.construct", "sim.freeze"])
    {
        println!(
            "traced share {name:<14} {:6.2}%",
            tr.total_s(name) * 100.0 / traced_wall.max(1e-12)
        );
    }
    if let Some(path) = &opts.trace_out {
        let written = std::fs::write(path, tr.to_jsonl());
        out.op(written.is_ok(), || {
            format!("cannot write {}", path.display())
        });
    }

    if !plan.live_sink {
        return;
    }
    let mut live_wall = 0.0;
    for &sched in &pair {
        let e = plan.experiment(mix, sched, seed, plan.insts);
        let start = Instant::now();
        let traced = e.run_traced(cache, Box::new(JsonLinesSink::new(std::io::sink())));
        live_wall += secs(start);
        std::hint::black_box(traced.final_dram_cycle);
    }
    out.set("telemetry.live_sink_wall_ratio", live_wall / event_wall);
}
