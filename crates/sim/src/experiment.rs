//! Experiment construction and execution.
//!
//! An [`Experiment`] is one multiprogrammed workload run under one
//! scheduler: it builds the cores (one synthetic trace per profile), the
//! shared memory system, runs every thread to its instruction budget, runs
//! (or fetches from the [`AloneCache`]) each benchmark's alone baseline,
//! and reduces everything to [`WorkloadMetrics`].

use crate::cancel::CancelToken;
use crate::digest::hex_digest;
use crate::metrics::{ThreadMetrics, WorkloadMetrics};
use crate::scheduler_kind::SchedulerKind;
use crate::store::Store;
use crate::system::{Budget, RunStop, System};
use std::any::Any;
use std::path::PathBuf;
use stfm_core::Stfm;
use stfm_cpu::{Core, CoreConfig, CoreStats};
use stfm_dram::{DramConfig, DramDelta, CPU_CYCLES_PER_DRAM_CYCLE};
use stfm_mc::{MemorySystem, ThreadId};
use stfm_telemetry::{Event, NullSink, Sink};
use stfm_workloads::{Profile, SyntheticTrace};

/// Default per-thread instruction budget. Deliberately modest so whole
/// figure sweeps finish in minutes; the `paper` records raise it via
/// [`Experiment::instructions_per_thread`].
pub const DEFAULT_INSTRUCTIONS: u64 = 30_000;

/// Memoizes alone-run baselines, keyed by benchmark, DRAM configuration,
/// instruction budget, workload seed and whether the prefetcher is on.
/// Thread-safe: the parallel runner shares one cache.
///
/// With [`AloneCache::with_dir`] each baseline is also a [`Store`] record,
/// `alone-<hex_digest(key)>.txt`, so it survives across invocations. Its
/// body is the key string, then the ten [`CoreStats::counters`] one per
/// line; a file holding anything else is quarantined and recomputed.
#[derive(Debug, Default)]
pub struct AloneCache(Store<CoreStats>);

impl AloneCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache persisted under `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or listed.
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Store::with_dir(dir, "alone-", "txt").map(AloneCache)
    }

    /// Number of memoized baselines.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no baseline has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of corrupt baseline files quarantined so far.
    pub fn quarantined_count(&self) -> u64 {
        self.0.quarantined_count()
    }

    /// Returns the memoized/recomputed baseline at each instruction
    /// budget of `insts`, or why there is none: `cancel` fired while the
    /// baseline was being simulated, or the run hit its cycle cap. The
    /// missing baselines come from one run of a one-core [`Experiment`]
    /// under FR-FCFS. A stopped baseline is never stored — in memory or
    /// on disk — so a later retry recomputes it in full.
    fn get_or_run(
        &self,
        profile: &Profile,
        dram: &DramConfig,
        insts: &[u64],
        seed: u64,
        prefetch: bool,
        cancel: Option<&CancelToken>,
    ) -> Vec<Result<CoreStats, RunStop>> {
        let name = profile.name;
        let (mut looked, mut missing) = (Vec::new(), Vec::new());
        for &n in insts {
            // `DramConfig`'s derived `Debug` spells out every field, so
            // keys differ whenever the runs do.
            let key = format!("alone-v3|{name}|{dram:?}|insts={n}|seed={seed}|prefetch={prefetch}");
            let hit = self.0.get(&hex_digest(&key), |b| decode_alone(b, &key));
            if hit.is_none() {
                missing.push(Budget::of(n));
            }
            looked.push((key, hit));
        }
        let mut ran = Vec::new().into_iter();
        if !missing.is_empty() {
            let mut alone = Experiment::new(vec![profile.clone()]).seed(seed);
            (alone.dram, alone.prefetch) = (Some(dram.clone()), prefetch);
            let mut sys = alone.shared_system();
            if let Some(t) = cancel {
                sys.set_cancel_token(*t);
            }
            ran = sys.run(&missing).into_iter();
        }
        // `ran` holds one outcome per miss, in order.
        let results = looked.into_iter().filter_map(|(key, hit)| {
            if hit.is_some() {
                return hit.map(Ok);
            }
            let out = ran.next()?;
            let got = RunStop::of(&out).map_or(Ok(out.frozen[0]), Err);
            if let Ok(stats) = got {
                let counters = stats.counters().map(|c| c.to_string());
                let body = format!("{key}\n{}", counters.join("\n"));
                self.0.put(&hex_digest(&key), stats, &body);
            }
            Some(got)
        });
        results.collect()
    }
}

/// Reads an alone record's body: exactly `key`, then exactly ten counters.
fn decode_alone(body: &str, key: &str) -> Option<CoreStats> {
    let counters = body.strip_prefix(key)?.strip_prefix('\n')?;
    let counters: Vec<u64> = counters
        .split('\n')
        .map(|c| c.parse().ok())
        .collect::<Option<_>>()?;
    counters.try_into().ok().map(CoreStats::from_counters)
}

/// Default warmup as a fraction of the instruction budget (cache cold
/// misses and generator start-up are excluded from measurements): that of
/// [`Budget::of`]. Only the frozen benchmark calls it; ROADMAP item 16 (a
/// benchmark change) deletes it.
pub fn default_warmup(insts: u64) -> u64 {
    Budget::of(insts).warmup
}

/// Runs `profile` alone on `dram` under FR-FCFS (the paper's baseline for
/// `T_alone` and `MCPI_alone`).
///
/// # Panics
///
/// Panics if the run hits its cycle cap (that of [`Budget::of`]).
pub fn run_alone(profile: &Profile, dram: &DramConfig, insts: u64, seed: u64) -> CoreStats {
    let cache = AloneCache::new();
    match cache
        .get_or_run(profile, dram, &[insts], seed, false, None)
        .remove(0)
    {
        Ok(stats) => stats,
        Err(stop) => panic!("{} alone run stopped: {stop}", profile.name),
    }
}

/// One workload × scheduler run (builder style).
///
/// # Example
///
/// ```
/// use stfm_sim::{Experiment, SchedulerKind};
/// use stfm_workloads::spec;
///
/// let m = Experiment::new(vec![spec::libquantum(), spec::omnetpp()])
///     .scheduler(SchedulerKind::Stfm)
///     .instructions_per_thread(5_000)
///     .run();
/// assert_eq!(m.threads.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    profiles: Vec<Profile>,
    scheduler: SchedulerKind,
    dram: Option<DramConfig>,
    pub(crate) insts: u64,
    seed: u64,
    weights: Vec<(u32, u32)>,
    shares: Vec<(u32, u32)>,
    prefetch: bool,
    sample_interval: Option<u64>,
    fast_forward: bool,
}

/// Result of [`Experiment::run_traced`]: the usual metrics plus the sink
/// that observed the run, handed back by type.
pub struct TracedRun<S> {
    /// The run's reduced metrics, identical to what [`Experiment::run`]
    /// would have produced (sinks only observe).
    pub metrics: WorkloadMetrics,
    /// The sink the run was given, detached after the run.
    pub sink: S,
    /// The last DRAM cycle simulated; pass to
    /// [`stfm_telemetry::EpochSampler::finish`] to close the final epoch.
    pub final_dram_cycle: u64,
    /// Why the shared run or an alone baseline stopped short, if one
    /// did. Then `metrics.threads` is empty: partial statistics are never
    /// reduced into reportable metrics.
    pub stop: Option<RunStop>,
}

impl Experiment {
    /// Creates an experiment over `profiles` (core `i` runs `profiles[i]`)
    /// with FR-FCFS scheduling and the paper's core-count-scaled DRAM
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: Vec<Profile>) -> Self {
        assert!(!profiles.is_empty(), "experiment needs at least one thread");
        Experiment {
            profiles,
            scheduler: SchedulerKind::FrFcfs,
            dram: None,
            insts: DEFAULT_INSTRUCTIONS,
            seed: 1,
            weights: Vec::new(),
            shares: Vec::new(),
            prefetch: false,
            sample_interval: None,
            fast_forward: true,
        }
    }

    /// Selects the shared run's loop: the event-driven loop (`true`, the
    /// default) or the stepped cycle-by-cycle oracle (`false`). Results
    /// are bit-identical either way, which [`crate::oracle`] checks.
    ///
    /// No production path asks for the stepped loop: its callers are the
    /// benchmark's stepped pass, which times the two loops against each
    /// other, and tests. The oracle itself selects the loop on the
    /// [`System`] it builds.
    pub fn fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Selects the scheduler.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Overrides the DRAM configuration (default:
    /// [`DramConfig::for_cores`] of the thread count).
    pub fn dram_config(mut self, cfg: DramConfig) -> Self {
        self.dram = Some(cfg);
        self
    }

    /// Sets the per-thread instruction budget.
    pub fn instructions_per_thread(mut self, insts: u64) -> Self {
        self.insts = insts;
        self
    }

    /// Sets the workload seed (traces are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets thread `t`'s STFM weight (ignored by other schedulers).
    pub fn weight(mut self, thread: u32, weight: u32) -> Self {
        self.weights.push((thread, weight));
        self
    }

    /// Sets thread `t`'s NFQ bandwidth share (ignored by other schedulers).
    pub fn share(mut self, thread: u32, share: u32) -> Self {
        self.shares.push((thread, share));
        self
    }

    /// Turns the per-core stream prefetcher on or off (extension; the
    /// paper's baseline has none). Applies to the shared run *and* the
    /// alone baselines, which are cached separately for each setting.
    pub fn prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        self
    }

    /// Sets the spacing, in DRAM cycles, of scheduler interval-update
    /// telemetry events (only observable via [`Experiment::run_traced`];
    /// default: the controller's [`stfm_mc::DEFAULT_SAMPLE_INTERVAL`]).
    pub fn sample_interval(mut self, dram_cycles: u64) -> Self {
        self.sample_interval = Some(dram_cycles);
        self
    }

    /// The DRAM configuration the run will use.
    pub fn effective_dram(&self) -> DramConfig {
        self.dram
            .clone()
            .unwrap_or_else(|| DramConfig::for_cores(self.profiles.len() as u32))
    }

    /// The profiles, in core order.
    pub fn profiles(&self) -> &[Profile] {
        &self.profiles
    }

    /// Runs the experiment with a private alone-run cache.
    ///
    /// # Panics
    ///
    /// Panics if the run is truncated (see [`Experiment::try_run`]).
    pub fn run(&self) -> WorkloadMetrics {
        self.run_with_cache(&AloneCache::new())
    }

    /// Runs the experiment, memoizing / reusing alone baselines in
    /// `cache`.
    ///
    /// # Panics
    ///
    /// Panics if the run is truncated (see [`Experiment::try_run`]).
    pub fn run_with_cache(&self, cache: &AloneCache) -> WorkloadMetrics {
        match self.try_run(cache, None) {
            Ok(metrics) => metrics,
            Err(stop) => panic!("{} run {stop}", self.scheduler.name()),
        }
    }

    /// Runs the experiment, optionally under a cooperative
    /// [`CancelToken`] that the shared run and any uncached alone
    /// baselines poll between DRAM cycles. Errs if the token fired
    /// before the run completed, or if the shared run or a baseline hit
    /// its cycle cap: such a run stores nothing in `cache` and reduces
    /// nothing into metrics. The metrics of a completed run are
    /// bit-identical with or without a token (it is only ever *read* on
    /// the happy path).
    ///
    /// # Errors
    ///
    /// [`RunStop::Cancelled`] or [`RunStop::Truncated`].
    pub fn try_run(
        &self,
        cache: &AloneCache,
        cancel: Option<&CancelToken>,
    ) -> Result<WorkloadMetrics, RunStop> {
        self.try_run_budgets(&[self.insts], cache, cancel).remove(0)
    }

    /// [`Experiment::try_run`] at every instruction budget of `insts` in
    /// place of [`Experiment::instructions_per_thread`], one result per
    /// budget, in order. One shared run measures every budget
    /// ([`System::run`]), and one alone run per profile every baseline
    /// `cache` lacks; each result equals `try_run` at that budget.
    pub fn try_run_budgets(
        &self,
        insts: &[u64],
        cache: &AloneCache,
        cancel: Option<&CancelToken>,
    ) -> Vec<Result<WorkloadMetrics, RunStop>> {
        self.run_inner(insts, cache, NullSink, cancel).0
    }

    /// Runs the experiment with `sink` attached to the shared memory
    /// system, recording the full event stream. Alone baselines stay
    /// untraced (they are cached and shared across runs). The metrics are
    /// bit-identical to an untraced run: sinks only observe.
    pub fn run_traced<S: Sink>(&self, cache: &AloneCache, sink: S) -> TracedRun<S> {
        let (mut results, sink, final_dram_cycle) =
            self.run_inner(&[self.insts], cache, sink, None);
        let result = results.remove(0);
        TracedRun {
            stop: result.as_ref().err().copied(),
            metrics: result.unwrap_or_else(|_| WorkloadMetrics {
                scheduler: self.scheduler.name().to_string(),
                threads: Vec::new(),
            }),
            sink,
            final_dram_cycle,
        }
    }

    /// The shared run's system, as [`Experiment::run`],
    /// [`crate::oracle::Case::experiment`] and the alone runs build it: no
    /// sink, no cancellation token, and the event-driven loop selected.
    pub fn shared_system(&self) -> System {
        let dram = self.effective_dram();
        let policy = self
            .scheduler
            .build(dram.timing, &self.weights, &self.shares);
        let mut mem = MemorySystem::new(dram.clone(), policy);
        if let Some(interval) = self.sample_interval {
            mem.set_sample_interval(DramDelta::new(interval));
        }
        let core_cfg = CoreConfig {
            prefetch: self.prefetch,
        };
        let cores: Vec<Core> = self
            .profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let trace = SyntheticTrace::new(p.clone(), &dram, i as u32, self.seed);
                Core::with_config(ThreadId(i as u32), Box::new(trace), core_cfg)
            })
            .collect();
        System::new(cores, mem)
    }

    /// The shared run at each budget of `insts`, reduced against its
    /// alone baselines; also the sink, handed back, and the last DRAM
    /// cycle simulated.
    fn run_inner<S: Sink>(
        &self,
        insts: &[u64],
        cache: &AloneCache,
        sink: S,
        cancel: Option<&CancelToken>,
    ) -> (Vec<Result<WorkloadMetrics, RunStop>>, S, u64) {
        let dram = self.effective_dram();
        let mut sys = self.shared_system();
        sys.set_fast_forward(self.fast_forward);
        if let Some(t) = cancel {
            sys.set_cancel_token(*t);
        }
        let budgets: Vec<Budget> = insts.iter().map(|&n| Budget::of(n)).collect();
        let (outs, mut sink) = sys.run_observed(&budgets, sink);

        let stops = outs
            .iter()
            .map(|o| RunStop::of(o).map_or(Ok(Vec::new()), Err));
        let mut threads: Vec<Result<Vec<ThreadMetrics>, RunStop>> = stops.collect();
        for (i, p) in self.profiles.iter().enumerate() {
            let live: Vec<usize> = (0..insts.len()).filter(|&j| threads[j].is_ok()).collect();
            let at: Vec<u64> = live.iter().map(|&j| insts[j]).collect();
            let alone = cache.get_or_run(p, &dram, &at, self.seed, self.prefetch, cancel);
            for (&j, alone) in live.iter().zip(alone) {
                // A baseline stopped short: so does that budget's run,
                // and its partial metrics are discarded.
                match (&mut threads[j], alone) {
                    (Ok(t), Ok(alone)) => t.push(ThreadMetrics {
                        name: p.name.to_string(),
                        shared: outs[j].frozen[i],
                        alone,
                    }),
                    (_, Err(why)) => threads[j] = Err(why),
                    (Err(_), Ok(_)) => {}
                }
            }
        }
        // End-of-run work-counter snapshot for sinks that want it (e.g.
        // the benchmark and the work-counter regression tests). Recorded
        // after the run, never from the tick path: the counters differ
        // between the event-driven and stepped loops by design, so the
        // cycle-by-cycle event streams stay loop-agnostic.
        let mem = sys.memory();
        let sched = mem.sched_counters();
        let stfm = (mem.policy() as &dyn Any).downcast_ref::<Stfm>();
        let work = stfm.map(Stfm::work).unwrap_or_default();
        sink.record(&Event::EstimatorWork {
            dram_cycle: mem.now(),
            scheduler: mem.policy().name(),
            full_rebuilds: work.full_rebuilds,
            incremental_updates: work.incremental_updates,
            decides_recomputed: work.decides_recomputed,
            decides_carried: 0,
            sched_visits: sched.sched_visits,
            rank_scans: sched.rank_scans,
            rank_carried: sched.rank_carried,
        });
        let scheduler = self.scheduler.name();
        let metrics = threads.into_iter().map(|t| {
            t.map(|threads| WorkloadMetrics {
                scheduler: scheduler.to_string(),
                threads,
            })
        });
        let last = outs.iter().map(|o| o.cpu_cycles).max().unwrap_or(0);
        (metrics.collect(), sink, last / CPU_CYCLES_PER_DRAM_CYCLE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfm_mc::test_util::{assert_timing_clean, audit_timing};
    use stfm_workloads::spec;

    #[test]
    fn alone_cache_hits() {
        let cache = AloneCache::new();
        let e = Experiment::new(vec![spec::libquantum(), spec::libquantum()])
            .instructions_per_thread(3_000);
        let _ = e.run_with_cache(&cache);
        // Both threads run the same benchmark on the same config: one
        // baseline entry.
        assert_eq!(cache.len(), 1);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stfm-alone-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A DRAM whose activates take a million cycles: no request
    /// completes within any run's cycle cap.
    fn glacial_dram() -> DramConfig {
        let mut dram = DramConfig::for_cores(2);
        dram.timing.t_rcd = DramDelta::new(1_000_000);
        dram
    }

    /// A run that hits its cycle cap is an error, never metrics: in a
    /// release build too, where it used to be reduced as if complete.
    #[test]
    fn a_truncated_run_is_an_error_and_reduces_nothing() {
        let cache = AloneCache::new();
        let e = Experiment::new(vec![spec::mcf(), spec::libquantum()])
            .dram_config(glacial_dram())
            .instructions_per_thread(20);
        assert!(matches!(e.try_run(&cache, None), Err(RunStop::Truncated)));
        let traced = e.run_traced(&cache, NullSink);
        assert_eq!(traced.stop, Some(RunStop::Truncated));
        assert!(
            traced.metrics.threads.is_empty(),
            "a truncated run was reduced"
        );
        let panicked = std::panic::catch_unwind(|| e.run_with_cache(&cache));
        assert!(
            panicked.is_err(),
            "run_with_cache returned truncated metrics"
        );
    }

    /// `fast_forward(false)` selects the stepped loop, which visits the
    /// scheduler more often, and either loop's traced run ends with the
    /// `EstimatorWork` snapshot.
    #[test]
    fn the_loop_choice_reaches_the_run_and_work_is_reported_last() {
        let cache = AloneCache::new();
        let e =
            Experiment::new(vec![spec::mcf(), spec::libquantum()]).instructions_per_thread(3_000);
        let visits = |fast_forward: bool| {
            let run = e
                .clone()
                .fast_forward(fast_forward)
                .run_traced(&cache, stfm_telemetry::RingSink::new(1));
            match run.sink.events().last() {
                Some(&Event::EstimatorWork { sched_visits, .. }) => sched_visits,
                last => panic!("the run ended with {last:?}, not an EstimatorWork snapshot"),
            }
        };
        let (event, stepped) = (visits(true), visits(false));
        assert!(
            event < stepped,
            "event loop {event} visits, stepped {stepped}"
        );
    }

    /// A truncated alone baseline is stored neither in memory nor on disk.
    #[test]
    fn a_truncated_baseline_is_never_stored() {
        let dir = scratch_dir("truncated");
        let cache = AloneCache::with_dir(&dir).unwrap();
        let got = cache.get_or_run(&spec::mcf(), &glacial_dram(), &[20], 1, false, None);
        assert!(matches!(got[..], [Err(RunStop::Truncated)]), "{got:?}");
        assert!(cache.is_empty(), "a truncated baseline was memoized");
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 0, "a truncated baseline was persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_backed_cache_survives_reconstruction() {
        let dir = scratch_dir("roundtrip");
        let e =
            Experiment::new(vec![spec::omnetpp(), spec::hmmer()]).instructions_per_thread(2_000);

        let first = AloneCache::with_dir(&dir).unwrap();
        let a = e.run_with_cache(&first);
        assert_eq!(first.len(), 2);

        // A fresh cache over the same directory starts empty in memory but
        // resolves both baselines from disk, bit-identically.
        let second = AloneCache::with_dir(&dir).unwrap();
        assert!(second.is_empty());
        let b = e.run_with_cache(&second);
        assert_eq!(second.len(), 2);
        assert_eq!(a.unfairness(), b.unfairness());
        assert_eq!(a.weighted_speedup(), b.weighted_speedup());
        for (x, y) in a.threads.iter().zip(&b.threads) {
            assert_eq!(x.alone, y.alone, "persisted baseline diverged");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store's corruption matrix, plus three torn alone files (cut
    /// mid-line; cut cleanly after the first counter, where every later
    /// one would read as zero; one counter written twice in place of
    /// another, so the line count alone looks right), each miss
    /// quarantined once and healed by the recomputed baseline.
    #[test]
    fn corrupt_disk_entry_is_quarantined_and_recomputed() {
        let dir = scratch_dir("corrupt");
        let cache = AloneCache::with_dir(&dir).unwrap();
        let e = Experiment::new(vec![spec::omnetpp()]).instructions_per_thread(2_000);
        let honest = e.run_with_cache(&cache).threads[0].alone;
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let intact = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = intact.lines().collect();
        assert_eq!(lines.len(), 12, "key, ten counters, checksum footer");
        let body = lines[..11].join("\n");

        let mid_line = intact[..intact.len() / 3].to_string();
        let cut_after_one = lines[..2].join("\n") + "\n";
        let mut repeated = lines.clone();
        repeated[2] = repeated[1];
        let repeated = repeated.join("\n") + "\n";
        let torn = [mid_line, cut_after_one, repeated].map(|t| ("torn", t.into_bytes()));
        for (tag, corrupt) in crate::store::corruptions(&body).into_iter().chain(torn) {
            let bad = path.with_extension("txt.bad");
            let _ = std::fs::remove_file(&bad);
            std::fs::write(&path, corrupt).unwrap();
            let fresh = AloneCache::with_dir(&dir).unwrap();
            let again = e.run_with_cache(&fresh).threads[0].alone;
            assert_eq!(again, honest, "{tag}: recomputed baseline differs");
            assert_eq!(fresh.quarantined_count(), 1, "{tag}: not quarantined");
            assert!(bad.exists(), "{tag}: no quarantine file");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), intact);
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The key covers the prefetcher: a run with it and one without
    /// through one cache are two baselines.
    #[test]
    fn prefetch_configurations_get_their_own_baselines() {
        let cache = AloneCache::new();
        let alone = |on| {
            Experiment::new(vec![spec::libquantum()])
                .instructions_per_thread(3_000)
                .prefetch(on)
                .run_with_cache(&cache)
                .threads[0]
                .alone
        };
        let (off, on) = (alone(false), alone(true));
        assert_eq!(cache.len(), 2);
        assert_ne!(off, on, "the prefetching run was served the plain baseline");
    }

    #[test]
    fn determinism_across_runs() {
        let e = Experiment::new(vec![spec::mcf(), spec::libquantum()])
            .scheduler(SchedulerKind::Stfm)
            .instructions_per_thread(4_000);
        let a = e.run();
        let b = e.run();
        assert_eq!(a.unfairness(), b.unfairness());
        assert_eq!(a.weighted_speedup(), b.weighted_speedup());
    }

    #[test]
    fn slowdowns_exceed_one_under_contention() {
        let m = Experiment::new(vec![spec::mcf(), spec::libquantum()])
            .instructions_per_thread(5_000)
            .run();
        for t in &m.threads {
            assert!(
                t.mem_slowdown() > 0.9,
                "{} slowdown {} implausible",
                t.name,
                t.mem_slowdown()
            );
        }
        assert!(m.unfairness() >= 1.0);
    }

    #[test]
    fn timing_checker_clean_end_to_end() {
        let mut sys = Experiment::new(vec![spec::libquantum(), spec::gems_fdtd()])
            .scheduler(SchedulerKind::Stfm)
            .shared_system();
        audit_timing(sys.memory_mut());
        let out = sys.run(&[Budget::of(3_000)]).remove(0);
        assert_eq!(RunStop::of(&out), None);
        assert_timing_clean(sys.memory_mut());
    }
}
