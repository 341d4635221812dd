//! Experiment construction and execution.
//!
//! An [`Experiment`] is one multiprogrammed workload run under one
//! scheduler: it builds the cores (one synthetic trace per profile), the
//! shared memory system, runs every thread to its instruction budget, runs
//! (or fetches from the [`AloneCache`]) each benchmark's alone baseline,
//! and reduces everything to [`WorkloadMetrics`].

use crate::cancel::CancelToken;
use crate::metrics::{ThreadMetrics, WorkloadMetrics};
use crate::scheduler_kind::SchedulerKind;
use crate::system::System;
use std::any::Any;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use stfm_core::{Stfm, StfmConfig};
use stfm_cpu::{Core, CoreConfig, CoreStats, PrefetchConfig};
use stfm_dram::{DramConfig, DramDelta, CPU_CYCLES_PER_DRAM_CYCLE};
use stfm_mc::{ControllerConfig, MemorySystem, RowPolicy, ThreadId};
use stfm_telemetry::{Event, Sink};
use stfm_workloads::{Profile, SyntheticTrace};

/// Default per-thread instruction budget. Deliberately modest so whole
/// figure sweeps finish in minutes; harness binaries raise it via
/// [`Experiment::instructions_per_thread`].
pub const DEFAULT_INSTRUCTIONS: u64 = 30_000;

/// Cycle-cap safety factor: a run aborts (with `truncated = true`) after
/// `insts × MAX_CPI` CPU cycles per thread.
const MAX_CPI: u64 = 4_000;

/// Alone-run cache key: benchmark name, DRAM configuration, instruction
/// budget, workload seed, and whether a prefetcher was enabled.
type AloneKey = (String, DramConfig, u64, u64, bool);

/// Memoizes alone-run baselines keyed by (benchmark, DRAM config, budget,
/// seed). Thread-safe: the parallel runner shares one cache.
///
/// With [`AloneCache::with_dir`] the cache is additionally backed by a
/// directory on disk, so baselines survive across process invocations
/// (the sweep runner and `stfm serve` amortize them over thousands of
/// cells). Disk entries are keyed by an FNV digest of the full cache key
/// and self-validating: a file whose stored key string does not match is
/// treated as a miss and rewritten.
#[derive(Debug, Default)]
pub struct AloneCache {
    inner: Mutex<HashMap<AloneKey, CoreStats>>,
    dir: Option<PathBuf>,
}

/// First line of every persisted baseline file (format version gate).
const ALONE_FILE_HEADER: &str = "stfm-alone v1";

impl AloneCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache persisted under `dir` (created if missing):
    /// baselines computed by any run land there and seed later
    /// invocations.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(AloneCache {
            inner: Mutex::new(HashMap::new()),
            dir: Some(dir),
        })
    }

    /// Number of memoized baselines.
    pub fn len(&self) -> usize {
        // A poisoned lock only means another runner panicked mid-insert;
        // the map itself is still a valid memo cache.
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True if no baseline has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the memoized/recomputed baseline, or `None` if `cancel`
    /// fired while the baseline was being simulated. A cancelled baseline
    /// is never stored — neither in memory nor on disk — so a later retry
    /// recomputes it in full.
    fn get_or_run(
        &self,
        profile: &Profile,
        dram: &DramConfig,
        insts: u64,
        seed: u64,
        prefetch: Option<PrefetchConfig>,
        cancel: Option<&CancelToken>,
    ) -> Option<CoreStats> {
        let key = (
            profile.name.to_string(),
            dram.clone(),
            insts,
            seed,
            prefetch.is_some(),
        );
        if let Some(hit) = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Some(*hit);
        }
        let key_str = Self::key_string(&key);
        if let Some(dir) = &self.dir {
            if let Some(hit) = Self::load_disk(&Self::disk_path(dir, &key_str), &key_str) {
                self.inner
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(key, hit);
                return Some(hit);
            }
        }
        let (stats, cancelled) = run_alone_inner(profile, dram, insts, seed, prefetch, cancel);
        if cancelled {
            return None;
        }
        if let Some(dir) = &self.dir {
            Self::store_disk(&Self::disk_path(dir, &key_str), &key_str, &stats);
        }
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, stats);
        Some(stats)
    }

    /// Canonical one-line rendering of an [`AloneKey`]. The derived
    /// `Debug` of `DramConfig` spells out every timing and geometry field,
    /// so two keys collide only if the configurations are identical; a
    /// format change across versions merely misses (and refreshes) the
    /// disk entry.
    fn key_string(key: &AloneKey) -> String {
        format!(
            "alone-v1|{}|{:?}|insts={}|seed={}|prefetch={}",
            key.0, key.1, key.2, key.3, key.4
        )
    }

    fn disk_path(dir: &Path, key_str: &str) -> PathBuf {
        dir.join(format!("alone-{}.txt", crate::digest::hex_digest(key_str)))
    }

    /// Reads a persisted baseline; any mismatch (version, key string,
    /// unknown field, parse failure, a counter missing or repeated — a
    /// file cut short must not load as zeros) is a miss, never an error.
    fn load_disk(path: &Path, key_str: &str) -> Option<CoreStats> {
        let src = std::fs::read_to_string(path).ok()?;
        let mut lines = src.lines();
        if lines.next()? != ALONE_FILE_HEADER || lines.next()? != key_str {
            return None;
        }
        let mut stats = CoreStats::default();
        let mut seen = Vec::new();
        for line in lines {
            let (field, value) = line.split_once(' ')?;
            let v: u64 = value.parse().ok()?;
            if seen.contains(&field) {
                return None;
            }
            seen.push(field);
            match field {
                "cycles" => stats.cycles = v,
                "instructions" => stats.instructions = v,
                "mem_stall_cycles" => stats.mem_stall_cycles = v,
                "loads" => stats.loads = v,
                "stores" => stats.stores = v,
                "l2_misses" => stats.l2_misses = v,
                "l2_merged" => stats.l2_merged = v,
                "writebacks" => stats.writebacks = v,
                "prefetches" => stats.prefetches = v,
                "prefetch_hits" => stats.prefetch_hits = v,
                _ => return None,
            }
        }
        (seen.len() == 10).then_some(stats)
    }

    /// Persists a baseline via write-to-temp + rename, so concurrent
    /// writers sharing a cache directory never observe a torn file. The
    /// temp name carries the pid *and* a process-wide counter: two
    /// threads of one process persisting the same key must not share a
    /// temp path, or one can rename the other's half-written file.
    /// Failures are swallowed: the disk layer is an optimization.
    fn store_disk(path: &Path, key_str: &str, stats: &CoreStats) {
        let mut s = format!("{ALONE_FILE_HEADER}\n{key_str}\n");
        let fields = [
            ("cycles", stats.cycles),
            ("instructions", stats.instructions),
            ("mem_stall_cycles", stats.mem_stall_cycles),
            ("loads", stats.loads),
            ("stores", stats.stores),
            ("l2_misses", stats.l2_misses),
            ("l2_merged", stats.l2_merged),
            ("writebacks", stats.writebacks),
            ("prefetches", stats.prefetches),
            ("prefetch_hits", stats.prefetch_hits),
        ];
        for (name, v) in fields {
            let _ = writeln!(s, "{name} {v}");
        }
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp{}-{}", std::process::id(), seq));
        if std::fs::write(&tmp, s).is_ok() && std::fs::rename(&tmp, path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// Default warmup as a fraction of the instruction budget (cache cold
/// misses and generator start-up are excluded from measurements).
pub fn default_warmup(insts: u64) -> u64 {
    insts / 4
}

/// Runs `profile` alone on `dram` under FR-FCFS (the paper's baseline for
/// `T_alone` and `MCPI_alone`).
pub fn run_alone(profile: &Profile, dram: &DramConfig, insts: u64, seed: u64) -> CoreStats {
    run_alone_with(profile, dram, insts, seed, None)
}

/// [`run_alone`] with an optional per-core prefetcher.
pub fn run_alone_with(
    profile: &Profile,
    dram: &DramConfig,
    insts: u64,
    seed: u64,
    prefetch: Option<PrefetchConfig>,
) -> CoreStats {
    run_alone_inner(profile, dram, insts, seed, prefetch, None).0
}

/// Shared body of the alone-run paths. Returns the (possibly partial)
/// stats plus whether `cancel` stopped the run; partial stats must not be
/// used as a baseline.
fn run_alone_inner(
    profile: &Profile,
    dram: &DramConfig,
    insts: u64,
    seed: u64,
    prefetch: Option<PrefetchConfig>,
    cancel: Option<&CancelToken>,
) -> (CoreStats, bool) {
    let mem = MemorySystem::new(
        dram.clone(),
        SchedulerKind::FrFcfs.build(dram.timing, &[], &[]),
    );
    let trace = SyntheticTrace::new(profile.clone(), dram, 0, seed);
    let core_cfg = CoreConfig {
        prefetch,
        ..CoreConfig::paper_baseline()
    };
    let core = Core::with_config(ThreadId(0), Box::new(trace), core_cfg);
    let mut sys = System::new(vec![core], mem);
    if let Some(t) = cancel {
        sys.set_cancel_token(t.clone());
    }
    let out = sys.run_with_warmup(default_warmup(insts), insts, insts.saturating_mul(MAX_CPI));
    (out.frozen[0], out.cancelled)
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
    insts: u64,
    seed: u64,
    alpha: Option<f64>,
    weights: Vec<(u32, u32)>,
    shares: Vec<(u32, u32)>,
    timing_checker: bool,
    row_policy: RowPolicy,
    prefetch: Option<PrefetchConfig>,
    sample_interval: Option<u64>,
    fast_forward: bool,
}

/// Result of [`Experiment::run_traced`]: the usual metrics plus the sink
/// that observed the run, handed back so callers can downcast and extract
/// what it recorded.
pub struct TracedRun {
    /// The run's reduced metrics, identical to what [`Experiment::run`]
    /// would have produced (sinks only observe).
    pub metrics: WorkloadMetrics,
    /// The telemetry sink, detached from the memory system after the run.
    pub sink: Box<dyn Sink>,
    /// The last DRAM cycle simulated; pass to
    /// [`stfm_telemetry::EpochSampler::finish`] to close the final epoch.
    pub final_dram_cycle: u64,
    /// Whether a [`CancelToken`] stopped the run early. When set,
    /// `metrics.threads` is empty — partial statistics are never reduced
    /// into reportable metrics.
    pub cancelled: bool,
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
            alpha: None,
            weights: Vec::new(),
            shares: Vec::new(),
            timing_checker: false,
            row_policy: RowPolicy::OpenPage,
            prefetch: None,
            sample_interval: None,
            fast_forward: true,
        }
    }

    /// Selects the shared run's loop: the event-driven loop (`true`, the
    /// default) or the stepped cycle-by-cycle oracle (`false`). Results
    /// are bit-identical either way; the equivalence tests use this to
    /// pit the two against each other.
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

    /// Sets STFM's `α` (ignored by other schedulers).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
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

    /// Enables the DDR2 timing auditor for the run (panics on violation at
    /// the end of the run).
    pub fn timing_checker(mut self, on: bool) -> Self {
        self.timing_checker = on;
        self
    }

    /// Selects the controller's row-buffer policy (default: open page, the
    /// paper's baseline).
    pub fn row_policy(mut self, policy: RowPolicy) -> Self {
        self.row_policy = policy;
        self
    }

    /// Enables the per-core stream prefetcher (extension; the paper's
    /// baseline has none). Applies to the shared run *and* the alone
    /// baselines, which are cached separately per configuration.
    pub fn prefetch(mut self, cfg: PrefetchConfig) -> Self {
        self.prefetch = Some(cfg);
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

    fn effective_scheduler(&self) -> SchedulerKind {
        match (self.scheduler, self.alpha) {
            (SchedulerKind::Stfm, Some(a)) => SchedulerKind::StfmWith(StfmConfig {
                alpha: a,
                ..StfmConfig::default()
            }),
            (SchedulerKind::StfmWith(mut cfg), Some(a)) => {
                cfg.alpha = a;
                SchedulerKind::StfmWith(cfg)
            }
            (kind, _) => kind,
        }
    }

    /// Runs the experiment with a private alone-run cache.
    pub fn run(&self) -> WorkloadMetrics {
        self.run_with_cache(&AloneCache::new())
    }

    /// Runs the experiment, memoizing / reusing alone baselines in
    /// `cache`.
    pub fn run_with_cache(&self, cache: &AloneCache) -> WorkloadMetrics {
        self.run_inner(cache, None, None).metrics
    }

    /// Runs the experiment under a cooperative [`CancelToken`]: the shared
    /// run and any uncached alone baselines poll it between DRAM cycles.
    /// Returns `None` if the token fired before the run completed; a
    /// cancelled run stores nothing in `cache`, and the metrics of an
    /// uncancelled run are bit-identical to [`Experiment::run_with_cache`]
    /// (the token is only ever *read* on the happy path).
    pub fn run_cancellable(
        &self,
        cache: &AloneCache,
        cancel: &CancelToken,
    ) -> Option<WorkloadMetrics> {
        let run = self.run_inner(cache, None, Some(cancel));
        (!run.cancelled).then_some(run.metrics)
    }

    /// Runs the experiment with `sink` attached to the shared memory
    /// system, recording the full event stream. Alone baselines stay
    /// untraced (they are cached and shared across runs). The metrics are
    /// bit-identical to an untraced run: sinks only observe.
    pub fn run_traced(&self, cache: &AloneCache, sink: Box<dyn Sink>) -> TracedRun {
        self.run_inner(cache, Some(sink), None)
    }

    fn run_inner(
        &self,
        cache: &AloneCache,
        sink: Option<Box<dyn Sink>>,
        cancel: Option<&CancelToken>,
    ) -> TracedRun {
        let dram = self.effective_dram();
        let kind = self.effective_scheduler();
        let policy = kind.build(dram.timing, &self.weights, &self.shares);
        let ctrl = ControllerConfig {
            row_policy: self.row_policy,
            ..ControllerConfig::paper_baseline()
        };
        let mut mem = MemorySystem::with_controller_config(dram.clone(), ctrl, policy);
        if let Some(sink) = sink {
            mem.set_sink(sink);
        }
        if let Some(interval) = self.sample_interval {
            mem.set_sample_interval(DramDelta::new(interval));
        }
        if self.timing_checker {
            mem.enable_timing_checker();
        }
        let core_cfg = CoreConfig {
            prefetch: self.prefetch,
            ..CoreConfig::paper_baseline()
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
        let mut sys = System::new(cores, mem);
        sys.set_fast_forward(self.fast_forward);
        if let Some(t) = cancel {
            sys.set_cancel_token(t.clone());
        }
        let out = sys.run_with_warmup(
            default_warmup(self.insts),
            self.insts,
            self.insts.saturating_mul(MAX_CPI),
        );
        if self.timing_checker && !out.cancelled {
            sys.memory().assert_timing_clean();
        }
        debug_assert!(
            out.cancelled || !out.truncated,
            "run truncated: raise MAX_CPI?"
        );

        let mut cancelled = out.cancelled;
        let mut threads = Vec::with_capacity(self.profiles.len());
        if !cancelled {
            for (p, shared) in self.profiles.iter().zip(&out.frozen) {
                match cache.get_or_run(p, &dram, self.insts, self.seed, self.prefetch, cancel) {
                    Some(alone) => threads.push(ThreadMetrics {
                        name: p.name.to_string(),
                        shared: *shared,
                        alone,
                    }),
                    None => {
                        // The token fired mid-baseline: the whole run is
                        // cancelled, partial metrics are discarded.
                        cancelled = true;
                        threads.clear();
                        break;
                    }
                }
            }
        }
        // End-of-run work-counter snapshot for sinks that want it (e.g.
        // the benchmark and the work-counter regression tests). Emitted
        // after the run, never from the tick path: the counters differ
        // between the event-driven and stepped loops by design, so the
        // cycle-by-cycle event streams stay loop-agnostic.
        let mem = sys.memory_mut();
        let mut sink = mem.take_sink();
        let sched = mem.sched_counters();
        let stfm = (mem.policy() as &dyn Any).downcast_ref::<Stfm>();
        let work = stfm.map(Stfm::work).unwrap_or_default();
        sink.record(&Event::EstimatorWork {
            dram_cycle: mem.now(),
            scheduler: mem.policy().name(),
            full_rebuilds: work.full_rebuilds,
            incremental_updates: work.incremental_updates,
            decides_recomputed: work.decides_recomputed,
            decides_carried: work.decides_carried,
            sched_visits: sched.sched_visits,
            rank_scans: sched.rank_scans,
            rank_carried: sched.rank_carried,
        });
        TracedRun {
            metrics: WorkloadMetrics {
                scheduler: kind.name().to_string(),
                threads,
            },
            sink,
            final_dram_cycle: out.cpu_cycles / CPU_CYCLES_PER_DRAM_CYCLE,
            cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn corrupt_disk_entry_is_a_miss_not_an_error() {
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
        assert_eq!(lines.len(), 12, "header, key, ten counters");

        // Cut mid-line; cut cleanly after the first counter (every later
        // one would read as zero); one counter written twice in place of
        // another, so the line count alone looks right.
        let cut_after_one = lines[..3].join("\n") + "\n";
        let mut repeated = lines.clone();
        repeated[4] = repeated[3];
        let repeated = repeated.join("\n") + "\n";
        for corrupt in ["stfm-alone v1\ngarbage", &cut_after_one, &repeated] {
            std::fs::write(&path, corrupt).unwrap();
            let fresh = AloneCache::with_dir(&dir).unwrap();
            let again = e.run_with_cache(&fresh).threads[0].alone;
            assert_eq!(again, honest, "recomputed past {corrupt:?}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), intact);
        }

        let _ = std::fs::remove_dir_all(&dir);
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
        let _ = Experiment::new(vec![spec::libquantum(), spec::gems_fdtd()])
            .scheduler(SchedulerKind::Stfm)
            .instructions_per_thread(3_000)
            .timing_checker(true)
            .run();
    }
}
