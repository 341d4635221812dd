//! Measurement helpers: the per-workload outcome ledger, order
//! statistics, peak RSS, kernel batching and the scratch directory.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use stfm_cpu::CoreStats;

use crate::names;

/// A fixed reference loop timed right beside every piece of measured
/// work, so that host times can be reported at a constant host speed.
///
/// This sandbox shares its host: identical work runs 10-30% slower for
/// minutes at a time, and sub-second spikes sit on top. The loop below
/// is independent of the simulator (an optimisation cannot speed it
/// up) and has a similar appetite — dependent loads and branchy integer
/// work over a table that fits L1 and one that fits L2 — so the ratio
/// of one slice's time to [`REF_NOMINAL_S`] tracks how slow the host is
/// right now. [`HostRef::around`] brackets a piece of work with a slice
/// on either side and divides its time by their mean slowdown.
#[derive(Default)]
pub struct HostRef {
    tables: Vec<Vec<u32>>,
    /// Slowdown of every slice taken, in order.
    slowdowns: Vec<f64>,
    /// When the latest slice ended.
    latest: Option<Instant>,
    /// Whether times are left as measured (see [`HostRef::off`]).
    off: bool,
}

/// Seconds one reference slice takes on this sandbox in a quiet phase
/// (median over six invocations at HEAD); calibrated times read as
/// seconds at that host speed.
pub const REF_NOMINAL_S: f64 = 0.0415;

/// Table sizes in `u32` entries (32 KB and 256 KB) and iterations per
/// slice over each.
const REF_SHAPE: [(usize, u64); 2] = [(1 << 13, 4_000_000), (1 << 16, 2_500_000)];

/// How long one slice stands for the host's speed: a new one is taken
/// only when the latest ended longer ago, so back-to-back pieces share a
/// slice and runs shorter than this are not each paid for with one.
const SLICE_EVERY_S: f64 = 0.4;

/// One piece of work timed by [`HostRef::around`].
#[derive(Clone, Copy, Default)]
pub struct Timed {
    /// Host seconds as measured.
    pub raw_s: f64,
    /// The same at nominal host speed: `raw_s` over the slowdown of the
    /// slices around the work.
    pub cal_s: f64,
}

impl Timed {
    /// A time nothing was read around: both readings are `raw_s`.
    pub fn raw(raw_s: f64) -> Timed {
        Timed {
            raw_s,
            cal_s: raw_s,
        }
    }

    /// `part_s` of this piece's raw seconds, at nominal host speed.
    pub fn scale(&self, part_s: f64) -> Timed {
        Timed {
            raw_s: part_s,
            cal_s: part_s * self.cal_s / self.raw_s.max(f64::MIN_POSITIVE),
        }
    }
}

impl std::iter::Sum for Timed {
    fn sum<I: Iterator<Item = Timed>>(iter: I) -> Timed {
        iter.fold(Timed::default(), |a, b| Timed {
            raw_s: a.raw_s + b.raw_s,
            cal_s: a.cal_s + b.cal_s,
        })
    }
}

impl HostRef {
    /// A reference that takes no slices and leaves every time as
    /// measured, for work the loop does not describe.
    pub fn off() -> HostRef {
        HostRef {
            off: true,
            ..HostRef::default()
        }
    }

    /// Times one slice of the reference loop and returns its slowdown.
    fn slice(&mut self) -> f64 {
        if self.tables.is_empty() {
            self.tables = REF_SHAPE
                .iter()
                .map(|&(n, _)| (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B1)).collect())
                .collect();
        }
        let start = Instant::now();
        for (table, &(_, iters)) in self.tables.iter_mut().zip(&REF_SHAPE) {
            std::hint::black_box(reference_loop(table, iters));
        }
        let slowdown = secs(start) / REF_NOMINAL_S;
        self.slowdowns.push(slowdown);
        self.latest = Some(Instant::now());
        slowdown
    }

    /// The host's slowdown now: the latest slice if it is recent enough,
    /// otherwise a new one.
    fn now(&mut self) -> f64 {
        match (self.latest, self.slowdowns.last()) {
            (Some(at), Some(&s)) if secs(at) < SLICE_EVERY_S => s,
            _ => self.slice(),
        }
    }

    /// Runs `f` between two readings of the host's slowdown and returns
    /// its result and its time, raw and divided by their mean.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        if self.off {
            let start = Instant::now();
            let result = f();
            return (result, Timed::raw(secs(start)));
        }
        let before = self.now();
        let start = Instant::now();
        let result = f();
        let raw_s = secs(start);
        let after = self.now();
        let cal_s = raw_s / ((before + after) / 2.0);
        (result, Timed { raw_s, cal_s })
    }

    /// How much slower than nominal the host ran over this invocation:
    /// the median slice (1 when none was taken).
    pub fn slowdown(&self) -> f64 {
        if self.slowdowns.is_empty() {
            1.0
        } else {
            median(&self.slowdowns)
        }
    }
}

/// Dependent table walk with xorshift mixing, a data-dependent branch
/// and a store per step.
fn reference_loop(table: &mut [u32], iters: u64) -> u64 {
    let mask = table.len() as u64 - 1;
    let (mut x, mut idx, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 1u64, 0u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        idx = (u64::from(table[(idx & mask) as usize]) ^ x) & mask;
        let v = &mut table[idx as usize];
        if *v & 1 == 0 {
            acc = acc.wrapping_add(u64::from(*v));
        } else {
            acc ^= x;
        }
        *v = v.wrapping_mul(0x9E37_79B1).wrapping_add(idx as u32);
    }
    acc
}

/// What one workload invocation produced: named values plus the
/// operation ledger behind `fail_share`.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by declared name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (runs, cells, output checks).
    pub attempted: u64,
    /// Operations that failed (truncated or cancelled runs, error or
    /// missing result lines, digest mismatches).
    pub failed: u64,
    /// Digest of the workload's checked outputs.
    pub digest: u64,
}

impl Outcome {
    /// Records `value` under `name`. A name the tables do not declare,
    /// or a value that is not finite, counts as a failed operation.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let ok = names::unit_of(name).is_some() && value.is_finite();
        if ok {
            self.metrics.insert(name, value);
        } else {
            self.op(false, || format!("metric {name} = {value} rejected"));
        }
    }

    /// Counts one operation; `what` describes it when it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// `failed / attempted`.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one timed rep measured, in the terms every workload shares.
pub struct RepStats {
    /// The whole rep.
    pub wall: Timed,
    /// Simulated DRAM kcycles summed over the rep's runs or cells.
    pub kcycles: f64,
    /// The same, STFM runs or cells only.
    pub stfm_kcycles: f64,
    /// Time spent in the STFM runs or cells.
    pub stfm_wall: Timed,
    /// Runs or cells completed.
    pub cells: u64,
    /// Per-run or per-cell latencies.
    pub latencies: Vec<Timed>,
}

/// The host-time end-to-end metrics of one invocation, from its
/// set-ups and timed reps: medians over reps, latencies pooled over
/// reps. `pick` selects the calibrated or the raw reading of a time.
fn host_metrics(
    setups: &[Timed],
    reps: &[RepStats],
    pick: fn(&Timed) -> f64,
) -> [(&'static str, f64); 7] {
    let over = |f: &dyn Fn(&RepStats) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let per_rep: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| r.latencies.iter().map(|t| pick(t) * 1e3).collect())
        .collect();
    [
        (
            "setup_s",
            median(&setups.iter().map(pick).collect::<Vec<_>>()),
        ),
        ("wall_s", over(&|r| pick(&r.wall))),
        ("sim_kcycles_per_s", over(&|r| r.kcycles / pick(&r.wall))),
        (
            "stfm_kcycles_per_s",
            over(&|r| r.stfm_kcycles / pick(&r.stfm_wall)),
        ),
        ("cells_per_s", over(&|r| r.cells as f64 / pick(&r.wall))),
        ("cell_latency_ms_p50", median(&per_rep.concat())),
        ("cell_latency_ms_p95", tail_latency(&per_rep)),
    ]
}

/// Records the end-to-end metrics of one invocation: every host time at
/// nominal host speed (see [`HostRef`]), and peak memory. The readings
/// as measured are printed beside them, so the two can be compared.
pub fn report_end_to_end(out: &mut Outcome, setups: &[Timed], reps: &[RepStats]) {
    for (name, value) in host_metrics(setups, reps, |t| t.cal_s) {
        out.set(name, value);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    println!(
        "latency samples: {} per rep x {} reps",
        reps.first().map_or(0, |r| r.latencies.len()),
        reps.len(),
    );
    for (name, value) in host_metrics(setups, reps, |t| t.raw_s) {
        println!("  uncalibrated {name:<23} {value:>18.6}");
    }
}

/// One scheduler's simulated outcomes and host time over a workload's
/// runs or cells.
pub struct SchedRow {
    /// Unfairness (gmean over mixes or cells).
    pub unfairness: f64,
    /// Weighted speedup, same aggregation.
    pub wspeedup: f64,
    /// Host seconds spent under this scheduler.
    pub wall_s: f64,
}

/// Records the per-scheduler rows (`None`: the workload ran nothing
/// under that scheduler), STFM's outcomes, and STFM's rank by
/// unfairness among the schedulers that ran (1 = fairest).
pub fn report_schedulers(out: &mut Outcome, rows: &[Option<SchedRow>]) {
    for (sched, row) in rows.iter().enumerate() {
        let Some(row) = row else { continue };
        out.set(names::per_sched("sim.unfairness", sched), row.unfairness);
        out.set(names::per_sched("sim.wspeedup", sched), row.wspeedup);
        out.set(names::per_sched("sim.wall_s", sched), row.wall_s);
    }
    if let Some(Some(stfm)) = rows.get(names::STFM) {
        let fairer = rows
            .iter()
            .flatten()
            .filter(|r| r.unfairness < stfm.unfairness)
            .count();
        out.set("stfm_unfairness", stfm.unfairness);
        out.set("stfm_weighted_speedup", stfm.wspeedup);
        out.set("stfm_unfairness_rank", 1.0 + fairer as f64);
    }
}

/// Sums the frozen shared-run counters of every thread of every run
/// into `sim.insts` and the `cpu.*` counts.
pub fn report_core_sums<'a>(out: &mut Outcome, threads: impl Iterator<Item = &'a CoreStats>) {
    let mut sum = CoreStats::default();
    for s in threads {
        sum.instructions += s.instructions;
        sum.l2_misses += s.l2_misses;
        sum.l2_merged += s.l2_merged;
        sum.writebacks += s.writebacks;
        sum.mem_stall_cycles += s.mem_stall_cycles;
    }
    out.set("sim.insts", sum.instructions as f64);
    out.set("cpu.l2_misses", sum.l2_misses as f64);
    out.set("cpu.l2_merged", sum.l2_merged as f64);
    out.set("cpu.writebacks", sum.writebacks as f64);
    out.set("cpu.mem_stall_cycles", sum.mem_stall_cycles as f64);
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median of `values` (mean of the middle two for an even count; 0 for
/// an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Index of the value closest to the median of `values`: the rep the
/// per-layer passes take their host times from, rather than whichever
/// came first.
pub fn typical(values: &[f64]) -> Option<usize> {
    let mid = median(values);
    (0..values.len()).min_by(|&a, &b| (values[a] - mid).abs().total_cmp(&(values[b] - mid).abs()))
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank 95th percentile of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (a tail read from a handful of
/// samples is a maximum, not a percentile).
pub fn p95(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * 95).div_ceil(100);
    (rank >= 1 && v.len() - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

/// The tail latency reported as `cell_latency_ms_p95`: the pooled p95
/// when enough samples lie beyond it, otherwise the median over reps of
/// each rep's slowest cell.
pub fn tail_latency(reps: &[Vec<f64>]) -> f64 {
    let pooled: Vec<f64> = reps.iter().flatten().copied().collect();
    p95(&pooled).unwrap_or_else(|| {
        let maxima: Vec<f64> = reps
            .iter()
            .map(|r| r.iter().copied().fold(0.0, f64::max))
            .collect();
        median(&maxima)
    })
}

/// Peak resident set size of this process in MB (`VmHWM`); 0 when
/// `/proc` is not readable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `batch` five times and returns the smallest ns/op, where each
/// call reports `(elapsed ns, operations)`. The minimum is the batch
/// least disturbed by the host.
pub fn min_ns_per_op(mut batch: impl FnMut() -> (u128, u64)) -> f64 {
    (0..5)
        .map(|_| {
            let (ns, ops) = batch();
            ns as f64 / ops.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times `iters` calls of `f` as one batch for [`min_ns_per_op`].
pub fn time_calls<R>(iters: u64, mut f: impl FnMut() -> R) -> (u128, u64) {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    (start.elapsed().as_nanos(), iters)
}

/// A fresh scratch directory next to the running executable (inside
/// the build directory, so inside the checkout and ignored by git),
/// removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `benchmark-scratch-<pid>-<tag>` beside the executable.
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().map_or_else(PathBuf::new, PathBuf::from);
        let dir = base.join(format!("benchmark-scratch-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A path below the scratch directory.
    pub fn join(&self, leaf: &str) -> PathBuf {
        self.0.join(leaf)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond() {
        let few: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(p95(&few), None, "199 samples leave 9 beyond rank 190");
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p95(&enough), Some(190.0));
        assert_eq!(p95(&[]), None);
    }

    #[test]
    fn tail_falls_back_to_median_of_rep_maxima() {
        let reps = vec![vec![1.0, 9.0], vec![2.0, 5.0], vec![3.0, 7.0]];
        assert_eq!(tail_latency(&reps), 7.0);
        let big = vec![(1..=200).map(f64::from).collect::<Vec<_>>()];
        assert_eq!(tail_latency(&big), 190.0);
    }

    #[test]
    fn timed_pieces_scale_and_add() {
        let whole = Timed {
            raw_s: 2.0,
            cal_s: 1.0,
        };
        let part = whole.scale(0.5);
        assert_eq!((part.raw_s, part.cal_s), (0.5, 0.25));
        let sum: Timed = [whole, part, Timed::raw(1.0)].into_iter().sum();
        assert_eq!((sum.raw_s, sum.cal_s), (3.5, 2.25));

        let mut host = HostRef::default();
        assert_eq!(host.slowdown(), 1.0, "nothing read yet");
        let (value, took) = host.around(|| 7);
        assert_eq!(value, 7);
        assert!(took.cal_s.is_finite() && took.cal_s >= 0.0 && host.slowdown() > 0.0);
        assert_eq!(host.slowdowns.len(), 1, "a short piece shares one slice");

        let mut off = HostRef::off();
        let (_, as_measured) = off.around(|| ());
        assert_eq!(as_measured.raw_s, as_measured.cal_s);
        assert!(off.slowdowns.is_empty());
    }

    #[test]
    fn typical_picks_the_middle_rep() {
        assert_eq!(typical(&[9.0, 2.0, 3.0]), Some(2));
        assert_eq!(typical(&[5.0]), Some(0));
        assert_eq!(typical(&[]), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn undeclared_metric_counts_as_failure() {
        let mut o = Outcome::default();
        o.set("wall_s", 1.0);
        assert_eq!((o.attempted, o.failed), (0, 0));
        o.set("no.such.metric", 1.0);
        o.set("wall_s", f64::NAN);
        assert_eq!(o.failed, 2);
        assert_eq!(o.metrics.len(), 1);
    }
}
