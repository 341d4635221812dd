//! The paper's artefacts as records: Figs. 1 and 5–15, Tables 3 and 5, and
//! six ablations. Each [`Record`] names its mix set (with its `--full`
//! rule), its schedulers, its default budget and its print layout; a
//! [`Session`] renders it into a `String`.
//!
//! Every run a record prints is an [`Experiment`]. One session holds one
//! [`AloneCache`] and one experiment memo, keyed by the experiment's
//! derived `Debug`, for every record it renders, so an experiment is
//! simulated at most once per invocation: fig9/11/12 print their sample
//! mixes from the sweep they average, `fig15` and `ablation_cap` reuse
//! fig6's case-study runs, STFM's default configuration is one run for
//! `fig15` and three ablations, and Table 5's default geometry is one set
//! of runs for both of its rows. The layouts that read what an experiment
//! does not report (Table 3's row-buffer hit rates, STFM's registers) run
//! an experiment's [`System`] directly, on the same worker pool.

use std::any::Any;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use stfm_core::StfmConfig;
use stfm_mc::ThreadId;
use stfm_sim::{
    gmean, run_ordered, AloneCache, Budget, Experiment, RunOutcome, RunStop, SchedulerKind, System,
    Table, WorkloadMetrics,
};
use stfm_workloads::{desktop, mix, spec, Profile};

use Layout::{
    CaseStudy, Characterization, Devices, Estimates, Gmean, Grid, Pairs, Rows, Slowdowns, Weights,
};
use SchedulerKind::{FrFcfs, FrFcfsCap, Nfq, Stfm, StfmWith};

/// A mix with the title of the section that prints it.
type Mix = (String, Vec<Profile>);

/// A reduction of one run's metrics.
type Metric = fn(&WorkloadMetrics) -> f64;

/// A named change to an experiment: one column pair of a [`Grid`].
type Variant = (&'static str, fn(Experiment) -> Experiment);

fn experiment(kind: SchedulerKind, profiles: &[Profile], insts: u64, seed: u64) -> Experiment {
    Experiment::new(profiles.to_vec())
        .scheduler(kind)
        .instructions_per_thread(insts)
        .seed(seed)
}

/// STFM with one change to its default configuration.
fn stfm(change: impl FnOnce(&mut StfmConfig)) -> SchedulerKind {
    let mut cfg = StfmConfig::default();
    change(&mut cfg);
    StfmWith(cfg)
}

/// How a record prints its runs.
enum Layout {
    /// Fig. 1: each mix's per-thread memory slowdowns and unfairness.
    Slowdowns,
    /// One case-study table per mix: every scheduler's per-thread memory
    /// slowdowns, unfairness and throughput.
    CaseStudy,
    /// Case-study tables of every `step(n)`th of the `n` mixes (at most
    /// ten), then each scheduler's geometric means over all of them.
    Gmean {
        header: Option<fn(usize) -> String>,
        step: fn(usize) -> usize,
        title: &'static str,
    },
    /// Fig. 5: each mcf pair under FR-FCFS and STFM, and the mean gains.
    Pairs,
    /// Table 5: FR-FCFS's and STFM's geometric means at each device point
    /// `(label, banks, row_kb)`, where `None` is the default geometry.
    Devices(&'static [(&'static str, Option<u32>, Option<u32>)]),
    /// One row of metrics per labelled scheduler, on the record's one mix.
    Rows {
        title: &'static str,
        head: &'static str,
        sum_ipc: bool,
        rows: fn() -> Vec<(String, SchedulerKind)>,
    },
    /// Per mix, a table of scheduler × variant; `note` follows them all.
    Grid {
        variants: &'static [Variant],
        note: &'static str,
    },
    /// Fig. 14: per weight vector, each scheduler's per-thread memory
    /// slowdowns and the unfairness among the weight-1 threads, the
    /// vector given as STFM's weights and as NFQ's shares.
    Weights(&'static [[u32; 4]]),
    /// Table 3: each benchmark's alone-run MCPI, L2 MPKI and row-buffer
    /// hit rate beside the paper's.
    Characterization,
    /// Per labelled STFM configuration, each thread's measured memory
    /// slowdown against STFM's own estimate and registers, then the
    /// estimator's charge totals.
    Estimates(fn() -> Vec<(&'static str, SchedulerKind)>),
}

/// One artefact of the paper.
pub struct Record {
    /// The artefact's id: `stfm paper --figure <id>`, `<dir>/<id>.txt`.
    pub id: &'static str,
    /// Default per-thread instruction budget.
    insts: u64,
    /// The mixes, given `--full`.
    mixes: fn(bool) -> Vec<Mix>,
    kinds: &'static [SchedulerKind],
    layout: Layout,
}

const ALL: &[SchedulerKind] = &[FrFcfs, SchedulerKind::Fcfs, FrFcfsCap { cap: 4 }, Nfq, Stfm];
const PAIR: &[SchedulerKind] = &[FrFcfs, Stfm];

fn one(title: &str, profiles: Vec<Profile>) -> Vec<Mix> {
    vec![(title.to_string(), profiles)]
}

fn case_study_i(_: bool) -> Vec<Mix> {
    one("", mix::case_study_intensive())
}

/// Every `every`th mix, titled by its benchmarks.
fn sampled(mixes: Vec<Vec<Profile>>, every: usize) -> Vec<Mix> {
    let names = |m: &[Profile]| m.iter().map(|p| p.name).collect::<Vec<_>>();
    let sample = |m: Vec<Profile>| (format!("sample mix {:?}", names(&m)), m);
    mixes.into_iter().step_by(every).map(sample).collect()
}

/// Every record, in `stfm paper --all` order.
pub const RECORDS: &[Record] = &[
    Record {
        id: "fig1",
        insts: 100_000,
        kinds: &[FrFcfs],
        mixes: |_| {
            vec![
                (
                    "Figure 1 (left): 4-core, FR-FCFS".into(),
                    mix::fig1_four_core(),
                ),
                (
                    "Figure 1 (right): 8-core, FR-FCFS".into(),
                    mix::fig1_eight_core(),
                ),
            ]
        },
        layout: Slowdowns,
    },
    Record {
        id: "fig5",
        insts: 100_000,
        kinds: PAIR,
        mixes: |_| sampled(mix::mcf_pairs(), 1),
        layout: Pairs,
    },
    Record {
        id: "fig6",
        insts: 150_000,
        kinds: ALL,
        mixes: |_| {
            let title = "Figure 6: case study I - memory-intensive 4-core workload";
            one(title, mix::case_study_intensive())
        },
        layout: CaseStudy,
    },
    Record {
        id: "fig7",
        insts: 150_000,
        kinds: ALL,
        mixes: |_| {
            one(
                "Figure 7: case study II - mixed 4-core workload",
                mix::case_study_mixed(),
            )
        },
        layout: CaseStudy,
    },
    Record {
        id: "fig8",
        insts: 150_000,
        kinds: ALL,
        mixes: |_| {
            let title = "Figure 8: case study III - non-memory-intensive 4-core workload";
            one(title, mix::case_study_non_intensive())
        },
        layout: CaseStudy,
    },
    Record {
        id: "fig9",
        insts: 50_000,
        kinds: ALL,
        mixes: |full| sampled(mix::category_combinations(4), if full { 1 } else { 8 }),
        layout: Gmean {
            header: Some(|n| format!("Figure 9: {n} of 256 4-core mixes (use --full for all)")),
            step: |n| (n / 10).max(1),
            title: "Figure 9 (right): geometric means over all mixes",
        },
    },
    Record {
        id: "fig10",
        insts: 60_000,
        kinds: ALL,
        mixes: |_| {
            one(
                "Figure 10: non-memory-intensive 8-core workload",
                mix::fig10_eight_core(),
            )
        },
        layout: CaseStudy,
    },
    Record {
        id: "fig11",
        insts: 40_000,
        kinds: ALL,
        mixes: |_| sampled(mix::eight_core_mixes(), 1),
        layout: Gmean {
            header: None,
            step: |_| 8,
            title: "Figure 11: geometric means over the 32 8-core workloads",
        },
    },
    Record {
        id: "fig12",
        insts: 30_000,
        kinds: ALL,
        mixes: |_| {
            let mixes = mix::sixteen_core_mixes().into_iter();
            mixes
                .map(|(name, m)| (format!("Figure 12: 16-core workload {name}"), m))
                .collect()
        },
        layout: Gmean {
            header: None,
            step: |_| 1,
            title: "Figure 12: geometric means over the 3 workloads",
        },
    },
    Record {
        id: "fig13",
        insts: 150_000,
        kinds: ALL,
        mixes: |_| {
            one(
                "Figure 13: desktop applications (4-core)",
                desktop::workload(),
            )
        },
        layout: CaseStudy,
    },
    Record {
        id: "fig14",
        insts: 150_000,
        kinds: &[FrFcfs, Nfq, Stfm],
        mixes: |_| one("Figure 14", mix::fig14_weights()),
        layout: Weights(&[[1, 16, 1, 1], [1, 4, 8, 1]]),
    },
    Record {
        id: "fig15",
        insts: 150_000,
        kinds: &[],
        mixes: case_study_i,
        layout: Rows {
            title: "Figure 15: α sweep (case-study-I workload)",
            head: "config",
            sum_ipc: true,
            rows: || {
                let alphas = [1.0, 1.05, 1.1, 1.2, 2.0, 5.0, 20.0];
                let mut rows: Vec<_> = alphas
                    .map(|a: f64| (format!("Alpha={a}"), stfm(|c| c.alpha = a)))
                    .into();
                rows.push(("FR-FCFS".into(), FrFcfs));
                rows
            },
        },
    },
    Record {
        id: "table3",
        insts: 120_000,
        kinds: &[FrFcfs],
        mixes: |full| {
            let mut profiles = spec::all();
            if full {
                profiles.extend(desktop::workload());
            }
            let title = "Table 3 (+ Table 4 with --full): alone-run characterization";
            one(title, profiles)
        },
        layout: Characterization,
    },
    Record {
        id: "table5",
        insts: 30_000,
        kinds: PAIR,
        mixes: |full| sampled(mix::eight_core_mixes(), if full { 1 } else { 4 }),
        layout: Devices(&[
            ("4 banks / 2KB row", Some(4), None),
            ("8 banks / 2KB row", None, None),
            ("16 banks / 2KB row", Some(16), None),
            ("8 banks / 1KB row", None, Some(1)),
            ("8 banks / 2KB row", None, None),
            ("8 banks / 4KB row", None, Some(4)),
        ]),
    },
    Record {
        id: "ablation_cap",
        insts: 150_000,
        kinds: &[],
        mixes: case_study_i,
        layout: Rows {
            title: "Ablation: FR-FCFS+Cap cap value",
            head: "cap",
            sum_ipc: false,
            rows: || {
                [1, 2, 4, 8, 16]
                    .map(|cap| (cap.to_string(), FrFcfsCap { cap }))
                    .into()
            },
        },
    },
    Record {
        id: "ablation_estimate",
        insts: 150_000,
        // The run whose alone baselines the measured slowdowns divide by.
        kinds: &[FrFcfs],
        mixes: |_| {
            let title = "Ablation: STFM slowdown-estimate accuracy";
            one(title, mix::case_study_intensive())
        },
        layout: Estimates(|| {
            vec![
                // An enormous α keeps STFM in FR-FCFS mode, so its
                // estimates are checked open loop against measured
                // slowdowns.
                ("open loop, fairness rule off", stfm(|c| c.alpha = 1e6)),
                ("closed loop", Stfm),
            ]
        }),
    },
    Record {
        id: "ablation_gamma",
        insts: 150_000,
        kinds: &[],
        mixes: case_study_i,
        layout: Rows {
            title: "Ablation: γ (bank-interference amortization)",
            head: "gamma",
            sum_ipc: false,
            // γ = 2^-gamma_shift: ½ is the paper's value, 1 this
            // reproduction's calibrated default (see `StfmConfig`).
            rows: || {
                let row = |label, shift| (format!("γ = {label}"), stfm(|c| c.gamma_shift = shift));
                vec![row("1/4", 2), row("1/2 (paper)", 1), row("1 (ours)", 0)]
            },
        },
    },
    Record {
        id: "ablation_interval",
        insts: 150_000,
        kinds: &[],
        mixes: case_study_i,
        layout: Rows {
            title: "Ablation: IntervalLength",
            head: "IntervalLength",
            sum_ipc: false,
            rows: || {
                let row =
                    |log2: u32| (format!("2^{log2}"), stfm(|c| c.interval_length = 1 << log2));
                [14, 16, 18, 20, 24].map(row).into()
            },
        },
    },
    Record {
        id: "ablation_parallelism",
        insts: 150_000,
        kinds: &[],
        mixes: case_study_i,
        layout: Rows {
            title: "Ablation: interference-estimate parallelism awareness",
            head: "estimator",
            sum_ipc: false,
            rows: || {
                vec![
                    ("with parallelism (paper)".into(), stfm(|_| ())),
                    (
                        "naive (no parallelism)".into(),
                        stfm(|c| c.use_parallelism = false),
                    ),
                ]
            },
        },
    },
    Record {
        id: "ablation_prefetch",
        insts: 100_000,
        kinds: PAIR,
        mixes: |_| {
            one(
                "Extension: stream prefetching × scheduling (case study II)",
                mix::case_study_mixed(),
            )
        },
        layout: Grid {
            variants: &[("no-pf", |e| e), ("pf", |e| e.prefetch(true))],
            note: "Alone baselines are re-run with prefetching for the prefetch rows, so\n\
               slowdowns isolate the *sharing* effect, not the prefetcher's raw speedup.",
        },
    },
];

/// The record with this id.
pub fn record(id: &str) -> Option<&'static Record> {
    RECORDS.iter().find(|r| r.id == id)
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// `first`, then `"{name} {column}"` for each name and column, then `last`.
fn headers<'a>(
    first: &str,
    names: impl IntoIterator<Item = &'a str>,
    columns: &[&str],
    last: &[&str],
) -> Vec<String> {
    let mut out = vec![first.to_string()];
    for name in names {
        out.extend(columns.iter().map(|c| format!("{name} {c}")));
    }
    out.extend(last.iter().map(|s| s.to_string()));
    out
}

/// Each of the `k` schedulers' geometric mean of `metric`, over results
/// laid out mix by mix.
fn gmeans(results: &[WorkloadMetrics], k: usize, metric: Metric) -> Vec<f64> {
    (0..k)
        .map(|j| gmean(results.iter().skip(j).step_by(k).map(metric)))
        .collect()
}

/// Unfairness, weighted speedup, (sum of IPCs,) hmean speedup.
fn scores([unfair, ws, sum_ipc, hmean]: [f64; 4], with_sum_ipc: bool) -> Vec<String> {
    let sum_ipc = with_sum_ipc.then(|| f2(sum_ipc));
    let row = [f2(unfair), f2(ws)].into_iter().chain(sum_ipc);
    row.chain([format!("{hmean:.3}")]).collect()
}

/// The metrics [`scores`] formats, in [`SCORES`] order.
const METRICS: [Metric; 4] = [
    WorkloadMetrics::unfairness,
    WorkloadMetrics::weighted_speedup,
    WorkloadMetrics::sum_of_ipcs,
    WorkloadMetrics::hmean_speedup,
];

/// The case-study table: one row per scheduler.
fn comparison(out: &mut String, mix: &Mix, results: &[WorkloadMetrics]) -> fmt::Result {
    let (title, profiles) = mix;
    writeln!(out, "== {title} ==\n")?;
    let names = profiles.iter().map(|p| p.name).chain(SCORES);
    let mut t = Table::new(["scheduler"].into_iter().chain(names));
    for m in results {
        let slowdowns = m.threads.iter().map(|x| f2(x.mem_slowdown()));
        let row = slowdowns.chain(scores(METRICS.map(|f| f(m)), true));
        t.row([m.scheduler.clone()].into_iter().chain(row));
    }
    writeln!(out, "{t}")
}

const SCORES: [&str; 4] = ["unfairness", "w-speedup", "sum-ipc", "hmean"];
const PAIR_SCORES: [&str; 2] = ["unfairness", "w-speedup"];

/// A session's options: `stfm paper`'s flags.
#[derive(Debug, Clone)]
pub struct Args {
    /// Per-thread instruction budget (`--insts N`; `None` = each
    /// record's own default).
    pub insts: Option<u64>,
    /// Workload seed (`--seed N`).
    pub seed: u64,
    /// Run the full-scale sweep where the default subsamples (`--full`).
    pub full: bool,
    /// Worker-thread cap (`--jobs N`; `None` = all cores).
    pub jobs: Option<usize>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            insts: None,
            seed: 1,
            full: false,
            jobs: None,
        }
    }
}

/// One invocation's options and caches.
#[derive(Debug)]
pub struct Session {
    args: Args,
    alone: AloneCache,
    /// Each experiment's metrics, keyed by its derived `Debug`, which
    /// spells out every configuration field.
    memo: Mutex<HashMap<String, WorkloadMetrics>>,
    simulated: AtomicUsize,
}

impl Session {
    /// A session with empty caches.
    pub fn new(args: Args) -> Session {
        Session {
            args,
            alone: AloneCache::new(),
            memo: Mutex::default(),
            simulated: AtomicUsize::new(0),
        }
    }

    /// Shared runs simulated so far: experiments the memo missed, plus
    /// the systems the direct layouts run.
    pub fn simulated(&self) -> usize {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Runs `work` on each item on the worker pool; the results come back
    /// in item order.
    fn pool<T: Sync, R: Send>(&self, items: &[T], work: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let mut out = Vec::with_capacity(items.len());
        let keep = |r| {
            out.push(r);
            ControlFlow::Continue(())
        };
        run_ordered(items.iter(), self.args.jobs, work, keep);
        out
    }

    /// Runs `experiments` on the worker pool; the metrics come back in
    /// experiment order. An experiment given twice in one batch would run
    /// twice: callers split batches so that a repeat is a memo hit.
    fn run(&self, experiments: &[Experiment]) -> Vec<WorkloadMetrics> {
        self.pool(experiments, |e| self.run_one(e))
    }

    /// Runs an experiment's [`Experiment::shared_system`] over `budget`;
    /// a run stopped short panics.
    fn simulate(&self, sys: &mut System, budget: Budget) -> RunOutcome {
        self.simulated.fetch_add(1, Ordering::Relaxed);
        let out = sys.run(&[budget]).remove(0);
        if let Some(stop) = RunStop::of(&out) {
            panic!("{} run {stop}", sys.memory().policy().name());
        }
        out
    }

    /// `e`'s metrics: the memo's, or one simulated run's.
    fn run_one(&self, e: &Experiment) -> WorkloadMetrics {
        let key = format!("{e:?}");
        if let Some(hit) = self.memo().get(&key) {
            return hit.clone();
        }
        self.simulated.fetch_add(1, Ordering::Relaxed);
        let metrics = e.run_with_cache(&self.alone);
        self.memo().insert(key, metrics.clone());
        metrics
    }

    /// The memo, also after a worker panicked holding it: every entry is
    /// a whole run's metrics.
    fn memo(&self) -> MutexGuard<'_, HashMap<String, WorkloadMetrics>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Renders `record` at this session's options.
    pub fn render(&self, record: &Record) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write(record, &mut out);
        out
    }

    fn write(&self, r: &Record, out: &mut String) -> fmt::Result {
        let (insts, seed) = (self.args.insts.unwrap_or(r.insts), self.args.seed);
        let mixes = (r.mixes)(self.args.full);
        let k = r.kinds.len();
        let names = || r.kinds.iter().map(SchedulerKind::name);
        // Every mix under every scheduler, mix by mix.
        let grid = || {
            let each = |m| (r.kinds.iter()).map(move |&kind| experiment(kind, m, insts, seed));
            mixes.iter().flat_map(|(_, m)| each(m)).collect::<Vec<_>>()
        };
        match &r.layout {
            Slowdowns => {
                for ((title, _), m) in mixes.iter().zip(self.run(&grid())) {
                    let mut t = Table::new(["benchmark", "memory slowdown"]);
                    for x in &m.threads {
                        t.row([x.name.clone(), f2(x.mem_slowdown())]);
                    }
                    t.row(["(unfairness)".to_string(), f2(m.unfairness())]);
                    writeln!(out, "== {title} ==\n\n{t}")?;
                }
            }
            CaseStudy => {
                for (mix, results) in mixes.iter().zip(self.run(&grid()).chunks(k)) {
                    comparison(out, mix, results)?;
                }
            }
            Gmean {
                header,
                step,
                title,
            } => {
                let results = self.run(&grid());
                if let Some(header) = header {
                    writeln!(out, "{}\n", header(mixes.len()))?;
                }
                let samples = mixes.iter().zip(results.chunks(k));
                for (mix, results) in samples.step_by(step(mixes.len())).take(10) {
                    comparison(out, mix, results)?;
                }
                let means = METRICS.map(|f| gmeans(&results, k, f));
                let head = SCORES.map(|s| format!("GMEAN-{s}"));
                let mut t = Table::new(["scheduler".to_string()].into_iter().chain(head));
                for (j, name) in names().enumerate() {
                    let row = scores(means.each_ref().map(|m| m[j]), true);
                    t.row([name.to_string()].into_iter().chain(row));
                }
                writeln!(out, "== {title} ==\n\n{t}")?;
            }
            Pairs => {
                let results = self.run(&grid());
                let (columns, last) = (["mcf", "other", "unfair"], ["dWS%", "dHmean%"]);
                let mut t = Table::new(headers("other benchmark", names(), &columns, &last));
                let mut sums = [0.0; 2];
                for ((_, pair), r) in mixes.iter().zip(results.chunks(k)) {
                    let gain = |f: Metric| (f(&r[1]) / f(&r[0]) - 1.0) * 100.0;
                    let ws = gain(WorkloadMetrics::weighted_speedup);
                    let hm = gain(WorkloadMetrics::hmean_speedup);
                    let slowdowns = r.iter().flat_map(|m| {
                        let [a, b] = [&m.threads[0], &m.threads[1]].map(|x| x.mem_slowdown());
                        [a, b, m.unfairness()].map(f2)
                    });
                    let other = [pair[1].name.to_string()].into_iter();
                    t.row(
                        other
                            .chain(slowdowns)
                            .chain([ws, hm].map(|d| format!("{d:+.1}"))),
                    );
                    (sums[0], sums[1]) = (sums[0] + ws, sums[1] + hm);
                }
                let fair = gmeans(&results, k, WorkloadMetrics::unfairness);
                let [ws, hm] = sums.map(|sum| sum / mixes.len() as f64);
                let title = "Figure 5: mcf paired with each benchmark (2-core)";
                writeln!(out, "== {title} ==\n\n{t}")?;
                let (fr, st) = (fair[0], fair[1]);
                writeln!(out, "GMEAN unfairness: FR-FCFS {fr:.2} -> STFM {st:.2}")?;
                write!(out, "mean weighted-speedup gain {ws:+.1}%, ")?;
                writeln!(out, "mean hmean-speedup gain {hm:+.1}%")?;
            }
            Devices(points) => {
                let n = mixes.len();
                writeln!(
                    out,
                    "Table 5 over {n} 8-core mixes (use --full for all 32)\n"
                )?;
                let last = ["unfairness impr.", "w-speedup impr."];
                let mut t = Table::new(headers("config", names(), &PAIR_SCORES, &last));
                for &(label, banks, row_kb) in *points {
                    let at_point = |e: Experiment| {
                        // A point that overrides nothing keeps the plain
                        // experiment, and so its memo key.
                        if banks.is_none() && row_kb.is_none() {
                            return Ok(e);
                        }
                        let dram = e.effective_dram().with_geometry(banks, row_kb);
                        Ok(e.dram_config(dram.map_err(|_| fmt::Error)?))
                    };
                    let experiments: Vec<_> =
                        grid().into_iter().map(at_point).collect::<Result<_, _>>()?;
                    // A batch per point, so the repeated default geometry
                    // is a memo hit.
                    let results = self.run(&experiments);
                    let u = gmeans(&results, k, WorkloadMetrics::unfairness);
                    let w = gmeans(&results, k, WorkloadMetrics::weighted_speedup);
                    // The paper's "Improvement" row: FR-FCFS / STFM unfairness.
                    let impr = [
                        format!("{:.2}X", u[0] / u[1]),
                        format!("{:+.1}%", (w[1] / w[0] - 1.0) * 100.0),
                    ];
                    let means = [label.to_string(), f2(u[0]), f2(w[0]), f2(u[1]), f2(w[1])];
                    t.row(means.into_iter().chain(impr));
                }
                writeln!(out, "{t}")?;
            }
            Rows {
                title,
                head,
                sum_ipc,
                rows,
            } => {
                let (labels, experiments): (Vec<_>, Vec<_>) = (rows().into_iter())
                    .map(|(label, kind)| (label, experiment(kind, &mixes[0].1, insts, seed)))
                    .unzip();
                let metrics = SCORES.into_iter().filter(|&s| *sum_ipc || s != "sum-ipc");
                let mut t = Table::new([*head].into_iter().chain(metrics));
                for (label, m) in labels.into_iter().zip(self.run(&experiments)) {
                    let row = scores(METRICS.map(|f| f(&m)), *sum_ipc);
                    t.row([label].into_iter().chain(row));
                }
                writeln!(out, "== {title} ==\n\n{t}")?;
            }
            Grid { variants, note } => {
                let mut experiments = Vec::new();
                for (_, m) in &mixes {
                    for &kind in r.kinds {
                        for (_, change) in *variants {
                            experiments.push(change(experiment(kind, m, insts, seed)));
                        }
                    }
                }
                let results = self.run(&experiments);
                let head = headers("scheduler", variants.iter().map(|v| v.0), &PAIR_SCORES, &[]);
                for ((title, _), results) in mixes.iter().zip(results.chunks(k * variants.len())) {
                    let mut t = Table::new(head.clone());
                    for (name, results) in names().zip(results.chunks(variants.len())) {
                        let scores = results
                            .iter()
                            .map(|m| [m.unfairness(), m.weighted_speedup()]);
                        t.row(
                            [name.to_string()]
                                .into_iter()
                                .chain(scores.flatten().map(f2)),
                        );
                    }
                    writeln!(out, "== {title} ==\n\n{t}")?;
                }
                writeln!(out, "{note}")?;
            }
            Weights(sets) => {
                let (title, profiles) = &mixes[0];
                let mut experiments = Vec::new();
                for w in *sets {
                    for &kind in r.kinds {
                        // Only STFM reads weights and only NFQ reads shares.
                        let e = experiment(kind, profiles, insts, seed);
                        let e =
                            (w.iter().zip(0..)).fold(e, |e, (&w, i)| e.weight(i, w).share(i, w));
                        experiments.push(e);
                    }
                }
                let names = profiles.iter().map(|p| p.name);
                let head: Vec<_> = (["scheduler"].into_iter().chain(names))
                    .chain(["unfairness(equal-pri)"])
                    .collect();
                for (w, results) in sets.iter().zip(self.run(&experiments).chunks(k)) {
                    let label = w.map(|w| w.to_string()).join("-");
                    let mut t = Table::new(head.clone());
                    for (&kind, m) in r.kinds.iter().zip(results) {
                        let slowdowns = m.threads.iter().map(|x| x.mem_slowdown());
                        // Unfairness among the equal-priority (weight-1)
                        // threads only.
                        let equal = slowdowns.clone().zip(w).filter(|(_, &w)| w == 1);
                        let (hi, lo) = equal.fold((f64::MIN, f64::MAX), |(hi, lo), (x, _)| {
                            (hi.max(x), lo.min(x))
                        });
                        let label = match kind {
                            Nfq => format!("NFQ-shares-{label}"),
                            Stfm => format!("STFM-weights-{label}"),
                            _ => kind.name().to_string(),
                        };
                        let row = slowdowns.map(f2).chain([f2(hi / lo)]);
                        t.row([label].into_iter().chain(row));
                    }
                    writeln!(out, "== {title}: weights {w:?} ==\n\n{t}")?;
                }
            }
            Characterization => {
                let (title, profiles) = &mixes[0];
                let measured = self.pool(profiles, |p| {
                    let exp = experiment(r.kinds[0], std::slice::from_ref(p), insts, seed);
                    let sys = &mut exp.shared_system();
                    let out = self.simulate(sys, Budget::of(insts));
                    let (stats, rb) = (out.frozen[0], out.frozen_mem[0].row_hit_rate());
                    [stats.mcpi(), stats.l2_mpki(), rb]
                });
                let mut t = Table::new([
                    "benchmark",
                    "cat",
                    "MCPI(paper)",
                    "MCPI(ours)",
                    "MPKI(paper)",
                    "MPKI(ours)",
                    "RBhit(paper)",
                    "RBhit(ours)",
                ]);
                for (p, [mcpi, mpki, rb]) in profiles.iter().zip(measured) {
                    let percent = |x: f64| format!("{:.1}%", x * 100.0);
                    t.row([
                        p.name.to_string(),
                        p.category.index().to_string(),
                        f2(p.targets.mcpi),
                        f2(mcpi),
                        f2(p.targets.mpki),
                        f2(mpki),
                        percent(p.targets.rb_hit),
                        percent(rb),
                    ]);
                }
                writeln!(out, "== {title} ==\n\n{t}")?;
            }
            Estimates(configs) => {
                let (title, profiles) = &mixes[0];
                // The alone baselines: the session's, through the run of
                // `r.kinds[0]` on this mix (fig6's, under `--all`).
                let baseline = self.run(&grid()).remove(0);
                // The estimator ablation measures the whole run.
                let from_zero = Budget {
                    warmup: 0,
                    ..Budget::of(insts)
                };
                let blocks = self.pool(&configs(), |&(label, kind)| {
                    let mut sys = experiment(kind, profiles, insts, seed).shared_system();
                    let shared = self.simulate(&mut sys, from_zero).frozen;
                    let policy = sys.memory().policy() as &dyn Any;
                    let Some(stfm) = policy.downcast_ref::<stfm_core::Stfm>() else {
                        panic!("{}: {} is not STFM", r.id, kind.name());
                    };
                    let mut t = Table::new([
                        "benchmark",
                        "measured slowdown",
                        "STFM estimate",
                        "error %",
                        "Tshared",
                        "Tinterference",
                    ]);
                    for ((x, shared), i) in baseline.threads.iter().zip(&shared).zip(0..) {
                        let measured = (shared.mcpi() + 0.005) / (x.alone.mcpi() + 0.005);
                        let estimate = stfm.slowdown_estimate(ThreadId(i));
                        let regs = stfm.registers().thread(ThreadId(i));
                        t.row([
                            x.name.clone(),
                            f2(measured),
                            f2(estimate),
                            format!("{:+.1}", (estimate / measured - 1.0) * 100.0),
                            regs.map(|r| r.tshared().to_string()).unwrap_or_default(),
                            regs.map(|r| r.tinterference.to_string())
                                .unwrap_or_default(),
                        ]);
                    }
                    let [bus, bank, own] = stfm.charge_totals();
                    format!(
                        "== {title} ({label}) ==\n\n{t}\n\
                         charge totals: bus {bus}, bank {bank}, own {own}\n\n"
                    )
                });
                out.push_str(&blocks.concat());
            }
        }
        Ok(())
    }
}
