//! Subcommand implementations.

use crate::args::Flags;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use stfm_bench::paper::{record, Record, Session, RECORDS};
use stfm_bench::Args;
use stfm_dram::TimingAudit;
use stfm_mc::DEFAULT_SAMPLE_INTERVAL;
use stfm_serve::json::Value;
use stfm_serve::spec::expand_value;
use stfm_serve::{Cell, ResultCache, ServeConfig};
use stfm_sim::{run_ordered, AloneCache, Experiment, Table, WorkloadMetrics};
use stfm_telemetry::{EpochConfig, EpochSampler, JsonLinesSink, Sink, TeeSink};
use stfm_workloads::{desktop, spec, Profile};

/// Top-level usage text.
pub const USAGE: &str = "\
stfm — Stall-Time Fair Memory scheduling reproduction

USAGE:
  stfm run --workload <b1,b2,...|mix> [--scheduler frfcfs|fcfs|cap|nfq|stfm|all]
           [--insts N] [--seed N] [--alpha X] [--weights w1,w2,...]
           [--banks N] [--row-kb N] [--jobs N] [--check] [--quiet]
           [--trace DIR [--epoch N] [--sample N]]
  stfm paper (--figure ID | --all DIR) [--insts N] [--seed N] [--full] [--jobs N]
  stfm serve [--jobs N] [--cache-dir DIR] [--cell-timeout MS]
  stfm list
  stfm help

`serve` is a filter from spec lines to response lines: it reads JSONL
spec lines (one experiment grid per line; see DESIGN.md section 10) from
stdin, expands each into cells, runs them across --jobs workers
(default: all cores), and writes to stdout, in input order, one JSON
result line per cell plus a per-line `epoch` line. A malformed line is
answered with an `error` line naming its line number; the rest still
runs. It answers {\"cmd\":\"ping\"|\"stats\"} in stream order and exits
gracefully on {\"cmd\":\"shutdown\"} or EOF. With --cache-dir, completed
cells persist and later runs replay them. Cells are panic-isolated;
--cell-timeout caps each cell's wall-clock budget in milliseconds (one
retry after a 25 ms pause, announced by a `fault` line, then a
structured timeout error). Every answer and every fault is on stdout;
`stfm serve < spec.jsonl | grep '\"type\":\"result\"'` is the result
transcript. See DESIGN.md section 11.

`run` is one spec line: --workload is its `mix` (benchmark names, or one
named mix such as case_study_intensive), the other cell flags its fields.
It refuses what a spec line refuses, with the same message.

`run --check` audits every shared run's DDR2 command stream and fails on
the first timing violation.

`run --trace DIR` observes the shared run of one scheduler and writes
DIR/events.jsonl (full event stream) and DIR/epochs.csv (fixed-width
time series: per-thread estimated slowdowns, bandwidth, row-hit rate,
bus utilization, queue depth). --epoch sets the CSV row width (default
10000) and --sample the scheduler snapshot spacing, both in DRAM cycles.
A run that stops short still writes both files, then fails.

`paper` renders the paper's figures, tables and ablations:
--figure ID prints one record on stdout, --all DIR writes <DIR>/<ID>.txt
for every record (results/ is `--all results`). --insts overrides each
record's own budget; --full runs the sweeps the default subsamples. The
records of one invocation share their runs; stderr says how many each
simulated.

Benchmark names come from `stfm list` (the paper's Table 3 + Table 4).
";

fn print_metrics(profile_names: &[String], results: &[WorkloadMetrics]) {
    let mut headers = vec!["scheduler".to_string()];
    headers.extend(profile_names.iter().cloned());
    headers.extend(["unfairness".into(), "w-speedup".into(), "hmean".into()]);
    let mut t = Table::new(headers);
    for m in results {
        let mut row = vec![m.scheduler.clone()];
        row.extend(m.threads.iter().map(|x| format!("{:.2}", x.mem_slowdown())));
        row.push(format!("{:.2}", m.unfairness()));
        row.push(format!("{:.2}", m.weighted_speedup()));
        row.push(format!("{:.3}", m.hmean_speedup()));
        t.row(row);
    }
    println!("{t}");
}

/// The flags `stfm run` takes.
const RUN_FLAGS: &str = "workload scheduler insts seed alpha weights banks row-kb jobs check \
                         quiet trace epoch sample";

/// The cells `stfm run`'s flags spell: the spec line they stand for
/// (DESIGN.md section 10), expanded, so a run refuses what a line refuses
/// and builds what a line builds. Numbers go in as raw tokens, as the
/// JSON parser keeps them.
fn run_cells(f: &Flags) -> Result<Vec<Cell>, String> {
    let mut names = f.list("workload")?;
    // One name may be a named mix; several are a mix of benchmarks.
    let mix = match names.len() {
        1 => Value::Str(names.remove(0)),
        _ => Value::Arr(names.into_iter().map(Value::Str).collect()),
    };
    let scheduler = f.get("scheduler").unwrap_or("all");
    let mut line = vec![
        ("mix".to_string(), mix),
        ("scheduler".into(), Value::Str(scheduler.into())),
        (
            "insts".into(),
            Value::Num(f.get("insts").unwrap_or("100000").into()),
        ),
    ];
    // Each field is named as its flag, in snake case.
    for flag in ["seed", "alpha", "banks", "row-kb"] {
        if let Some(v) = f.get(flag) {
            line.push((flag.replace('-', "_"), Value::Num(v.into())));
        }
    }
    expand_value(&Value::Obj(line))
}

/// `stfm run`.
pub fn run(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, RUN_FLAGS)?;
    let cells = run_cells(&f)?;
    let trace = trace_flags(&f, cells.len())?;
    // Every cell of a run shares its mix, budget and seed.
    let head = &cells[0];

    let weights: Vec<u32> = match f.get("weights") {
        None => vec![],
        Some(w) => w
            .split(',')
            .map(|x| x.trim().parse().map_err(|_| format!("bad weight '{x}'")))
            .collect::<Result<_, _>>()?,
    };
    if !weights.is_empty() && weights.len() != head.mix.len() {
        return Err(format!(
            "--weights needs {} entries, got {}",
            head.mix.len(),
            weights.len()
        ));
    }

    let cache = AloneCache::new();
    let mut experiments = Vec::with_capacity(cells.len());
    for cell in &cells {
        let mut e = cell.to_experiment()?;
        for (i, w) in weights.iter().enumerate() {
            e = e.weight(i as u32, *w);
        }
        if let Some(t) = &trace {
            e = e.sample_interval(t.sample);
        }
        experiments.push(e);
    }
    let mut results = Vec::with_capacity(experiments.len());
    run_ordered(
        experiments.iter(),
        jobs_flag(&f)?,
        |e| run_checked(e, &cache, f.has("check"), trace.as_ref()),
        |metrics| {
            results.push(metrics);
            ControlFlow::Continue(())
        },
    );
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    if !f.has("quiet") {
        println!(
            "workload {:?}, {} instructions/thread, seed {}\n",
            head.mix, head.insts, head.seed
        );
    }
    print_metrics(&head.mix, &results);
    Ok(())
}

/// `e`'s metrics, or why its run stopped short. With `check`, a
/// [`TimingAudit`] observes the shared run and its first violation is the
/// error; with `trace`, the run's telemetry is written out first, also
/// for a run that stopped short.
fn run_checked(
    e: &Experiment,
    cache: &AloneCache,
    check: bool,
    trace: Option<&TraceOut>,
) -> Result<WorkloadMetrics, String> {
    let audit = check.then(|| TimingAudit::new(&e.effective_dram()));
    let tracer = trace.map(|t| t.sink(e)).transpose()?;
    let run = e.run_traced(cache, TeeSink::new(audit, tracer));
    if let (Some(t), Some(tracer)) = (trace, run.sink.second) {
        t.write(tracer, run.final_dram_cycle)?;
    }
    if let Some(stop) = run.stop {
        return Err(format!("{} run {stop}", run.metrics.scheduler));
    }
    if let Some(audit) = &run.sink.first {
        audit.check()?;
    }
    Ok(run.metrics)
}

/// What `run --trace` records: every event as JSON lines, and the epoch
/// time series.
type TraceSink = TeeSink<JsonLinesSink<BufWriter<File>>, EpochSampler>;

/// `run --trace DIR [--epoch N] [--sample N]`: where the trace goes, its
/// epoch width and the scheduler snapshot spacing, in DRAM cycles.
struct TraceOut {
    dir: PathBuf,
    epoch_len: u64,
    sample: u64,
}

/// The `--trace` options of a run over `schedulers` schedulers, if it
/// traces. Tracing takes one scheduler and an epoch of at least one
/// cycle, and `--epoch` and `--sample` are errors without it.
fn trace_flags(f: &Flags, schedulers: usize) -> Result<Option<TraceOut>, String> {
    let Some(dir) = f.get("trace") else {
        if f.get("epoch").or(f.get("sample")).is_some() {
            return Err("--epoch and --sample need --trace DIR".into());
        }
        return Ok(None);
    };
    if schedulers != 1 {
        return Err("--trace takes a single scheduler, not 'all'".into());
    }
    let epoch_len = f.num("epoch", 10_000)?;
    if epoch_len == 0 {
        return Err("--epoch must be >= 1".into());
    }
    Ok(Some(TraceOut {
        dir: PathBuf::from(dir),
        epoch_len,
        sample: f.num("sample", DEFAULT_SAMPLE_INTERVAL.get())?,
    }))
}

impl TraceOut {
    /// The sinks for `e`'s shared run. `events.jsonl` is created here, so
    /// an unwritable directory fails before anything runs.
    fn sink(&self, e: &Experiment) -> Result<TraceSink, String> {
        let sampler = EpochSampler::new(EpochConfig {
            epoch_len: self.epoch_len,
            threads: e.profiles().len(),
        });
        let events = create(&self.dir.join("events.jsonl"))?;
        Ok(TeeSink::new(JsonLinesSink::new(events), sampler))
    }

    /// Flushes `events.jsonl`, closes the last epoch at
    /// `final_dram_cycle` and writes `epochs.csv`.
    fn write(&self, mut sink: TraceSink, final_dram_cycle: u64) -> Result<(), String> {
        sink.second.finish(final_dram_cycle);
        let mut epochs = create(&self.dir.join("epochs.csv"))?;
        let written = (sink.first.flush())
            .and_then(|()| sink.second.write_csv(&mut epochs))
            .and_then(|()| epochs.flush());
        written.map_err(|e| format!("{}: {e}", self.dir.display()))
    }
}

/// A new buffered file at `path`, its directory created if missing.
fn create(path: &Path) -> Result<BufWriter<File>, String> {
    let dir = path.parent().unwrap_or(path);
    let file = std::fs::create_dir_all(dir).and_then(|()| File::create(path));
    file.map(BufWriter::new)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What `stfm paper` renders: the session's options, the records, and the
/// directory they are written to (`None`: stdout).
fn paper_args(args: &[String]) -> Result<(Args, &'static [Record], Option<PathBuf>), String> {
    let f = Flags::parse(args, "figure all insts seed full jobs")?;
    let records = match (f.get("figure"), f.get("all")) {
        (Some(id), None) => std::slice::from_ref(record(id).ok_or_else(|| {
            let ids: Vec<_> = RECORDS.iter().map(|r| r.id).collect();
            format!("unknown figure '{id}'; one of: {}", ids.join(" "))
        })?),
        (None, Some(_)) => RECORDS,
        _ => return Err("give one of --figure ID and --all DIR".into()),
    };
    let insts = f.get("insts").map(|_| f.num("insts", 0)).transpose()?;
    if insts == Some(0) {
        return Err("insts must be >= 1".into());
    }
    let args = Args {
        insts,
        seed: f.num("seed", 1)?,
        full: f.has("full"),
        jobs: jobs_flag(&f)?,
    };
    Ok((args, records, f.get("all").map(PathBuf::from)))
}

/// `stfm paper`: renders records of the paper's evaluation, sharing one
/// session's runs between them.
pub fn paper(args: &[String]) -> Result<(), String> {
    let (args, records, dir) = paper_args(args)?;
    let session = Session::new(args);
    for r in records {
        let before = session.simulated();
        let out = session.render(r);
        match &dir {
            None => print!("{out}"),
            Some(dir) => {
                let path = dir.join(format!("{}.txt", r.id));
                let written =
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out));
                written.map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        let runs = session.simulated() - before;
        eprintln!("paper: {}: {runs} runs simulated", r.id);
    }
    Ok(())
}

/// `stfm list`.
pub fn list(args: &[String]) -> Result<(), String> {
    Flags::parse(args, "")?;
    let mut t = Table::new([
        "benchmark",
        "suite",
        "cat",
        "MCPI",
        "MPKI",
        "RB hit",
        "traits",
    ]);
    let traits = |p: &Profile| {
        let mut v = Vec::new();
        if p.dependent_frac > 0.0 {
            v.push("pointer-chase");
        }
        if p.bank_skew.is_some() {
            v.push("bank-skewed");
        }
        if p.burst.is_some() {
            v.push("bursty");
        }
        if p.write_frac > 0.3 {
            v.push("write-heavy");
        }
        v.join(" ")
    };
    let suites = spec::all().into_iter().map(|p| (p, "SPEC2006"));
    for (p, suite) in suites.chain(desktop::workload().into_iter().map(|p| (p, "desktop"))) {
        t.row([
            p.name.to_string(),
            suite.into(),
            p.category.index().to_string(),
            format!("{:.2}", p.targets.mcpi),
            format!("{:.2}", p.targets.mpki),
            format!("{:.1}%", p.targets.rb_hit * 100.0),
            traits(&p),
        ]);
    }
    println!("{t}");
    Ok(())
}

/// Resolves `--jobs` (0 or absent means "all cores").
fn jobs_flag(f: &Flags) -> Result<Option<usize>, String> {
    let n: usize = f.num("jobs", 0)?;
    Ok((n > 0).then_some(n))
}

/// Builds the alone-run and result caches, persistent when `--cache-dir`
/// is given (`DIR/alone` and `DIR/cells` respectively).
fn serve_caches(f: &Flags) -> Result<(AloneCache, ResultCache), String> {
    match f.get("cache-dir") {
        Some(dir) => {
            let base = Path::new(dir);
            let alone = AloneCache::with_dir(base.join("alone"))
                .map_err(|e| format!("--cache-dir {dir}: {e}"))?;
            let results = ResultCache::with_dir(base.join("cells"))
                .map_err(|e| format!("--cache-dir {dir}: {e}"))?;
            Ok((alone, results))
        }
        None => Ok((AloneCache::new(), ResultCache::in_memory())),
    }
}

/// Builds the fault-tolerance configuration for `stfm serve` from its
/// flags (`--cell-timeout` in milliseconds).
fn serve_config(f: &Flags) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::with_jobs(jobs_flag(f)?);
    let timeout_ms: u64 = f.num("cell-timeout", 0)?;
    if timeout_ms > 0 {
        cfg = cfg.cell_timeout(std::time::Duration::from_millis(timeout_ms));
    }
    Ok(cfg)
}

/// `stfm serve`: the experiment service, a filter from spec lines on
/// stdin to response lines on stdout.
pub fn serve(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, "jobs cache-dir cell-timeout")?;
    let (alone, results) = serve_caches(&f)?;
    let cfg = serve_config(&f)?;
    // `StdinLock` is not `Send` (input is read on the worker threads), so
    // wrap the handle in a `BufReader` instead of locking it.
    let stdin = BufReader::new(io::stdin());
    let stdout = io::stdout().lock();
    let totals = stfm_serve::serve(stdin, stdout, &alone, &results, &cfg)
        .map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "stfm serve: {} lines, {} cells ({} cached), {} errors, {} timeouts, {} panics{}",
        totals.lines,
        totals.cells,
        totals.cache_hits,
        totals.errors,
        totals.timeouts,
        totals.panics,
        if totals.disconnected {
            " (client disconnected)"
        } else {
            ""
        }
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfm_serve::expand_line;
    use stfm_sim::SchedulerKind;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn cells(line: &str) -> Result<Vec<Cell>, String> {
        run_cells(&Flags::parse(&argv(line), RUN_FLAGS).unwrap())
    }

    /// A run's flags build exactly the cells of the spec line they spell,
    /// and are refused with its message: every field, `all`, a named mix,
    /// and `run`'s own budget default.
    #[test]
    fn run_builds_the_cells_of_its_spec_line() {
        for (flags, line) in [
            (
                "--workload mcf,libquantum",
                r#"{"mix": ["mcf", "libquantum"], "scheduler": "all", "insts": 100000}"#,
            ),
            (
                "--workload mcf,libquantum --scheduler all --insts 5000 --seed 3 --alpha 1.2 \
                 --banks 4 --row-kb 1",
                r#"{"mix": ["mcf", "libquantum"], "scheduler": "all", "insts": 5000, "seed": 3,
                    "alpha": 1.2, "banks": 4, "row_kb": 1}"#,
            ),
            (
                "--workload case_study_intensive --scheduler stfm --alpha 5",
                r#"{"mix": "case_study_intensive", "scheduler": "stfm", "insts": 100000,
                    "alpha": 5}"#,
            ),
            (
                "--workload mcf --scheduler nfq --insts 700 --banks 16 --row-kb 262144",
                r#"{"mix": ["mcf"], "scheduler": "nfq", "insts": 700, "banks": 16,
                    "row_kb": 262144}"#,
            ),
            (
                "--workload mcf --insts 0",
                r#"{"mix": ["mcf"], "scheduler": "all", "insts": 0}"#,
            ),
            (
                "--workload mcf,nosuchbench --scheduler stfm",
                r#"{"mix": ["mcf", "nosuchbench"], "scheduler": "stfm", "insts": 100000}"#,
            ),
            (
                "--workload mcf --scheduler lru",
                r#"{"mix": ["mcf"], "scheduler": "lru", "insts": 100000}"#,
            ),
            (
                "--workload mcf --scheduler parbs",
                r#"{"mix": ["mcf"], "scheduler": "parbs", "insts": 100000}"#,
            ),
        ] {
            assert_eq!(cells(flags), expand_line(line), "{flags}");
        }
        let refused = "unknown scheduler 'parbs' (expected frfcfs, fcfs, cap, nfq, stfm, or all)";
        assert_eq!(
            run(&argv("--workload mcf --scheduler parbs")),
            Err(refused.into())
        );
        assert_eq!(cells("--workload case_study_intensive").unwrap().len(), 5);
    }

    /// A mix past STFM's 64-thread register file is refused before any
    /// run starts; a run would panic in the register file.
    #[test]
    fn run_refuses_a_mix_wider_than_the_register_file() {
        let line = format!(
            "--workload {} --scheduler stfm --insts 200",
            vec!["gromacs"; 65].join(",")
        );
        let err = run(&argv(&line)).expect_err("65 threads");
        assert_eq!(err, "mix has 65 threads (limit 64)");
    }

    /// Bank counts the controller cannot pack are usage errors, caught
    /// before anything runs.
    #[test]
    fn run_refuses_bank_counts_it_cannot_pack() {
        for banks in ["32", "6", "0", "x"] {
            let line = format!("--workload mcf,mcf,mcf,mcf,mcf --scheduler cap --banks {banks}");
            let err = run(&argv(&line)).expect_err(&line);
            assert!(err.contains("banks must be"), "{line}: {err}");
        }
    }

    /// An α that is not a finite number >= 1, and a row whose 8-chip size
    /// overflows 32 bits, are usage errors too, as they are on a spec
    /// line.
    #[test]
    fn run_refuses_alphas_and_rows_a_spec_line_refuses() {
        for (flag, needle) in [
            ("--alpha 0.5", "alpha must be a finite number >= 1"),
            ("--alpha NaN", "alpha must be a finite number >= 1"),
            ("--alpha -3", "alpha must be a finite number >= 1"),
            ("--alpha x", "alpha must be a number"),
            ("--row-kb 524288", "row_kb must be"),
            ("--row-kb 3", "row_kb must be"),
        ] {
            let line = format!("--workload mcf --scheduler stfm {flag}");
            let err = run(&argv(&line)).expect_err(&line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    /// `--trace` observes one scheduler's run in epochs of at least one
    /// cycle, and its `--epoch` and `--sample` mean nothing without it:
    /// usage errors, caught before anything runs.
    #[test]
    fn run_refuses_trace_options_it_cannot_honour() {
        for (line, needle) in [
            ("--epoch 5000", "need --trace DIR"),
            ("--scheduler stfm --sample 2000", "need --trace DIR"),
            ("--trace out", "single scheduler"),
            ("--scheduler all --trace out", "single scheduler"),
            (
                "--scheduler stfm --trace out --epoch 0",
                "--epoch must be >= 1",
            ),
        ] {
            let line = format!("--workload mcf {line}");
            let err = run(&argv(&line)).expect_err(&line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    /// A traced run that stops short (a zero budget is truncated at once)
    /// still writes both files, then fails naming the stop.
    #[test]
    fn a_traced_run_that_stops_short_writes_both_files() {
        let dir = std::env::temp_dir().join(format!("stfm-cli-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trace = TraceOut {
            dir: dir.clone(),
            epoch_len: 1,
            sample: DEFAULT_SAMPLE_INTERVAL.get(),
        };
        let e = Experiment::new(vec![spec::mcf(), spec::libquantum()])
            .scheduler(SchedulerKind::Stfm)
            .instructions_per_thread(0)
            .sample_interval(trace.sample);
        let err = run_checked(&e, &AloneCache::new(), false, Some(&trace)).expect_err("0 insts");
        assert!(err.contains("STFM run truncated"), "{err}");
        let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        assert!(events.lines().count() > 0, "no events written");
        let epochs = std::fs::read_to_string(dir.join("epochs.csv")).unwrap();
        assert!(epochs.starts_with("epoch,"), "{epochs}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn paper_err(line: &str) -> String {
        match paper_args(&argv(line)) {
            Ok(_) => panic!("{line}: accepted"),
            Err(e) => e,
        }
    }

    /// An unknown record id is an error that lists every valid id.
    #[test]
    fn paper_rejects_an_unknown_id_and_lists_the_ids() {
        for id in ["fig99", "extension_parbs"] {
            let err = paper_err(&format!("--figure {id}"));
            assert!(err.contains(&format!("unknown figure '{id}'")), "{err}");
            for r in RECORDS {
                assert!(err.contains(r.id), "{} missing: {err}", r.id);
            }
        }
    }

    /// `stfm paper` renders one record or all of them, never neither or
    /// both.
    #[test]
    fn paper_takes_exactly_one_of_figure_and_all() {
        for line in ["", "--insts 2000", "--figure fig6 --all out"] {
            let err = paper_err(line);
            assert!(
                err.contains("give one of --figure ID and --all DIR"),
                "{line}: {err}"
            );
        }
        let (_, records, dir) = paper_args(&argv("--figure fig6")).unwrap();
        assert_eq!(records.iter().map(|r| r.id).collect::<Vec<_>>(), ["fig6"]);
        assert_eq!(dir, None);
        let (_, records, dir) = paper_args(&argv("--all out")).unwrap();
        assert_eq!(records.len(), RECORDS.len());
        assert_eq!(dir, Some(PathBuf::from("out")));
    }

    /// `--full` takes no value: the flag after it still parses as a flag.
    #[test]
    fn paper_full_is_a_switch() {
        let line = "--figure table3 --full --insts 2000 --seed 3 --jobs 2";
        let (args, ..) = paper_args(&argv(line)).unwrap();
        assert!(args.full);
        assert_eq!(
            (args.insts, args.seed, args.jobs),
            (Some(2_000), 3, Some(2))
        );
        let (args, ..) = paper_args(&argv("--figure table3")).unwrap();
        assert!(!args.full);
        assert_eq!((args.insts, args.seed, args.jobs), (None, 1, None));
    }

    /// A budget that is not a number is an error naming the flag, and a
    /// zero budget is refused as a spec line refuses it.
    #[test]
    fn paper_rejects_a_non_numeric_budget() {
        let err = paper_err("--figure fig6 --insts lots");
        assert!(err.contains("--insts"), "{err}");
        let err = paper_err("--all out --insts 0");
        assert!(err.contains("insts must be >= 1"), "{err}");
    }
}
