//! Subcommand implementations.

use crate::args::Flags;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use stfm_bench::paper::{record, Record, Session, RECORDS};
use stfm_bench::Args;
use stfm_cpu::{trace_io, Core, CoreStats, FileTrace};
use stfm_dram::{DramConfig, TimingAudit};
use stfm_mc::{MemorySystem, ThreadId, DEFAULT_SAMPLE_INTERVAL, MAX_BANKS};
use stfm_serve::{expand_line, run_sweep, ResultCache, SchedSpec, ServeConfig};
use stfm_sim::{
    run_ordered, AloneCache, Budget, Experiment, SchedulerKind, System, Table, ThreadMetrics,
    WorkloadMetrics,
};
use stfm_telemetry::{EpochConfig, EpochSampler, JsonLinesSink, NullSink, Sink, TeeSink};
use stfm_workloads::{by_name, desktop, spec, Profile, SyntheticTrace};

/// Top-level usage text.
pub const USAGE: &str = "\
stfm — Stall-Time Fair Memory scheduling reproduction

USAGE:
  stfm run --workload <b1,b2,...> [--scheduler frfcfs|fcfs|cap|nfq|stfm|parbs|all]
           [--insts N] [--seed N] [--alpha X] [--weights w1,w2,...]
           [--banks N] [--row-kb N] [--jobs N] [--check]
  stfm trace --workload <b1,b2,...> [--scheduler frfcfs|fcfs|cap|nfq|stfm|parbs]
           [--insts N] [--seed N] [--epoch N] [--sample N] [--out-dir DIR]
  stfm paper (--figure ID | --all DIR) [--insts N] [--seed N] [--full] [--jobs N]
  stfm sweep <spec-file> [--jobs N] [--cache-dir DIR] [--quiet]
  stfm serve [--jobs N] [--cache-dir DIR] [--tcp ADDR] [--cell-timeout MS]
           [--retry-backoff MS] [--self-check N] [--fault-log FILE]
  stfm list
  stfm capture --benchmark <name> --ops N --out <file> [--seed N] [--cores N]
  stfm replay --traces <f1,f2,...> [--scheduler ...] [--insts N]
  stfm help

`sweep` expands a JSONL spec file (one experiment grid per line; see
DESIGN.md section 10) into cells, runs them across --jobs workers
(default: all cores), and streams one JSON result line per cell to
stdout in input order. Malformed lines print a one-line Err to stderr
with the offending line number; the rest of the file still runs. With
--cache-dir, completed cells persist and later runs replay them.

`serve` is the long-running form: it reads spec lines from stdin (or
accepts sequential connections with --tcp host:port), streams result
lines plus per-line `epoch` telemetry, answers {\"cmd\":\"ping\"|\"stats\"}
in stream order, and exits gracefully on {\"cmd\":\"shutdown\"} or EOF.
Cells are panic-isolated; --cell-timeout caps each cell's wall-clock
budget in milliseconds (one retry after --retry-backoff ms, default 25,
then a structured timeout error); --self-check N re-runs 1-in-N fresh
cells on the stepped oracle loop and demotes a diverging scheduler/mix
class to that loop for the session; --fault-log FILE mirrors detected
faults as telemetry JSONL. See DESIGN.md section 11.

`trace` runs one workload under one scheduler (default: stfm) with the
telemetry sink attached and writes <out-dir>/events.jsonl (full event
stream) and <out-dir>/epochs.csv (fixed-width time series: per-thread
estimated slowdowns, bandwidth, row-hit rate, bus utilization, queue
depth). --epoch sets the CSV row width and --sample the scheduler
snapshot spacing, both in DRAM cycles.

`run --check` audits every shared run's DDR2 command stream and fails on
the first timing violation.

`paper` renders the paper's figures, tables, extension and ablations:
--figure ID prints one record on stdout, --all DIR writes <DIR>/<ID>.txt
for every record (results/ is `--all results`). --insts overrides each
record's own budget; --full runs the sweeps the default subsamples. The
records of one invocation share their runs; stderr says how many each
simulated.

Benchmark names come from `stfm list` (the paper's Table 3 + Table 4).
";

/// A `--scheduler` value: any spec token (`SchedSpec::parse`), or `all`
/// for the paper's five-way comparison.
fn parse_scheduler(s: &str) -> Result<Vec<SchedulerKind>, String> {
    if s == "all" {
        return Ok(SchedulerKind::all().to_vec());
    }
    SchedSpec::parse(s).map(|spec| vec![spec.kind()])
}

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

/// `stfm run`.
pub fn run(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(
        args,
        "workload scheduler insts seed alpha weights banks row-kb jobs check quiet",
    )?;
    let names = f.list("workload")?;
    let profiles: Vec<Profile> = names.iter().map(|n| by_name(n)).collect::<Result<_, _>>()?;
    let kinds = parse_scheduler(f.get("scheduler").unwrap_or("all"))?;
    let insts: u64 = f.num("insts", 100_000)?;
    let seed: u64 = f.num("seed", 1)?;

    let banks = f.get("banks").map(|v| match v.parse::<u32>() {
        Ok(b) if b.is_power_of_two() && b <= MAX_BANKS => Ok(b),
        _ => Err(format!(
            "bad --banks '{v}': must be a power of two, at most {MAX_BANKS}"
        )),
    });
    let row_kb = f.get("row-kb").map(|v| {
        v.parse()
            .map_err(|_| format!("bad --row-kb '{v}': must be a power of two"))
    });
    let dram = DramConfig::for_cores(profiles.len() as u32)
        .with_geometry(banks.transpose()?, row_kb.transpose()?)?;
    let stfm = f.get("alpha").map(|v| {
        let alpha = v.parse().map_err(|_| format!("bad --alpha '{v}'"))?;
        SchedulerKind::stfm_alpha(alpha)
    });
    let stfm = stfm.transpose()?;

    let weights: Vec<u32> = match f.get("weights") {
        None => vec![],
        Some(w) => w
            .split(',')
            .map(|x| x.trim().parse().map_err(|_| format!("bad weight '{x}'")))
            .collect::<Result<_, _>>()?,
    };
    if !weights.is_empty() && weights.len() != profiles.len() {
        return Err(format!(
            "--weights needs {} entries, got {}",
            profiles.len(),
            weights.len()
        ));
    }

    let cache = AloneCache::new();
    let mut experiments = Vec::new();
    for kind in &kinds {
        let kind = match (kind, stfm) {
            (SchedulerKind::Stfm, Some(with_alpha)) => with_alpha,
            _ => *kind,
        };
        let mut e = Experiment::new(profiles.clone())
            .scheduler(kind)
            .dram_config(dram.clone())
            .instructions_per_thread(insts)
            .seed(seed);
        for (i, w) in weights.iter().enumerate() {
            e = match kind {
                SchedulerKind::Nfq => e.share(i as u32, *w),
                _ => e.weight(i as u32, *w),
            };
        }
        experiments.push(e);
    }
    let mut results = Vec::with_capacity(experiments.len());
    run_ordered(
        experiments.iter(),
        jobs_flag(&f)?,
        |e| run_checked(e, &cache, f.has("check")),
        |metrics| {
            results.push(metrics);
            ControlFlow::Continue(())
        },
    );
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    if !f.has("quiet") {
        println!(
            "workload {:?}, {} instructions/thread, seed {}\n",
            names, insts, seed
        );
    }
    print_metrics(&names, &results);
    Ok(())
}

/// `e`'s metrics, or why its run stopped short. With `check`, a
/// [`TimingAudit`] observes the shared run and its first violation is the
/// error.
fn run_checked(e: &Experiment, cache: &AloneCache, check: bool) -> Result<WorkloadMetrics, String> {
    let sink: Box<dyn Sink> = if check {
        Box::new(TimingAudit::new(&e.effective_dram()))
    } else {
        Box::new(NullSink)
    };
    let mut run = e.run_traced(cache, sink);
    if let Some(stop) = run.stop {
        return Err(format!("{} run {stop}", run.metrics.scheduler));
    }
    if let Some(audit) = run.sink.as_any_mut().downcast_mut::<TimingAudit>() {
        audit.check()?;
    }
    Ok(run.metrics)
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
    let args = Args {
        insts: f.get("insts").map(|_| f.num("insts", 0)).transpose()?,
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

/// `stfm trace`: one traced run, dumping `events.jsonl` + `epochs.csv`.
pub fn trace(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(
        args,
        "workload scheduler insts seed epoch sample out-dir quiet",
    )?;
    let names = f.list("workload")?;
    let profiles: Vec<Profile> = names.iter().map(|n| by_name(n)).collect::<Result<_, _>>()?;
    let kinds = parse_scheduler(f.get("scheduler").unwrap_or("stfm"))?;
    let [kind] = kinds[..] else {
        return Err("trace takes a single scheduler, not 'all'".into());
    };
    let insts: u64 = f.num("insts", 100_000)?;
    let seed: u64 = f.num("seed", 1)?;
    let epoch_len: u64 = f.num("epoch", 10_000)?;
    let sample: u64 = f.num("sample", DEFAULT_SAMPLE_INTERVAL.get())?;
    let out_dir = f.get("out-dir").unwrap_or("trace-out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;

    let dram = DramConfig::for_cores(profiles.len() as u32);
    let events_path = Path::new(out_dir).join("events.jsonl");
    let epochs_path = Path::new(out_dir).join("epochs.csv");
    let events_file =
        File::create(&events_path).map_err(|e| format!("{}: {e}", events_path.display()))?;
    let sampler = EpochSampler::new(EpochConfig {
        epoch_len,
        threads: profiles.len(),
        cas_data_cycles: dram.timing.burst_cycles().get(),
        line_bytes: u64::from(dram.line_bytes),
    });
    let tee: TeeSink<JsonLinesSink<BufWriter<File>>, EpochSampler> =
        TeeSink::new(JsonLinesSink::new(BufWriter::new(events_file)), sampler);

    let experiment = Experiment::new(profiles)
        .scheduler(kind)
        .dram_config(dram)
        .instructions_per_thread(insts)
        .seed(seed)
        .sample_interval(sample);
    let mut run = experiment.run_traced(&AloneCache::new(), Box::new(tee));

    let Some(tee) = run
        .sink
        .as_any_mut()
        .downcast_mut::<TeeSink<JsonLinesSink<BufWriter<File>>, EpochSampler>>()
    else {
        return Err("internal error: run_traced returned a different sink type".into());
    };
    tee.first
        .flush()
        .map_err(|e| format!("events.jsonl: {e}"))?;
    let events = tee.first.lines_written();
    tee.second.finish(run.final_dram_cycle);
    let epochs_file =
        File::create(&epochs_path).map_err(|e| format!("{}: {e}", epochs_path.display()))?;
    tee.second
        .write_csv(BufWriter::new(epochs_file))
        .map_err(|e| format!("epochs.csv: {e}"))?;

    if !f.has("quiet") {
        println!(
            "workload {:?} under {}, {insts} instructions/thread, seed {seed}",
            names,
            kind.name()
        );
        println!(
            "{}: {events} events\n{}: {} epochs of {epoch_len} DRAM cycles",
            events_path.display(),
            epochs_path.display(),
            tee.second.rows().len()
        );
        print_metrics(&names, std::slice::from_ref(&run.metrics));
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

/// `stfm capture`.
pub fn capture(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, "benchmark ops out seed cores")?;
    let profile = by_name(f.require("benchmark")?)?;
    let out = f.require("out")?;
    let ops: usize = f.num("ops", 50_000usize)?;
    let seed: u64 = f.num("seed", 1)?;
    let cores: u32 = f.num("cores", 4u32)?;
    let dram = DramConfig::for_cores(cores);
    let mut trace = SyntheticTrace::new(profile, &dram, 0, seed);
    let records = trace_io::capture(&mut trace, ops);
    trace_io::write_trace(out, &records).map_err(|e| e.to_string())?;
    println!("wrote {} records to {out}", records.len());
    Ok(())
}

/// `stfm replay`: run trace files (one per core) through the simulator and
/// report per-thread shared-vs-alone metrics.
pub fn replay(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, "traces scheduler insts")?;
    let files = f.list("traces")?;
    let kinds = parse_scheduler(f.get("scheduler").unwrap_or("stfm"))?;
    let insts: u64 = f.num("insts", 100_000)?;
    let dram = DramConfig::for_cores(files.len() as u32);

    // `paths[i]` on core `i` under `kind`: each core's measured window.
    let run = |kind: SchedulerKind, paths: &[String]| -> Result<Vec<CoreStats>, String> {
        let mem = MemorySystem::new(dram.clone(), kind.build(dram.timing, &[], &[]));
        let cores = paths.iter().zip(0..).map(|(path, i)| {
            let trace = FileTrace::open(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(Core::new(ThreadId(i), Box::new(trace)))
        });
        let mut sys = System::new(cores.collect::<Result<_, String>>()?, mem);
        Ok(sys.run(&[Budget::of(insts)]).remove(0).frozen)
    };
    // Alone baselines, one per file.
    let alone = files
        .iter()
        .map(|p| Ok(run(SchedulerKind::FrFcfs, std::slice::from_ref(p))?[0]));
    let alone: Vec<CoreStats> = alone.collect::<Result<_, String>>()?;
    let mut results = Vec::new();
    for &kind in &kinds {
        let threads = files.iter().zip(run(kind, &files)?).zip(&alone);
        let threads = threads.map(|((name, shared), &alone)| ThreadMetrics {
            name: name.clone(),
            shared,
            alone,
        });
        results.push(WorkloadMetrics {
            scheduler: kind.name().to_string(),
            threads: threads.collect(),
        });
    }
    print_metrics(&files, &results);
    Ok(())
}

/// Resolves `--jobs` (0 or absent means "all cores").
fn jobs_flag(f: &Flags) -> Result<Option<usize>, String> {
    let n: usize = f.num("jobs", 0)?;
    Ok((n > 0).then_some(n))
}

/// Builds the alone-run and result caches, persistent when `--cache-dir`
/// is given (`DIR/alone` and `DIR/cells` respectively).
fn sweep_caches(f: &Flags) -> Result<(AloneCache, ResultCache), String> {
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

/// `stfm sweep`: expand a JSONL spec file and run every cell through the
/// shared work-stealing runner, streaming result lines to stdout.
pub fn sweep(args: &[String]) -> Result<(), String> {
    // The spec file is the one positional argument; accept it anywhere
    // relative to the flags.
    let mut flag_args: Vec<String> = Vec::new();
    let mut positionals: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            flag_args.push(a.clone());
            if a != "--quiet" {
                if let Some(v) = it.next() {
                    flag_args.push(v.clone());
                }
            }
        } else {
            positionals.push(a);
        }
    }
    let [path] = positionals[..] else {
        return Err("usage: stfm sweep <spec-file> [--jobs N] [--cache-dir DIR] [--quiet]".into());
    };
    let f = Flags::parse(&flag_args, "jobs cache-dir quiet")?;
    let (alone, results) = sweep_caches(&f)?;
    let quiet = f.has("quiet");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;

    // Expand up front; malformed lines report and are skipped, the rest
    // of the file still runs.
    let mut cells = Vec::new();
    let mut bad_lines = 0u64;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match expand_line(trimmed) {
            Ok(batch) => cells.extend(batch),
            Err(e) => {
                bad_lines += 1;
                eprintln!("{path}:{line_no}: Err: {e}");
            }
        }
    }

    let total = cells.len();
    // Feeds only the cells/s summary on stderr.
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();
    let mut out = io::stdout().lock();
    let mut emitted = 0usize;
    let mut write_failed = false;
    let summary = run_sweep(&cells, &alone, &results, jobs_flag(&f)?, |o| {
        if writeln!(out, "{}", o.line).is_err() {
            write_failed = true;
        }
        emitted += 1;
        if !quiet {
            let c = &cells[o.index];
            eprintln!(
                "[{emitted}/{total}] {} {} insts={} seed={} -> {} ({} ms)",
                c.scheduler.token(),
                c.mix.join("+"),
                c.insts,
                c.seed,
                if o.from_cache { "cache" } else { "run" },
                o.wall.as_millis()
            );
        }
    })?;
    out.flush().map_err(|e| format!("stdout: {e}"))?;
    if write_failed {
        return Err("stdout: write failed".into());
    }

    let wall = started.elapsed().as_secs_f64();
    if !quiet {
        let rate = if wall > 0.0 {
            summary.cells as f64 / wall
        } else {
            0.0
        };
        eprintln!(
            "{} cells ({} cached, {} simulated, {} quarantined, {} bad lines) on {} workers in {:.2}s ({:.1} cells/s)",
            summary.cells,
            summary.cache_hits,
            summary.cells - summary.cache_hits,
            alone.quarantined_count() + results.quarantined_count(),
            bad_lines,
            summary.workers,
            wall,
            rate
        );
    }
    Ok(())
}

/// Builds the fault-tolerance configuration for `stfm serve` from its
/// flags (`--cell-timeout`/`--retry-backoff` in milliseconds,
/// `--self-check` as a 1-in-N rate, `--fault-log` as a JSONL path).
fn serve_config(f: &Flags) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::with_jobs(jobs_flag(f)?);
    let timeout_ms: u64 = f.num("cell-timeout", 0)?;
    if timeout_ms > 0 {
        cfg = cfg.cell_timeout(std::time::Duration::from_millis(timeout_ms));
    }
    let backoff_ms: u64 = f.num("retry-backoff", 25)?;
    cfg = cfg.retry_backoff(std::time::Duration::from_millis(backoff_ms));
    cfg = cfg.self_check(f.num("self-check", 0)?);
    if let Some(path) = f.get("fault-log") {
        cfg = cfg.fault_log(path);
    }
    Ok(cfg)
}

/// `stfm serve`: the long-running experiment service (stdin/stdout line
/// protocol, or sequential TCP connections with `--tcp`).
pub fn serve(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(
        args,
        "jobs cache-dir tcp cell-timeout retry-backoff self-check fault-log",
    )?;
    let (alone, results) = sweep_caches(&f)?;
    let cfg = serve_config(&f)?;
    if let Some(addr) = f.get("tcp") {
        eprintln!("stfm serve: listening on {addr}");
        stfm_serve::serve_tcp(addr, &alone, &results, &cfg).map_err(|e| format!("{addr}: {e}"))?;
        return Ok(());
    }
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

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Bank counts the controller cannot pack are usage errors, caught
    /// before anything runs.
    #[test]
    fn run_refuses_bank_counts_it_cannot_pack() {
        for banks in ["32", "6", "0", "x"] {
            let line = format!("--workload mcf,mcf,mcf,mcf,mcf --scheduler cap --banks {banks}");
            let err = run(&argv(&line)).expect_err(&line);
            assert!(err.contains("power of two, at most 16"), "{line}: {err}");
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
            ("--alpha x", "bad --alpha"),
            ("--row-kb 524288", "row_kb must be"),
            ("--row-kb 3", "row_kb must be"),
        ] {
            let line = format!("--workload mcf --scheduler stfm {flag}");
            let err = run(&argv(&line)).expect_err(&line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    /// `run`, `trace` and `replay` take the same scheduler tokens as a
    /// spec line, PAR-BS included.
    #[test]
    fn every_spec_token_is_a_cli_scheduler() {
        for spec in SchedSpec::all().into_iter().chain([SchedSpec::ParBs]) {
            assert_eq!(parse_scheduler(spec.token()), Ok(vec![spec.kind()]));
        }
        assert_eq!(parse_scheduler("all"), Ok(SchedulerKind::all().to_vec()));
        assert!(parse_scheduler("bogus").is_err());
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
        let err = paper_err("--figure fig99");
        assert!(err.contains("unknown figure 'fig99'"), "{err}");
        for r in RECORDS {
            assert!(err.contains(r.id), "{} missing: {err}", r.id);
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

    /// A budget that is not a number is an error naming the flag.
    #[test]
    fn paper_rejects_a_non_numeric_budget() {
        let err = paper_err("--figure fig6 --insts lots");
        assert!(err.contains("--insts"), "{err}");
    }
}
