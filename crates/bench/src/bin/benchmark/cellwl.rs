//! The two cell workloads: `sweep_cold` and `serve_cells`.
//!
//! Both push spec cells through `stfm_serve`, from opposite ends:
//! `sweep_cold` a thousand short cells at once through `run_sweep` with
//! cold on-disk caches (throughput), `serve_cells` one cell at a time
//! through an in-process `serve` session, the next line sent only after
//! the previous answer arrived (closed loop, one client; latency).
//!
//! The traced pass is a serial copy of the cell pipeline kept here —
//! `expand_line`, `Cell::key`, `ResultCache::lookup`,
//! `Cell::to_experiment`, the simulation, `result_line`,
//! `ResultCache::store` — with a span per stage.

use std::io::{self, BufRead, Read, Write};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

use stfm_dram::rng::SmallRng;
use stfm_dram::CPU_CYCLES_PER_DRAM_CYCLE;
use stfm_serve::{
    expand_line, result_line, run_sweep, serve, Cell, ResultCache, SchedSpec, ServeConfig,
    ServeTotals,
};
use stfm_sim::digest::Fnv64;
use stfm_sim::{gmean, AloneCache, WorkloadMetrics};

use crate::measure::{
    median, report_core_sums, report_end_to_end, report_schedulers, secs, HostRef, Outcome,
    RepStats, SchedRow, Scratch, Timed,
};
use crate::names::{SCHEDS, STFM};
use crate::trace::Tracer;
use crate::Opts;

/// Worker threads of `sweep_cold`'s timed reps (fixed, not "all cores").
const SWEEP_JOBS: usize = 2;

/// The two-thread mixes of `sweep_cold` (`sweep_scale`'s grid).
const SWEEP_MIXES: &str = "[[\"mcf\", \"libquantum\"], [\"mcf\", \"hmmer\"], \
     [\"libquantum\", \"omnetpp\"], [\"GemsFDTD\", \"astar\"], [\"mcf\", \"omnetpp\"]]";

/// Benchmarks `serve_cells` pairs up: 36 pairs x 5 schedulers = 180 cells.
const SERVE_POOL: [&str; 9] = [
    "mcf",
    "libquantum",
    "GemsFDTD",
    "omnetpp",
    "astar",
    "hmmer",
    "h264ref",
    "bzip2",
    "gromacs",
];

/// One answered cell of a timed rep.
struct Done {
    sched: usize,
    line: String,
    wall: Timed,
    from_cache: bool,
    metrics: WorkloadMetrics,
}

/// One timed rep of either workload.
struct Rep {
    wall: Timed,
    done: Vec<Done>,
    hits: u64,
    misses: u64,
    quarantined: u64,
    totals: ServeTotals,
}

fn sched_index(s: SchedSpec) -> usize {
    SchedSpec::all().iter().position(|&x| x == s).unwrap_or(0)
}

/// Simulated DRAM kcycles of a cell's measured window: the slowest
/// thread's frozen cycle count (warm-up and alone baselines excluded —
/// result lines carry nothing else).
fn window_kcycles(m: &WorkloadMetrics) -> f64 {
    let cpu = m.threads.iter().map(|t| t.shared.cycles).max().unwrap_or(0);
    (cpu / CPU_CYCLES_PER_DRAM_CYCLE) as f64 / 1e3
}

fn lines_digest<'a>(lines: impl Iterator<Item = &'a str>) -> u64 {
    let mut h = Fnv64::new();
    for l in lines {
        h.write_str(l);
        h.write_bytes(b"\n");
    }
    h.finish()
}

/// `sweep_cold`'s one spec line: 5 schedulers x 5 mixes x 40 seeds
/// derived from the benchmark seed.
fn sweep_line(seed: u64, quick: bool) -> String {
    let (n, insts) = if quick { (4, 300) } else { (40, 3_000) };
    let first = seed.wrapping_sub(1).wrapping_mul(n);
    let seeds: Vec<String> = (1..=n).map(|i| first.wrapping_add(i).to_string()).collect();
    format!(
        "{{\"scheduler\": \"all\", \"mixes\": {SWEEP_MIXES}, \"insts\": {insts}, \"seed\": [{}]}}",
        seeds.join(", ")
    )
}

/// `serve_cells`' spec lines: every pair of the pool under every
/// scheduler in an order drawn from the seed, with a repeat of an
/// earlier line after every three fresh ones.
fn serve_lines(seed: u64, quick: bool) -> Vec<String> {
    let insts = if quick { 3_000 } else { 30_000 };
    let mut fresh = Vec::new();
    for (i, a) in SERVE_POOL.iter().enumerate() {
        for b in &SERVE_POOL[i + 1..] {
            for s in SCHEDS {
                fresh.push(format!(
                    "{{\"scheduler\": \"{s}\", \"mix\": [\"{a}\", \"{b}\"], \"insts\": {insts}, \"seed\": {seed}}}"
                ));
            }
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..fresh.len()).rev() {
        fresh.swap(i, rng.random_range(0..i + 1));
    }
    if quick {
        fresh.truncate(fresh.len() / 10);
    }
    let mut lines = Vec::new();
    for (i, line) in fresh.iter().enumerate() {
        lines.push(line.clone());
        if i % 3 == 2 {
            lines.push(fresh[rng.random_range(0..i + 1)].clone());
        }
    }
    lines
}

fn disk_caches(dir: &Path) -> Result<(AloneCache, ResultCache), String> {
    let alone = AloneCache::with_dir(dir.join("alone")).map_err(|e| e.to_string())?;
    let results = ResultCache::with_dir(dir.join("cells")).map_err(|e| e.to_string())?;
    Ok((alone, results))
}

/// One `run_sweep` over fresh cache handles on `dir`.
fn sweep_pass(cells: &[Cell], dir: &Path, jobs: usize) -> Result<Rep, String> {
    let (alone, results) = disk_caches(dir)?;
    let mut done = Vec::with_capacity(cells.len());
    let start = Instant::now();
    run_sweep(cells, &alone, &results, Some(jobs), |o| {
        done.push(Done {
            sched: sched_index(cells[o.index].scheduler),
            line: o.line,
            wall: Timed::raw(o.wall.as_secs_f64()),
            from_cache: o.from_cache,
            metrics: o.metrics,
        });
    })?;
    Ok(Rep {
        wall: Timed::raw(secs(start)),
        done,
        hits: results.hit_count(),
        misses: results.miss_count(),
        quarantined: results.quarantined_count(),
        totals: ServeTotals::default(),
    })
}

/// The request side of the in-process `serve` session: spec lines
/// arrive over a channel, end of input is the channel closing.
struct LineReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl BufRead for LineReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            self.pos = 0;
            self.buf = match self.rx.recv() {
                Ok(line) => (line + "\n").into_bytes(),
                Err(_) => Vec::new(),
            };
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

impl Read for LineReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// The response side: every completed output line goes to the client
/// with the instant it was written.
struct LineWriter {
    tx: Sender<String>,
    partial: Vec<u8>,
}

impl Write for LineWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        for &b in data {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.partial.clear();
                self.tx
                    .send(line)
                    .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))?;
            } else {
                self.partial.push(b);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// How long the client waits for a response line before it counts the
/// cell as unanswered.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// One closed-loop session on a fresh result cache: a line is sent
/// only after the previous line's result and epoch lines have arrived.
/// An unanswered or failed cell is a failed operation. Every request is
/// timed by `host`, between requests, while the server waits for input.
fn serve_session(
    lines: &[String],
    alone: &AloneCache,
    out: &mut Outcome,
    host: &mut HostRef,
) -> Rep {
    let results = ResultCache::in_memory();
    let cfg = ServeConfig::with_jobs(Some(1));
    let (req_tx, req_rx) = mpsc::channel::<String>();
    let (resp_tx, resp_rx) = mpsc::channel::<String>();
    let reader = LineReader {
        rx: req_rx,
        buf: Vec::new(),
        pos: 0,
    };
    let writer = LineWriter {
        tx: resp_tx,
        partial: Vec::new(),
    };
    let mut done = Vec::with_capacity(lines.len());
    let totals = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(reader, writer, alone, &results, &cfg));
        for line in lines {
            let mut answer: Option<(String, f64)> = None;
            let mut from_cache = false;
            let (_, exchange) = host.around(|| {
                let sent = Instant::now();
                if req_tx.send(line.clone()).is_ok() {
                    while let Ok(resp) = resp_rx.recv_timeout(RESPONSE_TIMEOUT) {
                        if resp.starts_with("{\"type\":\"epoch\"") {
                            from_cache = resp.contains("\"cache_hits\":1");
                            break;
                        }
                        if answer.is_none() {
                            answer = Some((resp, secs(sent)));
                        }
                    }
                }
            });
            let parsed = answer.and_then(|(resp, wall_s)| {
                let p = stfm_serve::parse_result_line(&resp).ok()?;
                let cell = expand_line(line).ok()?.pop()?;
                Some(Done {
                    sched: sched_index(cell.scheduler),
                    line: resp,
                    wall: exchange.scale(wall_s),
                    from_cache,
                    metrics: p.metrics,
                })
            });
            out.op(parsed.is_some(), || format!("no result line for {line}"));
            done.extend(parsed);
        }
        drop(req_tx);
        while resp_rx.recv_timeout(RESPONSE_TIMEOUT).is_ok() {}
        server.join().ok().and_then(Result::ok)
    });
    out.op(totals.is_some(), || "serve session failed".to_string());
    Rep {
        // The session as its client saw it: the sum of its exchanges.
        wall: done.iter().map(|d| d.wall).sum(),
        done,
        hits: results.hit_count(),
        misses: results.miss_count(),
        quarantined: results.quarantined_count(),
        totals: totals.unwrap_or_default(),
    }
}

/// The workload's inputs and how to run one rep of it.
enum Work {
    Sweep {
        cells: Vec<Cell>,
        line: String,
    },
    /// The alone baselines are warm, as in a service that has been up
    /// for a while; `sweep_cold` is the workload that pays for them.
    Serve {
        lines: Vec<String>,
        alone: AloneCache,
    },
}

impl Work {
    fn rep(
        &self,
        scratch: &Scratch,
        tag: &str,
        out: &mut Outcome,
        host: &mut HostRef,
    ) -> Option<Rep> {
        match self {
            Work::Sweep { cells, .. } => {
                let rep = sweep_pass(cells, &scratch.join(tag), SWEEP_JOBS);
                let n = cells.len() as u64;
                match rep {
                    Ok(rep) => {
                        out.ops(n, 0);
                        Some(rep)
                    }
                    Err(e) => {
                        eprintln!("FAILED: sweep: {e}");
                        out.ops(n, n);
                        None
                    }
                }
            }
            Work::Serve { lines, alone } => Some(serve_session(lines, alone, out, host)),
        }
    }

    /// The discarded warm-up pass: a tenth of the workload. For
    /// `serve_cells` it first runs enough of the lines to touch every
    /// benchmark of the pool once, which warms all alone baselines.
    fn warm_up(&self, scratch: &Scratch, tag: &str) {
        match self {
            Work::Sweep { cells, .. } => {
                let tenth = &cells[..(cells.len() / 10).max(1)];
                let _ = sweep_pass(tenth, &scratch.join(tag), SWEEP_JOBS);
            }
            Work::Serve { lines, alone } => {
                let mut unseen: Vec<String> =
                    SERVE_POOL.iter().map(|b| format!("\"{b}\"")).collect();
                let mut warm: Vec<String> = Vec::new();
                for line in lines {
                    let before = unseen.len();
                    unseen.retain(|b| !line.contains(b.as_str()));
                    if unseen.len() < before {
                        warm.push(line.clone());
                    }
                }
                warm.extend_from_slice(&lines[..(lines.len() / 10).max(1)]);
                let _ = serve_session(
                    &warm,
                    alone,
                    &mut Outcome::default(),
                    &mut HostRef::default(),
                );
            }
        }
    }
}

fn make_work(workload: &str, seed: u64, quick: bool) -> Result<Work, String> {
    if workload == "sweep_cold" {
        let line = sweep_line(seed, quick);
        Ok(Work::Sweep {
            cells: expand_line(&line)?,
            line,
        })
    } else {
        Ok(Work::Serve {
            lines: serve_lines(seed, quick),
            alone: AloneCache::new(),
        })
    }
}

/// Runs one cell workload under `opts` and fills `out`.
pub fn run(workload: &str, opts: &Opts, default_reps: usize, out: &mut Outcome) {
    let scratch = match Scratch::new(workload) {
        Ok(s) => s,
        Err(e) => return out.op(false, || format!("no scratch directory: {e}")),
    };
    let mut setups = Vec::new();
    let mut work = None;
    let jobs = if workload == "sweep_cold" {
        SWEEP_JOBS
    } else {
        1
    };
    // The reference loop stands for single-threaded CPU work. `sweep_cold`
    // keeps two workers and the file system busy, and dividing by the loop
    // widened its fixed-seed spread more often than it narrowed it (README,
    // "Host-speed calibration"): its times stay as measured.
    let mut host = if workload == "sweep_cold" {
        HostRef::off()
    } else {
        HostRef::default()
    };
    for i in 0..opts.setups() {
        let (made, took) = host.around(|| {
            make_work(workload, opts.seed, opts.quick)
                .inspect(|w| w.warm_up(&scratch, &format!("warmup{i}")))
        });
        match made {
            Ok(w) => work = Some(w),
            Err(e) => return out.op(false, || format!("bad spec: {e}")),
        }
        setups.push(took);
    }
    let Some(work) = work else { return };

    // Each rep is reduced to its statistics and digest as it ends; only
    // the latest is kept whole, for the per-layer passes, so that peak
    // memory does not grow with the number of reps the clock allowed.
    let mut stats: Vec<RepStats> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    let mut latest: Option<Rep> = None;
    let mut n = 0;
    opts.rep_loop(default_reps, || {
        n += 1;
        let Some(rep) = work.rep(&scratch, &format!("rep{n}"), out, &mut host) else {
            return;
        };
        digests.push(lines_digest(rep.done.iter().map(|d| d.line.as_str())));
        let fresh = || rep.done.iter().filter(|d| !d.from_cache);
        let stfm = || fresh().filter(|d| d.sched == STFM);
        stats.push(RepStats {
            wall: rep.wall,
            kcycles: fresh().map(|d| window_kcycles(&d.metrics)).sum(),
            stfm_kcycles: stfm().map(|d| window_kcycles(&d.metrics)).sum(),
            stfm_wall: stfm().map(|d| d.wall).sum(),
            cells: rep.done.len() as u64,
            latencies: fresh().map(|d| d.wall).collect(),
        });
        latest = Some(rep);
    });
    out.digest = digests.first().copied().unwrap_or(0);
    out.op(
        !digests.is_empty() && digests.iter().all(|&d| d == out.digest),
        || "timed reps disagree on their result lines".to_string(),
    );

    if opts.timed() {
        report_end_to_end(out, &setups, &stats);
    }
    if opts.layers() {
        if let Some(rep) = &latest {
            layers(&work, jobs, opts, &scratch, rep, out);
        }
        out.set("host.slowdown", host.slowdown());
    }
}

/// The traced pass: the cell pipeline, serially, a span per stage.
/// Returns the result lines in order.
fn traced_pipeline(
    tr: &mut Tracer,
    lines: &[&str],
    alone: &AloneCache,
    results: &ResultCache,
    out: &mut Outcome,
) -> Vec<String> {
    let mut answers = Vec::new();
    let mut run = 0u32;
    for line in lines {
        let cells = tr.scope("serve.expand_line", run, || expand_line(line));
        for cell in cells.unwrap_or_default() {
            let span = tr.open("serve.cell", run);
            let key = tr.scope("serve.cell_key", run, || cell.key());
            let hit = tr.scope("serve.cache_lookup", run, || results.lookup(&key));
            let answer = match hit {
                Some(hit) => Some(hit.line),
                None => tr
                    .scope("serve.to_experiment", run, || cell.to_experiment())
                    .ok()
                    .map(|e| {
                        let m = tr.scope("sim.run_cell", run, || e.run_with_cache(alone));
                        let l = tr.scope("serve.result_line", run, || result_line(&cell, &m));
                        tr.scope("serve.cache_store", run, || results.store(&key, &l));
                        l
                    }),
            };
            tr.close(span);
            out.op(answer.is_some(), || format!("traced cell {key} failed"));
            answers.extend(answer);
            run += 1;
        }
    }
    answers
}

/// Stages of the traced pipeline, with the metric each one's mean
/// reports and the factor from seconds to the metric's unit.
const STAGES: [(&str, &str, f64); 5] = [
    ("serve.expand_line", "serve.expand_line_us", 1e6),
    ("serve.to_experiment", "serve.to_experiment_us", 1e6),
    ("serve.cache_store", "serve.cache_store_us", 1e6),
    ("serve.cache_lookup", "serve.cache_lookup_us", 1e6),
    ("serve.result_line", "serve.result_line_ns", 1e9),
];

/// The per-layer passes, given one timed rep.
fn layers(work: &Work, jobs: usize, opts: &Opts, scratch: &Scratch, rep: &Rep, out: &mut Outcome) {
    let fresh: Vec<&Done> = rep.done.iter().filter(|d| !d.from_cache).collect();

    // Simulated outcomes per scheduler, gmean over the fresh cells.
    let rows: Vec<Option<SchedRow>> = (0..SCHEDS.len())
        .map(|sched| {
            let of = || fresh.iter().filter(move |d| d.sched == sched);
            of().next()?;
            Some(SchedRow {
                unfairness: gmean(of().map(|d| d.metrics.unfairness())),
                wspeedup: gmean(of().map(|d| d.metrics.weighted_speedup())),
                wall_s: of().map(|d| d.wall.raw_s).sum(),
            })
        })
        .collect();
    report_schedulers(out, &rows);
    report_core_sums(
        out,
        fresh
            .iter()
            .flat_map(|d| d.metrics.threads.iter().map(|t| &t.shared)),
    );
    let kcycles: f64 = fresh.iter().map(|d| window_kcycles(&d.metrics)).sum();
    out.set("sim.dram_cycles", kcycles * 1e3);
    out.set(
        "cpu.sum_ipc",
        fresh.iter().map(|d| d.metrics.sum_of_ipcs()).sum::<f64>() / fresh.len().max(1) as f64,
    );
    out.set("serve.cache_hits", rep.hits as f64);
    out.set("serve.cache_misses", rep.misses as f64);
    out.set("serve.quarantined", rep.quarantined as f64);
    out.set("serve.errors", rep.totals.errors as f64);
    out.set("serve.timeouts", rep.totals.timeouts as f64);

    // Traced serial pipeline over the same inputs, on fresh caches.
    let mut tr = Tracer::new();
    let pass = tr.open("serve.pass", 0);
    let answers = match work {
        Work::Sweep { line, .. } => match disk_caches(&scratch.join("traced")) {
            Ok((alone, results)) => {
                traced_pipeline(&mut tr, &[line.as_str()], &alone, &results, out)
            }
            Err(e) => return out.op(false, || format!("traced pass: {e}")),
        },
        Work::Serve { lines, alone } => {
            let texts: Vec<&str> = lines.iter().map(String::as_str).collect();
            traced_pipeline(&mut tr, &texts, alone, &ResultCache::in_memory(), out)
        }
    };
    tr.close(pass);
    let timed_lines = rep.done.iter().map(|d| d.line.as_str());
    out.op(
        lines_digest(answers.iter().map(String::as_str)) == lines_digest(timed_lines),
        || "serial traced pipeline and timed rep disagree on result lines".to_string(),
    );
    // The books close when the named stages cover the pass.
    let pass_s = tr.duration_ns(pass) as f64 / 1e9;
    let stage_names = || {
        STAGES
            .iter()
            .map(|s| s.0)
            .chain(["serve.cell_key", "sim.run_cell"])
    };
    let open = 1.0 - stage_names().map(|n| tr.total_s(n)).sum::<f64>() / pass_s.max(1e-12);
    out.op(open <= 0.05, || {
        format!("traced pipeline leaves {:.1}% unattributed", open * 100.0)
    });
    out.set("serve.run_cell_s", tr.total_s("sim.run_cell"));
    for (span, metric, scale) in STAGES {
        out.set(
            metric,
            tr.total_s(span) * scale / tr.count(span).max(1) as f64,
        );
    }
    out.set("trace.spans", tr.span_count() as f64);
    for name in stage_names() {
        println!(
            "traced share {name:<20} {:6.2}%",
            tr.total_s(name) * 100.0 / pass_s.max(1e-12)
        );
    }
    if let Some(path) = &opts.trace_out {
        let written = std::fs::write(path, tr.to_jsonl());
        out.op(written.is_ok(), || {
            format!("cannot write {}", path.display())
        });
    }

    // What the service adds on top of running the cells: worker time
    // not spent inside cells, over the worker time the rep paid for.
    let busy: f64 = match work {
        Work::Sweep { .. } => rep.done.iter().map(|d| d.wall.raw_s).sum(),
        Work::Serve { .. } => tr.total_s("serve.cell"),
    };
    out.set(
        "serve.overhead_share",
        1.0 - busy / (rep.wall.raw_s * jobs as f64),
    );

    match work {
        Work::Sweep { cells, .. } => {
            // The same grid on one worker, cold, for the scaling ratio;
            // its tracing overhead is the serial pass against it.
            match sweep_pass(cells, &scratch.join("jobs1"), 1) {
                Ok(one) => {
                    out.set("serve.sweep_jobs1_wall_s", one.wall.raw_s);
                    out.set(
                        "serve.parallel_efficiency",
                        one.wall.raw_s / (rep.wall.raw_s * SWEEP_JOBS as f64),
                    );
                    out.set(
                        "trace.overhead_share",
                        (pass_s - one.wall.raw_s) / one.wall.raw_s,
                    );
                }
                Err(e) => out.op(false, || format!("jobs 1 pass: {e}")),
            }
            // The read side of the cache: ten replays of the grid, each
            // over fresh handles on the first timed rep's directories.
            let mut replay_s = 0.0;
            let mut hit_us = Vec::new();
            for _ in 0..10 {
                match sweep_pass(cells, &scratch.join("rep1"), SWEEP_JOBS) {
                    Ok(warm) => {
                        replay_s += warm.wall.raw_s;
                        let same = warm.done.iter().all(|d| d.from_cache)
                            && warm
                                .done
                                .iter()
                                .map(|d| &d.line)
                                .eq(rep.done.iter().map(|d| &d.line));
                        out.op(same, || "warm replay differs from the cold rep".to_string());
                        hit_us.extend(warm.done.iter().map(|d| d.wall.raw_s * 1e6));
                    }
                    Err(e) => out.op(false, || format!("warm replay: {e}")),
                }
            }
            out.set(
                "serve.warm_replay_cells_per_s",
                10.0 * cells.len() as f64 / replay_s.max(1e-12),
            );
            out.set("serve.hit_latency_us_p50", median(&hit_us));
        }
        Work::Serve { .. } => {
            let cached = rep.done.iter().filter(|d| d.from_cache);
            let hits: Vec<f64> = cached.map(|d| d.wall.raw_s * 1e6).collect();
            out.set("serve.hit_latency_us_p50", median(&hits));
            // Served latency of each fresh cell minus the same cell run
            // in process by the traced pipeline (same line order).
            let in_process = tr.durations("serve.cell");
            let over: Vec<f64> = rep
                .done
                .iter()
                .zip(&in_process)
                .filter(|(d, _)| !d.from_cache)
                .map(|(d, ns)| d.wall.raw_s * 1e3 - *ns as f64 / 1e6)
                .collect();
            out.set("serve.protocol_overhead_ms_p50", median(&over));
            // Against the served session: negative by what the protocol
            // costs, since the tracer itself adds a few spans per cell.
            out.set(
                "trace.overhead_share",
                (pass_s - rep.wall.raw_s) / rep.wall.raw_s,
            );
        }
    }
}
