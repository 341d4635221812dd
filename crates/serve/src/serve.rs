//! The long-running `stfm serve` loop.
//!
//! Reads JSONL spec lines from an input stream, runs their cells through
//! a bounded worker pool, and streams one JSON line per cell back in
//! input order, followed by a per-line `epoch` telemetry summary. The
//! design is a three-stage pipeline sharing one global sequence space:
//!
//! * **reader** (thread) — parses each input line, expands it into cells,
//!   and pushes jobs into a *bounded* queue. When the queue is full the
//!   reader blocks, which stops it consuming input: backpressure reaches
//!   all the way back to the client's pipe.
//! * **workers** (threads) — pull jobs work-stealing style and run each
//!   cell (result-cache lookup, else simulate).
//! * **emitter** (caller's thread) — reorders completions by sequence
//!   number so the output stream is byte-identical for any `--jobs`.
//!
//! Malformed lines never crash the service: they produce a structured
//! `{"type":"error","line":N,...}` response and processing continues.
//! Result lines are deterministic; wall-clock and cache telemetry appear
//! only in `epoch`/`stats`/`bye` lines, so filtering the stream to
//! `"type":"result"` yields a reproducible transcript.
//!
//! Control commands (JSON objects with a `cmd` field) are answered in
//! stream order: `{"cmd":"ping"}` → `pong`, `{"cmd":"stats"}` → running
//! totals, `{"cmd":"shutdown"}` → drain queued work, emit `bye`, exit.
//! EOF is an implicit graceful shutdown.
//!
//! # Fault tolerance
//!
//! Every accepted cell gets exactly one response line, no matter what
//! the cell does (see DESIGN.md §11 for the full degradation ladder):
//!
//! * **Panic isolation** — each simulation runs under `catch_unwind`; a
//!   panicking cell becomes `{"type":"error","kind":"panic",...}` and
//!   the worker keeps serving.
//! * **Timeouts** — [`ServeConfig::cell_timeout`] threads a deadline
//!   [`stfm_sim::CancelToken`] into the simulation loops. A cell that
//!   overruns is retried once (after [`ServeConfig::retry_backoff`]),
//!   then reported as `{"type":"error","kind":"timeout",...}`.
//! * **Self-check** — [`ServeConfig::self_check`] re-runs 1-in-N fresh
//!   cells on the stepped oracle loop. On divergence the oracle's line
//!   wins, a `{"type":"fault",...}` line is emitted, and that
//!   scheduler/mix class is demoted to the stepped loop for the session.
//! * **Client disconnects** — a write failure that looks like a gone
//!   peer (broken pipe & friends) ends the session gracefully: the
//!   pipeline drains, totals record the disconnect, and the caller gets
//!   `Ok` rather than an error it can only ignore.
//!
//! Detected faults are additionally mirrored as
//! [`stfm_telemetry::Event::ServeFault`] records into an optional JSONL
//! fault log ([`ServeConfig::fault_log`]).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use stfm_sim::{runner::resolve_jobs, AloneCache, CancelToken};
use stfm_telemetry::{Event as TelemetryEvent, JsonLinesSink, Sink};

use crate::cache::ResultCache;
use crate::json::{self, escape};
use crate::result::result_line;
use crate::runner::{panic_message, run_cell_cancellable};
use crate::spec::{expand_line, Cell};

/// Configuration for one [`serve`] session (and, via [`serve_tcp`], for
/// every connection of a TCP service).
#[derive(Debug)]
pub struct ServeConfig {
    /// Worker threads; `None`/`Some(0)` = available parallelism.
    pub jobs: Option<usize>,
    /// Per-cell wall-clock budget; `None` = unbounded.
    pub cell_timeout: Option<Duration>,
    /// Pause before the single timeout retry.
    pub retry_backoff: Duration,
    /// Re-run 1-in-N fresh cells on the stepped oracle loop; `None` = off.
    pub self_check: Option<u64>,
    /// Mirror detected faults as telemetry JSONL into this file.
    pub fault_log: Option<PathBuf>,
    /// Seeded fault-injection plan (test builds only).
    #[cfg(feature = "fault-inject")]
    pub fault_plan: Option<std::sync::Arc<crate::fault::FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            jobs: None,
            cell_timeout: None,
            retry_backoff: Duration::from_millis(25),
            self_check: None,
            fault_log: None,
            #[cfg(feature = "fault-inject")]
            fault_plan: None,
        }
    }
}

impl ServeConfig {
    /// A default configuration with an explicit worker count.
    #[must_use]
    pub fn with_jobs(jobs: Option<usize>) -> Self {
        ServeConfig {
            jobs,
            ..Self::default()
        }
    }

    /// Sets the per-cell timeout (builder style).
    #[must_use]
    pub fn cell_timeout(mut self, budget: Duration) -> Self {
        self.cell_timeout = Some(budget);
        self
    }

    /// Sets the retry backoff (builder style).
    #[must_use]
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// Enables 1-in-`n` self-check sampling (builder style; `0` = off).
    #[must_use]
    pub fn self_check(mut self, n: u64) -> Self {
        self.self_check = (n > 0).then_some(n);
        self
    }

    /// Sets the fault-log path (builder style).
    #[must_use]
    pub fn fault_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.fault_log = Some(path.into());
        self
    }
}

/// Running totals reported by `stats` and `bye` lines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeTotals {
    /// Spec lines processed (successful expansions plus errors).
    pub lines: u64,
    /// Cells completed.
    pub cells: u64,
    /// Cells replayed from the result cache.
    pub cache_hits: u64,
    /// Malformed or failed lines.
    pub errors: u64,
    /// Cells reported as timed out (after their retry).
    pub timeouts: u64,
    /// Cells whose simulation panicked.
    pub panics: u64,
    /// `fault` lines emitted (retries, self-check divergences).
    pub faults: u64,
    /// Whether the client disconnected mid-stream (the session still
    /// drained and ended gracefully).
    pub disconnected: bool,
    /// Whether an explicit `shutdown` command ended the session (as
    /// opposed to end-of-input).
    pub shutdown_requested: bool,
}

/// One unit of work handed to the worker pool.
struct Job {
    seq: u64,
    line_no: u64,
    cell: Cell,
}

/// A structured per-cell failure: the error line's `kind` plus message.
struct CellError {
    kind: &'static str,
    message: String,
}

/// A tolerated fault worth a `{"type":"fault"}` line (and a telemetry
/// record): the cell still got its one response line.
struct FaultNote {
    domain: &'static str,
    kind: &'static str,
    detail: String,
}

/// Everything a worker produced for one cell.
struct CellOutput {
    key: String,
    line: String,
    from_cache: bool,
    error: Option<CellError>,
    faults: Vec<FaultNote>,
}

/// A completion or control event, tagged with its slot in the output
/// sequence.
enum Event {
    Cell {
        seq: u64,
        line_no: u64,
        out: CellOutput,
        wall: Duration,
    },
    Error {
        seq: u64,
        line_no: u64,
        message: String,
    },
    Epoch {
        seq: u64,
        line_no: u64,
        cells: u64,
    },
    Pong {
        seq: u64,
    },
    Stats {
        seq: u64,
    },
    Bye {
        seq: u64,
    },
}

impl Event {
    fn seq(&self) -> u64 {
        match self {
            Event::Cell { seq, .. }
            | Event::Error { seq, .. }
            | Event::Epoch { seq, .. }
            | Event::Pong { seq }
            | Event::Stats { seq }
            | Event::Bye { seq } => *seq,
        }
    }
}

fn wall_ms(wall: Duration) -> u64 {
    u64::try_from(wall.as_millis()).unwrap_or(u64::MAX)
}

fn totals_fields(t: &ServeTotals) -> String {
    format!(
        "\"lines\":{},\"cells\":{},\"cache_hits\":{},\"errors\":{},\"timeouts\":{},\"panics\":{},\"faults\":{}",
        t.lines, t.cells, t.cache_hits, t.errors, t.timeouts, t.panics, t.faults
    )
}

/// True for write failures that mean "the peer is gone" rather than "the
/// output device is broken".
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::WriteZero
            | io::ErrorKind::UnexpectedEof
    )
}

/// Shared state the worker loop needs per cell.
struct WorkerCtx<'a> {
    alone: &'a AloneCache,
    results: &'a ResultCache,
    cfg: &'a ServeConfig,
    /// Scheduler/mix classes demoted to the stepped loop after a
    /// self-check divergence (session-lifetime).
    demoted: &'a Mutex<HashSet<String>>,
}

/// The demotion granularity: one event-loop divergence demotes every
/// cell of the same scheduler × mix class.
fn cell_class(cell: &Cell) -> String {
    format!("{}|{}", cell.scheduler.token(), cell.mix.join("+"))
}

impl WorkerCtx<'_> {
    fn is_demoted(&self, cell: &Cell) -> bool {
        self.demoted
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&cell_class(cell))
    }

    /// Runs one cell under the full fault-tolerance envelope: panic
    /// isolation, timeout + one retry, and opt-in self-check sampling.
    /// Always produces exactly one [`CellOutput`].
    fn execute_cell(&self, cell: &Cell) -> CellOutput {
        let key = cell.key();
        let force_stepped = self.is_demoted(cell);
        let mut faults = Vec::new();
        let mut attempt: u32 = 0;
        loop {
            // The deadline starts *before* any injected delay: a slow
            // cell burns its own budget, exactly like a slow simulation.
            let token = self.cfg.cell_timeout.map(CancelToken::with_timeout);
            #[cfg(feature = "fault-inject")]
            self.injected_delay(&key, attempt);
            let run = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                self.injected_panic(&key, attempt);
                run_cell_cancellable(
                    cell,
                    self.alone,
                    self.results,
                    token.as_ref(),
                    force_stepped,
                )
            }));
            match run {
                Err(payload) => {
                    return CellOutput {
                        key,
                        line: String::new(),
                        from_cache: false,
                        error: Some(CellError {
                            kind: "panic",
                            message: format!("cell panicked: {}", panic_message(payload)),
                        }),
                        faults,
                    };
                }
                Ok(Err(message)) => {
                    return CellOutput {
                        key,
                        line: String::new(),
                        from_cache: false,
                        error: Some(CellError {
                            kind: "spec",
                            message,
                        }),
                        faults,
                    };
                }
                Ok(Ok(None)) => {
                    let budget_ms = wall_ms(self.cfg.cell_timeout.unwrap_or_default());
                    if attempt == 0 {
                        faults.push(FaultNote {
                            domain: "worker",
                            kind: "timeout_retry",
                            detail: format!(
                                "attempt 1 exceeded the {budget_ms}ms budget; retrying after {}ms",
                                wall_ms(self.cfg.retry_backoff)
                            ),
                        });
                        std::thread::sleep(self.cfg.retry_backoff);
                        attempt += 1;
                        continue;
                    }
                    return CellOutput {
                        key,
                        line: String::new(),
                        from_cache: false,
                        error: Some(CellError {
                            kind: "timeout",
                            message: format!("cell exceeded the {budget_ms}ms budget twice"),
                        }),
                        faults,
                    };
                }
                Ok(Ok(Some((line, _metrics, from_cache)))) => {
                    let mut out = CellOutput {
                        key,
                        line,
                        from_cache,
                        error: None,
                        faults,
                    };
                    if !from_cache && !force_stepped {
                        self.self_check(cell, &mut out);
                    }
                    return out;
                }
            }
        }
    }

    /// Re-runs a sampled fresh cell on the stepped oracle loop and
    /// compares transcripts. On divergence the oracle's line wins (it is
    /// the differential-test reference), the stored cache entry is
    /// corrected, and the cell's scheduler/mix class is demoted to the
    /// stepped loop for the rest of the session.
    fn self_check(&self, cell: &Cell, out: &mut CellOutput) {
        let Some(n) = self.cfg.self_check else { return };
        let sampled = u64::from_str_radix(&out.key, 16)
            .map(|v| v.is_multiple_of(n))
            .unwrap_or(false);
        if !sampled {
            return;
        }
        let Ok(experiment) = cell.to_experiment() else {
            return;
        };
        let experiment = experiment.fast_forward(false);
        let token = self.cfg.cell_timeout.map(CancelToken::with_timeout);
        let metrics = match &token {
            Some(t) => match experiment.run_cancellable(self.alone, t) {
                Some(m) => m,
                // The oracle ran out of budget: skip the check rather
                // than stall the pipeline further.
                None => return,
            },
            None => experiment.run_with_cache(self.alone),
        };
        let oracle_line = result_line(cell, &metrics);
        #[cfg(feature = "fault-inject")]
        let forced = self
            .cfg
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.self_check_lies(&out.key));
        #[cfg(not(feature = "fault-inject"))]
        let forced = false;
        if oracle_line != out.line || forced {
            let class = cell_class(cell);
            self.demoted
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(class.clone());
            out.faults.push(FaultNote {
                domain: "self_check",
                kind: "divergence",
                detail: format!("event loop diverged from stepped oracle; class {class} demoted"),
            });
            // The oracle is the reference: its line replaces the fast
            // path's in the cache and on the stream.
            self.results.store(&out.key, &oracle_line);
            out.line = oracle_line;
        }
    }

    #[cfg(feature = "fault-inject")]
    fn injected_delay(&self, key: &str, attempt: u32) {
        if let Some(plan) = &self.cfg.fault_plan {
            let ms = plan.slow_attempt_ms(key, attempt);
            if ms > 0 {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
    }

    #[cfg(feature = "fault-inject")]
    fn injected_panic(&self, key: &str, attempt: u32) {
        if attempt == 0
            && self
                .cfg
                .fault_plan
                .as_ref()
                .is_some_and(|p| p.should_panic(key))
        {
            panic!("injected worker panic for cell {key}");
        }
    }
}

/// Reads the input stream to completion (or `shutdown`), streaming
/// responses to `output`. Returns the session totals.
///
/// # Errors
///
/// Only output I/O failures are errors — and of those, a disconnecting
/// client (broken pipe & friends) is *not* one: the session drains,
/// records [`ServeTotals::disconnected`], and returns `Ok`. Malformed
/// input lines are reported in-band and never abort the session.
pub fn serve(
    input: impl BufRead + Send,
    mut output: impl Write,
    alone: &AloneCache,
    results: &ResultCache,
    cfg: &ServeConfig,
) -> io::Result<ServeTotals> {
    let workers = resolve_jobs(cfg.jobs);
    let queue_cap = (workers * 4).max(16);
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(queue_cap);
    let job_rx = Mutex::new(job_rx);
    let (event_tx, event_rx) = mpsc::channel::<Event>();
    let shutdown_flag = AtomicBool::new(false);
    // Set when the output stream fails: the reader stops consuming input
    // and workers drain the queue without simulating, so nothing blocks.
    let abort_flag = AtomicBool::new(false);
    let demoted: Mutex<HashSet<String>> = Mutex::new(HashSet::new());

    let mut totals = ServeTotals::default();
    let mut write_err: Option<io::Error> = None;
    // Best-effort fault telemetry; a log that cannot be opened degrades
    // to no log rather than refusing to serve.
    let mut fault_sink: Option<JsonLinesSink<BufWriter<File>>> = cfg
        .fault_log
        .as_ref()
        .and_then(|p| File::create(p).ok())
        .map(|f| JsonLinesSink::new(BufWriter::new(f)));

    std::thread::scope(|scope| {
        // Reader: input lines -> jobs + control events.
        let reader_tx = event_tx.clone();
        let shutdown = &shutdown_flag;
        let reader_abort = &abort_flag;
        scope.spawn(move || {
            let mut seq = 0u64;
            let next = |s: &mut u64| {
                let v = *s;
                *s += 1;
                v
            };
            for (idx, read) in input.lines().enumerate() {
                if reader_abort.load(Ordering::Relaxed) {
                    return;
                }
                let line_no = idx as u64 + 1;
                let Ok(raw) = read else { break };
                let trimmed = raw.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                if let Some(cmd) = control_command(trimmed) {
                    let event = match cmd.as_str() {
                        "shutdown" => {
                            shutdown.store(true, Ordering::Relaxed);
                            Event::Bye {
                                seq: next(&mut seq),
                            }
                        }
                        "ping" => Event::Pong {
                            seq: next(&mut seq),
                        },
                        "stats" => Event::Stats {
                            seq: next(&mut seq),
                        },
                        other => Event::Error {
                            seq: next(&mut seq),
                            line_no,
                            message: format!("unknown command '{other}'"),
                        },
                    };
                    let stop = matches!(event, Event::Bye { .. });
                    if reader_tx.send(event).is_err() || stop {
                        return;
                    }
                    continue;
                }
                match expand_line(trimmed) {
                    Ok(cells) => {
                        let count = cells.len() as u64;
                        for cell in cells {
                            let job = Job {
                                seq: next(&mut seq),
                                line_no,
                                cell,
                            };
                            if job_tx.send(job).is_err() {
                                return;
                            }
                        }
                        let epoch = Event::Epoch {
                            seq: next(&mut seq),
                            line_no,
                            cells: count,
                        };
                        if reader_tx.send(epoch).is_err() {
                            return;
                        }
                    }
                    Err(message) => {
                        let event = Event::Error {
                            seq: next(&mut seq),
                            line_no,
                            message,
                        };
                        if reader_tx.send(event).is_err() {
                            return;
                        }
                    }
                }
            }
            // EOF: implicit graceful shutdown.
            let _ = reader_tx.send(Event::Bye {
                seq: next(&mut seq),
            });
        });

        // Workers: jobs -> cell completions.
        for _ in 0..workers {
            let worker_tx = event_tx.clone();
            let job_rx = &job_rx;
            let worker_abort = &abort_flag;
            let ctx = WorkerCtx {
                alone,
                results,
                cfg,
                demoted: &demoted,
            };
            scope.spawn(move || loop {
                let job = {
                    let rx = job_rx.lock().unwrap_or_else(PoisonError::into_inner);
                    rx.recv()
                };
                let Ok(job) = job else { break };
                if worker_abort.load(Ordering::Relaxed) {
                    // Output already failed: drain without simulating so
                    // the reader's bounded send never wedges.
                    continue;
                }
                let start = Instant::now();
                let out = ctx.execute_cell(&job.cell);
                let event = Event::Cell {
                    seq: job.seq,
                    line_no: job.line_no,
                    out,
                    wall: start.elapsed(),
                };
                if worker_tx.send(event).is_err() {
                    // Emitter gone: keep draining rather than exiting so
                    // the job queue keeps moving.
                    continue;
                }
            });
        }
        drop(event_tx);

        // Emitter: reorder by sequence number, write in input order. A
        // disconnected client stops the *writes*, not the accounting:
        // events keep draining into totals so `bye`-style bookkeeping
        // stays exact.
        let mut pending: BTreeMap<u64, Event> = BTreeMap::new();
        let mut line_agg: HashMap<u64, (u64, Duration)> = HashMap::new();
        let mut next_seq = 0u64;
        'drain: for event in event_rx {
            pending.insert(event.seq(), event);
            while let Some(event) = pending.remove(&next_seq) {
                next_seq += 1;
                let rendered = render(event, &mut totals, &mut line_agg, &mut fault_sink);
                if totals.disconnected {
                    continue;
                }
                for out_line in rendered {
                    if let Err(e) = writeln!(output, "{out_line}").and_then(|()| output.flush()) {
                        abort_flag.store(true, Ordering::Relaxed);
                        if is_disconnect(&e) {
                            totals.disconnected = true;
                            record_fault(
                                &mut fault_sink,
                                "client",
                                "disconnect",
                                "",
                                &e.to_string(),
                            );
                            break;
                        }
                        write_err = Some(e);
                        break 'drain;
                    }
                }
            }
        }
    });

    if let Some(sink) = &mut fault_sink {
        let _ = sink.flush();
    }
    totals.shutdown_requested = shutdown_flag.load(Ordering::Relaxed);
    match write_err {
        Some(e) => Err(e),
        None => Ok(totals),
    }
}

/// Extracts the `cmd` value if the line is a control command.
fn control_command(line: &str) -> Option<String> {
    let v = json::parse(line).ok()?;
    Some(v.get("cmd")?.as_str().unwrap_or_default().to_string())
}

/// Mirrors one detected fault into the telemetry fault log, if open.
fn record_fault(
    sink: &mut Option<JsonLinesSink<BufWriter<File>>>,
    domain: &'static str,
    kind: &'static str,
    subject: &str,
    detail: &str,
) {
    if let Some(sink) = sink {
        sink.record(&TelemetryEvent::ServeFault {
            dram_cycle: stfm_dram::DramCycle::ZERO,
            domain,
            kind,
            subject: subject.to_string(),
            detail: detail.to_string(),
        });
    }
}

/// Renders one in-order event to zero or more output lines, updating
/// running totals and per-line aggregates.
fn render(
    event: Event,
    totals: &mut ServeTotals,
    line_agg: &mut HashMap<u64, (u64, Duration)>,
    fault_sink: &mut Option<JsonLinesSink<BufWriter<File>>>,
) -> Vec<String> {
    match event {
        Event::Cell {
            line_no, out, wall, ..
        } => {
            totals.cells += 1;
            totals.cache_hits += u64::from(out.from_cache);
            let agg = line_agg.entry(line_no).or_default();
            agg.0 += u64::from(out.from_cache);
            agg.1 += wall;
            let mut lines = Vec::with_capacity(1 + out.faults.len());
            // Fault lines first (a retry precedes the answer it enabled;
            // a divergence note precedes the corrected line it explains).
            for note in &out.faults {
                totals.faults += 1;
                record_fault(fault_sink, note.domain, note.kind, &out.key, &note.detail);
                lines.push(format!(
                    "{{\"type\":\"fault\",\"line\":{line_no},\"domain\":\"{}\",\"kind\":\"{}\",\"cell\":\"{}\",\"detail\":\"{}\"}}",
                    note.domain,
                    note.kind,
                    out.key,
                    escape(&note.detail)
                ));
            }
            match out.error {
                Some(err) => {
                    totals.errors += 1;
                    match err.kind {
                        "timeout" => totals.timeouts += 1,
                        "panic" => totals.panics += 1,
                        _ => {}
                    }
                    record_fault(fault_sink, "worker", err.kind, &out.key, &err.message);
                    lines.push(format!(
                        "{{\"type\":\"error\",\"line\":{line_no},\"kind\":\"{}\",\"cell\":\"{}\",\"error\":\"{}\"}}",
                        err.kind,
                        out.key,
                        escape(&err.message)
                    ));
                }
                None => lines.push(out.line),
            }
            lines
        }
        Event::Error {
            line_no, message, ..
        } => {
            totals.lines += 1;
            totals.errors += 1;
            vec![format!(
                "{{\"type\":\"error\",\"line\":{line_no},\"error\":\"{}\"}}",
                escape(&message)
            )]
        }
        Event::Epoch { line_no, cells, .. } => {
            totals.lines += 1;
            let (hits, wall) = line_agg.remove(&line_no).unwrap_or_default();
            vec![format!(
                "{{\"type\":\"epoch\",\"line\":{line_no},\"cells\":{cells},\"cache_hits\":{hits},\"wall_ms\":{}}}",
                wall_ms(wall)
            )]
        }
        Event::Pong { .. } => vec!["{\"type\":\"pong\"}".to_string()],
        Event::Stats { .. } => {
            vec![format!("{{\"type\":\"stats\",{}}}", totals_fields(totals))]
        }
        Event::Bye { .. } => vec![format!("{{\"type\":\"bye\",{}}}", totals_fields(totals))],
    }
}

/// Serves sequential connections from an already-bound listener until
/// one of them issues a `shutdown` command. Exposed separately from
/// [`serve_tcp`] so tests (and embedders) can bind to an ephemeral port
/// first and learn the address before serving.
///
/// Because a disconnecting client yields `Ok` with
/// [`ServeTotals::shutdown_requested`] preserved, a client that sends
/// `shutdown` and drops its connection still stops the listener promptly
/// instead of leaving it blocked in the next `accept`.
///
/// # Errors
///
/// Propagates accept failures; per-connection I/O errors only end that
/// connection.
pub fn serve_listener(
    listener: &TcpListener,
    alone: &AloneCache,
    results: &ResultCache,
    cfg: &ServeConfig,
) -> io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = BufReader::new(stream.try_clone()?);
        match serve(reader, stream, alone, results, cfg) {
            Ok(totals) if totals.shutdown_requested => break,
            Ok(_) | Err(_) => {}
        }
    }
    Ok(())
}

/// Serves sequential TCP connections on `addr` until one of them issues a
/// `shutdown` command. Each connection gets the full line protocol;
/// caches are shared across connections.
///
/// # Errors
///
/// Propagates bind/accept failures; per-connection I/O errors only end
/// that connection.
pub fn serve_tcp(
    addr: &str,
    alone: &AloneCache,
    results: &ResultCache,
    cfg: &ServeConfig,
) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    serve_listener(&listener, alone, results, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use std::io::Cursor;

    fn run(input: &str, jobs: Option<usize>) -> (Vec<String>, ServeTotals) {
        let alone = AloneCache::new();
        let results = ResultCache::in_memory();
        run_with(input, &ServeConfig::with_jobs(jobs), &alone, &results)
    }

    fn run_with(
        input: &str,
        cfg: &ServeConfig,
        alone: &AloneCache,
        results: &ResultCache,
    ) -> (Vec<String>, ServeTotals) {
        let mut out = Vec::new();
        let totals = serve(
            Cursor::new(input.to_string()),
            &mut out,
            alone,
            results,
            cfg,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_string).collect(), totals)
    }

    fn kind(line: &str) -> String {
        json::parse(line)
            .unwrap()
            .get("type")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn streams_results_then_epoch_then_bye() {
        let spec = r#"{"scheduler": ["fcfs", "stfm"], "mix": ["mcf", "hmmer"], "insts": 600}"#;
        let (lines, totals) = run(spec, Some(2));
        let kinds: Vec<_> = lines.iter().map(|l| kind(l)).collect();
        assert_eq!(kinds, ["result", "result", "epoch", "bye"]);
        assert_eq!(totals.lines, 1);
        assert_eq!(totals.cells, 2);
        assert_eq!(totals.errors, 0);
        assert!(!totals.shutdown_requested);
        assert!(!totals.disconnected);
    }

    #[test]
    fn malformed_lines_answer_in_band_and_never_crash() {
        let input = concat!(
            "{\"scheduler\": \"fcfs\", \"mix\": [\"mcf\"], \"insts\": 500}\n",
            "this is not json\n",
            "{\"scheduler\": \"warlock\", \"mix\": [\"mcf\"]}\n",
            "{\"scheduler\": \"fcfs\", \"mix\": [\"mcf\"], \"insts\": 500}\n",
        );
        let (lines, totals) = run(input, Some(2));
        let kinds: Vec<_> = lines.iter().map(|l| kind(l)).collect();
        assert_eq!(
            kinds,
            ["result", "epoch", "error", "error", "result", "epoch", "bye"]
        );
        assert_eq!(totals.errors, 2);
        assert_eq!(totals.lines, 4);
        // Error lines carry the offending 1-based input line number.
        let err = json::parse(&lines[2]).unwrap();
        assert_eq!(err.get("line").and_then(Value::as_u64), Some(2));
        let err = json::parse(&lines[3]).unwrap();
        assert_eq!(err.get("line").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn control_commands_answer_in_stream_order() {
        let input = concat!(
            "{\"cmd\": \"ping\"}\n",
            "{\"scheduler\": \"fcfs\", \"mix\": [\"mcf\"], \"insts\": 500}\n",
            "{\"cmd\": \"stats\"}\n",
            "{\"cmd\": \"shutdown\"}\n",
            "{\"scheduler\": \"fcfs\", \"mix\": [\"hmmer\"], \"insts\": 500}\n",
        );
        let (lines, totals) = run(input, Some(2));
        let kinds: Vec<_> = lines.iter().map(|l| kind(l)).collect();
        // The line after shutdown is never processed.
        assert_eq!(kinds, ["pong", "result", "epoch", "stats", "bye"]);
        assert!(totals.shutdown_requested);
        let stats = json::parse(&lines[3]).unwrap();
        assert_eq!(stats.get("cells").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn result_stream_is_identical_for_any_worker_count() {
        let input = concat!(
            "{\"scheduler\": \"all\", \"mix\": [\"mcf\", \"libquantum\"], \"insts\": 500}\n",
            "{\"scheduler\": \"stfm\", \"alpha\": [1.05, 1.2], \"mix\": \"case_study_mixed\", \"insts\": 400}\n",
        );
        let filter = |lines: Vec<String>| -> Vec<String> {
            lines.into_iter().filter(|l| kind(l) == "result").collect()
        };
        let (a, _) = run(input, Some(1));
        let (b, _) = run(input, Some(4));
        assert_eq!(filter(a), filter(b));
    }

    #[test]
    fn warm_cache_replays_identical_lines() {
        let input = "{\"scheduler\": [\"fcfs\", \"nfq\"], \"mix\": [\"mcf\"], \"insts\": 500}\n";
        let alone = AloneCache::new();
        let results = ResultCache::in_memory();
        let cfg = ServeConfig::with_jobs(Some(2));
        let (cold, t_cold) = run_with(input, &cfg, &alone, &results);
        let (warm, t_warm) = run_with(input, &cfg, &alone, &results);
        assert_eq!(t_cold.cache_hits, 0);
        assert_eq!(t_warm.cache_hits, 2);
        let only_results = |v: &[String]| -> Vec<String> {
            v.iter().filter(|l| kind(l) == "result").cloned().collect()
        };
        assert_eq!(only_results(&cold), only_results(&warm));
    }

    #[test]
    fn zero_timeout_times_out_every_cell_but_serves_on() {
        let input = concat!(
            "{\"scheduler\": \"fcfs\", \"mix\": [\"mcf\"], \"insts\": 500}\n",
            "{\"scheduler\": \"stfm\", \"mix\": [\"hmmer\"], \"insts\": 500}\n",
        );
        let alone = AloneCache::new();
        let results = ResultCache::in_memory();
        let cfg = ServeConfig::with_jobs(Some(2))
            .cell_timeout(Duration::ZERO)
            .retry_backoff(Duration::ZERO);
        let (lines, totals) = run_with(input, &cfg, &alone, &results);
        let kinds: Vec<_> = lines.iter().map(|l| kind(l)).collect();
        // Per cell: one retry fault note, then one timeout error line.
        assert_eq!(
            kinds,
            ["fault", "error", "epoch", "fault", "error", "epoch", "bye"]
        );
        assert_eq!(totals.cells, 2);
        assert_eq!(totals.errors, 2);
        assert_eq!(totals.timeouts, 2);
        assert_eq!(totals.faults, 2);
        for line in lines.iter().filter(|l| kind(l) == "error") {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("kind").and_then(Value::as_str), Some("timeout"));
            assert!(v.get("cell").is_some(), "timeout errors name the cell");
        }
        // Nothing half-finished may have been cached.
        assert!(results
            .lookup(
                &expand_line("{\"scheduler\": \"fcfs\", \"mix\": [\"mcf\"], \"insts\": 500}")
                    .unwrap()[0]
                    .key()
            )
            .is_none());
    }

    #[test]
    fn generous_timeout_is_transcript_identical_to_untimed() {
        let input = "{\"scheduler\": [\"fcfs\", \"stfm\"], \"mix\": [\"mcf\"], \"insts\": 500}\n";
        let (plain, t_plain) = run(input, Some(2));
        let alone = AloneCache::new();
        let results = ResultCache::in_memory();
        let cfg = ServeConfig::with_jobs(Some(2)).cell_timeout(Duration::from_secs(600));
        let (timed, t_timed) = run_with(input, &cfg, &alone, &results);
        let strip_epochs = |v: &[String]| -> Vec<String> {
            v.iter().filter(|l| kind(l) != "epoch").cloned().collect()
        };
        // Everything but epoch lines (wall-clock) is byte-identical.
        assert_eq!(strip_epochs(&plain), strip_epochs(&timed));
        assert_eq!(t_plain.cells, t_timed.cells);
        assert_eq!(t_timed.timeouts, 0);
        assert_eq!(t_timed.faults, 0);
    }

    #[test]
    fn self_check_clean_pass_is_transcript_identical() {
        let input = "{\"scheduler\": \"all\", \"mix\": [\"mcf\", \"hmmer\"], \"insts\": 500}\n";
        let (plain, _) = run(input, Some(2));
        let alone = AloneCache::new();
        let results = ResultCache::in_memory();
        // Check *every* fresh cell against the stepped oracle.
        let cfg = ServeConfig::with_jobs(Some(2)).self_check(1);
        let (checked, totals) = run_with(input, &cfg, &alone, &results);
        let strip_epochs = |v: &[String]| -> Vec<String> {
            v.iter().filter(|l| kind(l) != "epoch").cloned().collect()
        };
        assert_eq!(
            strip_epochs(&plain),
            strip_epochs(&checked),
            "event loop diverged from its oracle"
        );
        assert_eq!(totals.faults, 0);
    }

    /// A writer that fails like a vanished client after `ok_writes`
    /// successful writes.
    struct DroppingWriter {
        ok_writes: usize,
        written: Vec<u8>,
    }

    impl Write for DroppingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"));
            }
            self.ok_writes -= 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn client_disconnect_ends_session_gracefully() {
        let input = concat!(
            "{\"scheduler\": \"fcfs\", \"mix\": [\"mcf\"], \"insts\": 500}\n",
            "{\"scheduler\": \"stfm\", \"mix\": [\"hmmer\"], \"insts\": 500}\n",
            "{\"scheduler\": \"nfq\", \"mix\": [\"mcf\"], \"insts\": 500}\n",
        );
        let alone = AloneCache::new();
        let results = ResultCache::in_memory();
        let mut out = DroppingWriter {
            ok_writes: 1,
            written: Vec::new(),
        };
        let totals = serve(
            Cursor::new(input.to_string()),
            &mut out,
            &alone,
            &results,
            &ServeConfig::with_jobs(Some(2)),
        )
        .expect("disconnect must not surface as an error");
        assert!(totals.disconnected);
        assert!(totals.cells >= 1, "the first cell completed");
    }

    #[test]
    fn non_disconnect_write_errors_still_propagate() {
        struct BrokenDisk;
        impl Write for BrokenDisk {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let alone = AloneCache::new();
        let results = ResultCache::in_memory();
        let err = serve(
            Cursor::new("{\"cmd\": \"ping\"}\n".to_string()),
            BrokenDisk,
            &alone,
            &results,
            &ServeConfig::default(),
        )
        .expect_err("a broken output device is a real error");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn tcp_shutdown_from_disconnecting_client_stops_listener_promptly() {
        use std::net::TcpStream;
        use std::sync::mpsc;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("local addr");
        let (done_tx, done_rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            let alone = AloneCache::new();
            let results = ResultCache::in_memory();
            let r = serve_listener(&listener, &alone, &results, &ServeConfig::default());
            let _ = done_tx.send(r.is_ok());
        });
        {
            let mut client = TcpStream::connect(addr).expect("connect");
            client
                .write_all(b"{\"cmd\": \"shutdown\"}\n")
                .expect("send shutdown");
            // Drop without reading the bye: the server sees a broken
            // pipe on its reply, which must not mask the shutdown.
        }
        let ok = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("listener still blocked in accept after shutdown");
        assert!(ok);
        server.join().expect("server thread panicked");
    }
}
