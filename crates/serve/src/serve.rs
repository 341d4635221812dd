//! The long-running `stfm serve` loop.
//!
//! Reads JSONL spec lines from an input stream, runs their cells on the
//! shared ordered pool ([`stfm_sim::run_ordered`]), and streams one JSON
//! line per cell back in input order, followed by a per-line `epoch`
//! telemetry summary. Cells and the markers that need no work (`epoch`,
//! `pong`, `stats`, line errors, `bye`) share one sequence:
//!
//! * **feed** — an iterator that parses each input line and hands out
//!   its cells, then its `epoch` marker. A worker pulls from it only
//!   when it is free, so input is read no faster than it is worked on:
//!   backpressure reaches all the way back to the client's pipe.
//! * **workers** — run each cell (result-cache lookup, else simulate)
//!   inside the fault-tolerance envelope; markers pass straight through.
//! * **emit** (caller's thread) — receives the sequence in input order,
//!   so the output stream is byte-identical for any `--jobs`.
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

use std::collections::{HashSet, VecDeque};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use stfm_sim::{run_ordered, AloneCache, CancelToken, WorkloadMetrics};
use stfm_telemetry::{Event as TelemetryEvent, JsonLinesSink, Sink};

use crate::cache::ResultCache;
use crate::json::{self, escape};
use crate::result::result_line;
use crate::runner::run_cell_cancellable;
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

/// A tolerated fault worth a `{"type":"fault"}` line (and a telemetry
/// record): the cell still got its one response line.
struct FaultNote {
    domain: &'static str,
    kind: &'static str,
    detail: String,
}

/// Everything the envelope produced for one cell.
pub(crate) struct CellOutput {
    pub(crate) key: String,
    /// The result line, its metrics and whether the cache answered; or
    /// the error line's `kind` and message.
    pub(crate) result: Result<(String, WorkloadMetrics, bool), (&'static str, String)>,
    faults: Vec<FaultNote>,
    /// Wall-clock time spent on the cell, retries and checks included.
    pub(crate) wall: Duration,
}

/// One slot of the output sequence once its work is done: a completed
/// cell, or a marker answered in stream order.
enum Event {
    Cell { line_no: u64, out: CellOutput },
    Error { line_no: u64, message: String },
    Epoch { line_no: u64, cells: u64 },
    Pong,
    Stats,
    Bye,
}

/// One slot of the output sequence as the feed hands it out: a cell
/// still to run, or a marker that needs no work.
enum Slot {
    Cell { line_no: u64, cell: Cell },
    Marker(Event),
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

/// Renders a caught panic payload as a one-line message (panics carry
/// `&str` or `String` in practice; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// The fault-tolerance envelope every cell runs in, shared by all the
/// workers of one `serve` session or one `run_sweep`.
pub(crate) struct CellRunner<'a> {
    alone: &'a AloneCache,
    results: &'a ResultCache,
    cfg: &'a ServeConfig,
    /// Scheduler/mix classes demoted to the stepped loop after a
    /// self-check divergence (session-lifetime).
    demoted: Mutex<HashSet<String>>,
}

/// The demotion granularity: one event-loop divergence demotes every
/// cell of the same scheduler × mix class.
fn cell_class(cell: &Cell) -> String {
    format!("{}|{}", cell.scheduler.token(), cell.mix.join("+"))
}

impl<'a> CellRunner<'a> {
    pub(crate) fn new(
        alone: &'a AloneCache,
        results: &'a ResultCache,
        cfg: &'a ServeConfig,
    ) -> Self {
        CellRunner {
            alone,
            results,
            cfg,
            demoted: Mutex::new(HashSet::new()),
        }
    }

    fn demoted(&self) -> MutexGuard<'_, HashSet<String>> {
        self.demoted.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one cell under the full fault-tolerance envelope: panic
    /// isolation, timeout + one retry, and opt-in self-check sampling.
    /// Always produces exactly one [`CellOutput`].
    pub(crate) fn execute_cell(&self, cell: &Cell) -> CellOutput {
        // Reported as latency only (the `epoch` line's `wall_ms`, `stfm
        // sweep`'s progress on stderr); never in a result line or a cache.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let key = cell.key();
        let force_stepped = self.demoted().contains(&cell_class(cell));
        let mut faults = Vec::new();
        let mut attempt: u32 = 0;
        let mut result = loop {
            // The deadline starts *before* any injected delay: a slow
            // cell burns its own budget, exactly like a slow simulation.
            let token = self.cfg.cell_timeout.map(CancelToken::with_timeout);
            #[cfg(feature = "fault-inject")]
            self.injected_delay(&key, attempt);
            // A panicking cell (a simulator invariant violation on some
            // exotic input) must not take the session or the sweep down:
            // it is reported like any other per-cell error.
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
            let error = match run {
                Ok(Ok(Some(done))) => break Ok(done),
                Err(payload) => (
                    "panic",
                    format!("cell panicked: {}", panic_message(payload)),
                ),
                Ok(Err(message)) => ("spec", message),
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
                    (
                        "timeout",
                        format!("cell exceeded the {budget_ms}ms budget twice"),
                    )
                }
            };
            break Err(error);
        };
        if let (Ok((line, metrics, false)), false) = (&mut result, force_stepped) {
            faults.extend(self.self_check(cell, &key, line, metrics));
        }
        CellOutput {
            key,
            result,
            faults,
            wall: start.elapsed(),
        }
    }

    /// Re-runs a sampled fresh cell on the stepped oracle loop and
    /// compares transcripts. On divergence the oracle's line wins (it is
    /// the differential-test reference), the stored cache entry is
    /// corrected, the cell's scheduler/mix class is demoted to the
    /// stepped loop for the rest of the session, and the note to emit is
    /// returned.
    fn self_check(
        &self,
        cell: &Cell,
        key: &str,
        line: &mut String,
        metrics: &mut WorkloadMetrics,
    ) -> Option<FaultNote> {
        let n = self.cfg.self_check?;
        let sampled = u64::from_str_radix(key, 16)
            .map(|v| v.is_multiple_of(n))
            .unwrap_or(false);
        if !sampled {
            return None;
        }
        let experiment = cell.to_experiment().ok()?.fast_forward(false);
        let token = self.cfg.cell_timeout.map(CancelToken::with_timeout);
        let oracle = match &token {
            // An oracle that runs out of budget skips the check rather
            // than stall the pipeline further.
            Some(t) => experiment.run_cancellable(self.alone, t)?,
            None => experiment.run_with_cache(self.alone),
        };
        let oracle_line = result_line(cell, &oracle);
        #[cfg(feature = "fault-inject")]
        let forced = self
            .cfg
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.self_check_lies(key));
        #[cfg(not(feature = "fault-inject"))]
        let forced = false;
        if oracle_line == *line && !forced {
            return None;
        }
        let class = cell_class(cell);
        self.demoted().insert(class.clone());
        // The oracle is the reference: its line replaces the fast
        // path's in the cache and on the stream.
        self.results.store(key, &oracle_line);
        *line = oracle_line;
        *metrics = oracle;
        Some(FaultNote {
            domain: "self_check",
            kind: "divergence",
            detail: format!("event loop diverged from stepped oracle; class {class} demoted"),
        })
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

/// The input side of a session: parses input lines into the slots of the
/// output sequence. A spec line's cells and then its `epoch` marker are
/// handed out before the next input line is read, so a client that waits
/// for a line's `epoch` before sending the next never waits on a server
/// that is waiting on it.
struct Feed<R> {
    lines: std::iter::Enumerate<io::Lines<R>>,
    /// The current spec line's slots not yet handed out.
    queued: VecDeque<Slot>,
    /// Set at end of input, on a read failure and by `shutdown`: nothing
    /// further is read.
    done: bool,
    shutdown_requested: bool,
}

impl<R: BufRead> Iterator for Feed<R> {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        loop {
            if let Some(slot) = self.queued.pop_front() {
                return Some(slot);
            }
            if self.done {
                return None;
            }
            let Some((idx, Ok(raw))) = self.lines.next() else {
                // EOF: implicit graceful shutdown.
                self.done = true;
                return Some(Slot::Marker(Event::Bye));
            };
            let line_no = idx as u64 + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let marker = match control_command(trimmed).as_deref() {
                Some("shutdown") => {
                    self.done = true;
                    self.shutdown_requested = true;
                    Event::Bye
                }
                Some("ping") => Event::Pong,
                Some("stats") => Event::Stats,
                Some(other) => Event::Error {
                    line_no,
                    message: format!("unknown command '{other}'"),
                },
                None => match expand_line(trimmed) {
                    Ok(cells) => {
                        let count = cells.len() as u64;
                        self.queued
                            .extend(cells.into_iter().map(|cell| Slot::Cell { line_no, cell }));
                        Event::Epoch {
                            line_no,
                            cells: count,
                        }
                    }
                    Err(message) => Event::Error { line_no, message },
                },
            };
            self.queued.push_back(Slot::Marker(marker));
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
    let runner = CellRunner::new(alone, results, cfg);
    let mut feed = Feed {
        lines: input.lines().enumerate(),
        queued: VecDeque::new(),
        done: false,
        shutdown_requested: false,
    };
    let mut totals = ServeTotals::default();
    let mut write_err: Option<io::Error> = None;
    let mut line_agg = (0u64, Duration::ZERO);
    // Best-effort fault telemetry; a log that cannot be opened degrades
    // to no log rather than refusing to serve.
    let mut fault_sink: Option<JsonLinesSink<BufWriter<File>>> = cfg
        .fault_log
        .as_ref()
        .and_then(|p| File::create(p).ok())
        .map(|f| JsonLinesSink::new(BufWriter::new(f)));

    run_ordered(
        &mut feed,
        cfg.jobs,
        |slot| match slot {
            Slot::Cell { line_no, cell } => Event::Cell {
                line_no,
                out: runner.execute_cell(&cell),
            },
            Slot::Marker(event) => event,
        },
        // A failed write stops the feed and the *writes*, not the
        // accounting: events already in flight still drain into totals, so
        // a disconnected client's `bye`-style bookkeeping stays exact.
        |event| {
            let rendered = render(event, &mut totals, &mut line_agg, &mut fault_sink);
            if totals.disconnected || write_err.is_some() {
                return ControlFlow::Break(());
            }
            for out_line in rendered {
                let Err(e) = writeln!(output, "{out_line}").and_then(|()| output.flush()) else {
                    continue;
                };
                if is_disconnect(&e) {
                    totals.disconnected = true;
                    record_fault(&mut fault_sink, "client", "disconnect", "", &e.to_string());
                } else {
                    write_err = Some(e);
                }
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        },
    );

    if let Some(sink) = &mut fault_sink {
        let _ = sink.flush();
    }
    totals.shutdown_requested = feed.shutdown_requested;
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
/// running totals and `line_agg`, the cache hits and wall time of the
/// current line's cells (events arrive in input order, so a line's cells
/// are exactly those since the previous `epoch`).
fn render(
    event: Event,
    totals: &mut ServeTotals,
    line_agg: &mut (u64, Duration),
    fault_sink: &mut Option<JsonLinesSink<BufWriter<File>>>,
) -> Vec<String> {
    match event {
        Event::Cell { line_no, out } => {
            let from_cache = matches!(out.result, Ok((_, _, true)));
            totals.cells += 1;
            totals.cache_hits += u64::from(from_cache);
            line_agg.0 += u64::from(from_cache);
            line_agg.1 += out.wall;
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
            match out.result {
                Err((kind, message)) => {
                    totals.errors += 1;
                    match kind {
                        "timeout" => totals.timeouts += 1,
                        "panic" => totals.panics += 1,
                        _ => {}
                    }
                    record_fault(fault_sink, "worker", kind, &out.key, &message);
                    lines.push(format!(
                        "{{\"type\":\"error\",\"line\":{line_no},\"kind\":\"{}\",\"cell\":\"{}\",\"error\":\"{}\"}}",
                        kind,
                        out.key,
                        escape(&message)
                    ));
                }
                Ok((line, ..)) => lines.push(line),
            }
            lines
        }
        Event::Error { line_no, message } => {
            totals.lines += 1;
            totals.errors += 1;
            vec![format!(
                "{{\"type\":\"error\",\"line\":{line_no},\"error\":\"{}\"}}",
                escape(&message)
            )]
        }
        Event::Epoch { line_no, cells } => {
            totals.lines += 1;
            let (hits, wall) = std::mem::take(line_agg);
            vec![format!(
                "{{\"type\":\"epoch\",\"line\":{line_no},\"cells\":{cells},\"cache_hits\":{hits},\"wall_ms\":{}}}",
                wall_ms(wall)
            )]
        }
        Event::Pong => vec!["{\"type\":\"pong\"}".to_string()],
        Event::Stats => {
            vec![format!("{{\"type\":\"stats\",{}}}", totals_fields(totals))]
        }
        Event::Bye => vec![format!("{{\"type\":\"bye\",{}}}", totals_fields(totals))],
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
    fn deeply_nested_line_is_an_error_not_a_stack_overflow() {
        let good = "{\"scheduler\": \"fcfs\", \"mix\": [\"mcf\"], \"insts\": 500}";
        let input = format!("{}\n{good}\n", "[".repeat(200_000));
        let (lines, totals) = run(&input, Some(1));
        let kinds: Vec<_> = lines.iter().map(|l| kind(l)).collect();
        assert_eq!(kinds, ["error", "result", "epoch", "bye"]);
        assert!(lines[0].contains("nesting"), "{}", lines[0]);
        assert_eq!(totals.errors, 1);
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
