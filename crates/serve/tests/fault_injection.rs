//! The fault-injection resilience suite (PR 8 tentpole harness).
//!
//! Drives the serve loop through seeded [`FaultPlan`]s — worker panics,
//! slow cells, cache write failures, poisoned cache entries and
//! mid-stream client disconnects — and asserts the service
//! contract under fire: the session never errors out, every accepted
//! cell gets exactly one response line, totals are exact, and the
//! `"type":"result"` transcript of *unaffected* cells is byte-identical
//! to an uninjected run at any worker count.
//!
//! Fault decisions are pure per-key hashes (see `fault.rs`), so each
//! test first mirrors the plan over the expanded cell list to compute
//! the exact expected strike set, then checks the observed stream
//! against it — no tolerance windows, no flakiness.

#![cfg(feature = "fault-inject")]

use std::collections::HashSet;
use std::io::{self, Cursor, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use stfm_serve::json::{self, Value};
use stfm_serve::{expand_line, serve, Cell, FaultPlan, ResultCache, ServeConfig};
use stfm_sim::AloneCache;

/// A spec whose lines expand to 12 distinct cells across four
/// scheduler/mix classes — enough surface for 1-in-N plans to strike
/// some cells of most classes while leaving others untouched.
const SPEC: &str = concat!(
    "{\"scheduler\": [\"fcfs\", \"frfcfs\", \"stfm\"], \"mix\": [\"mcf\"], \"seed\": [1, 2], \"insts\": 400}\n",
    "{\"scheduler\": [\"nfq\", \"stfm\"], \"mix\": [\"hmmer\", \"libquantum\"], \"insts\": 400}\n",
    "{\"scheduler\": \"stfm\", \"mix\": [\"mcf\", \"hmmer\"], \"seed\": [1, 2], \"insts\": 500}\n",
);

fn spec_cells() -> Vec<Cell> {
    SPEC.lines()
        .flat_map(|l| expand_line(l).unwrap_or_else(|e| panic!("bad spec line: {e}")))
        .collect()
}

/// Silences the default panic printout for *injected* panics so the
/// suite's output stays readable; real panics still print.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected worker panic"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn run_serve(
    input: &str,
    cfg: &ServeConfig,
    results: &ResultCache,
) -> (Vec<String>, stfm_serve::ServeTotals) {
    let alone = AloneCache::new();
    let mut out = Vec::new();
    let totals = serve(
        Cursor::new(input.to_string()),
        &mut out,
        &alone,
        results,
        cfg,
    )
    .unwrap_or_else(|e| panic!("serve must never error out under injection: {e}"));
    let text = String::from_utf8(out).unwrap_or_else(|e| panic!("non-UTF-8 output: {e}"));
    (text.lines().map(str::to_string).collect(), totals)
}

fn field(line: &str, key: &str) -> Option<String> {
    json::parse(line)
        .ok()?
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
}

fn line_type(line: &str) -> String {
    field(line, "type").unwrap_or_default()
}

/// The per-cell response lines, in stream order: a `result` line or an
/// `error` line that names its cell (line-level spec errors carry no
/// `cell` field and are excluded).
fn cell_responses(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| match line_type(l).as_str() {
            "result" => true,
            "error" => field(l, "cell").is_some(),
            _ => false,
        })
        .cloned()
        .collect()
}

fn result_lines(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| line_type(l) == "result")
        .cloned()
        .collect()
}

#[test]
fn panic_storm_answers_every_cell_and_stays_up() {
    quiet_injected_panics();
    let plan = FaultPlan {
        panic_1_in: 3,
        ..FaultPlan::new(11)
    };
    let cells = spec_cells();
    let panicked: HashSet<String> = cells
        .iter()
        .map(Cell::key)
        .filter(|k| plan.should_panic(k))
        .collect();
    // The chosen seed strikes some cells and spares others; if this
    // fails after a spec change, pick a new seed.
    assert!(!panicked.is_empty(), "seed strikes no cell");
    assert!(panicked.len() < cells.len(), "seed strikes every cell");

    let (clean, _) = run_serve(
        SPEC,
        &ServeConfig::with_jobs(Some(2)),
        &ResultCache::in_memory(),
    );
    let clean_results = result_lines(&clean);
    assert_eq!(clean_results.len(), cells.len());

    for jobs in [1, 4] {
        let mut cfg = ServeConfig::with_jobs(Some(jobs));
        cfg.fault_plan = Some(Arc::new(plan.clone()));
        let (lines, totals) = run_serve(SPEC, &cfg, &ResultCache::in_memory());
        let responses = cell_responses(&lines);
        assert_eq!(
            responses.len(),
            cells.len(),
            "jobs={jobs}: exactly one response line per accepted cell"
        );
        for (i, (cell, response)) in cells.iter().zip(&responses).enumerate() {
            let key = cell.key();
            if panicked.contains(&key) {
                assert_eq!(line_type(response), "error", "jobs={jobs} cell {i}");
                assert_eq!(field(response, "kind").as_deref(), Some("panic"));
                assert_eq!(field(response, "cell").as_deref(), Some(key.as_str()));
            } else {
                assert_eq!(
                    response, &clean_results[i],
                    "jobs={jobs}: unaffected cell {i} must match the clean run byte-for-byte"
                );
            }
        }
        assert_eq!(totals.cells, cells.len() as u64);
        assert_eq!(totals.panics, panicked.len() as u64);
        assert_eq!(totals.errors, panicked.len() as u64);
        assert!(lines.last().is_some_and(|l| line_type(l) == "bye"));
    }
}

#[test]
fn slow_first_attempt_recovers_through_the_bounded_retry() {
    let spec = "{\"scheduler\": \"fcfs\", \"mix\": [\"mcf\"], \"insts\": 400}\n";
    let (clean, _) = run_serve(spec, &ServeConfig::default(), &ResultCache::in_memory());

    let mut cfg = ServeConfig::with_jobs(Some(1)).cell_timeout(Duration::from_millis(400));
    cfg.fault_plan = Some(Arc::new(FaultPlan {
        slow_once_1_in: 1,
        slow_ms: 900,
        ..FaultPlan::new(5)
    }));
    let (lines, totals) = run_serve(spec, &cfg, &ResultCache::in_memory());
    let kinds: Vec<String> = lines.iter().map(|l| line_type(l)).collect();
    assert_eq!(kinds, ["fault", "result", "epoch", "bye"]);
    assert_eq!(field(&lines[0], "kind").as_deref(), Some("timeout_retry"));
    // The recovered result is the clean run's line, byte for byte.
    assert_eq!(result_lines(&lines), result_lines(&clean));
    assert_eq!(totals.faults, 1);
    assert_eq!(totals.timeouts, 0);
    assert_eq!(totals.errors, 0);
}

#[test]
fn persistently_slow_cell_times_out_after_its_retry() {
    let spec = "{\"scheduler\": \"stfm\", \"mix\": [\"hmmer\"], \"insts\": 400}\n";
    let mut cfg = ServeConfig::with_jobs(Some(1)).cell_timeout(Duration::from_millis(300));
    cfg.fault_plan = Some(Arc::new(FaultPlan {
        slow_always_1_in: 1,
        slow_ms: 700,
        ..FaultPlan::new(5)
    }));
    let results = ResultCache::in_memory();
    let (lines, totals) = run_serve(spec, &cfg, &results);
    let kinds: Vec<String> = lines.iter().map(|l| line_type(l)).collect();
    assert_eq!(kinds, ["fault", "error", "epoch", "bye"]);
    assert_eq!(field(&lines[1], "kind").as_deref(), Some("timeout"));
    assert_eq!(totals.timeouts, 1);
    assert_eq!(totals.faults, 1);
    // A timed-out cell must not have cached a half-finished line.
    let key = expand_line(spec.trim()).unwrap()[0].key();
    assert!(results.lookup(&key).is_none());
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stfm-fault-inject-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn dropped_cache_writes_degrade_to_misses_after_restart() {
    let plan = FaultPlan {
        cache_write_fail_1_in: 3,
        ..FaultPlan::new(11)
    };
    let cells = spec_cells();
    let dropped: HashSet<String> = cells
        .iter()
        .map(Cell::key)
        .filter(|k| plan.fails_cache_write(k))
        .collect();
    assert!(!dropped.is_empty() && dropped.len() < cells.len());

    let dir = scratch_dir("dropwrite");
    let (clean, _) = run_serve(
        SPEC,
        &ServeConfig::with_jobs(Some(2)),
        &ResultCache::in_memory(),
    );
    {
        let results = ResultCache::with_dir(&dir).unwrap_or_else(|e| panic!("cache dir: {e}"));
        let hook_plan = plan.clone();
        results.set_write_fault(move |key| hook_plan.fails_cache_write(key));
        let (lines, totals) = run_serve(SPEC, &ServeConfig::with_jobs(Some(4)), &results);
        // Dropped disk writes are invisible to the session itself: the
        // memo tier still answers, so the transcript is fully clean.
        assert_eq!(result_lines(&lines), result_lines(&clean));
        assert_eq!(totals.errors, 0);
    }
    // After a "restart" (fresh cache over the same directory), exactly
    // the dropped keys are misses; everything else replays from disk.
    let results = ResultCache::with_dir(&dir).unwrap_or_else(|e| panic!("cache dir: {e}"));
    for cell in &cells {
        let key = cell.key();
        assert_eq!(
            results.lookup(&key).is_none(),
            dropped.contains(&key),
            "cell {key}: persistence must fail exactly where injected"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_cache_entries_quarantine_and_rerun_identically() {
    let dir = scratch_dir("poison");
    let (clean, _) = {
        let results = ResultCache::with_dir(&dir).unwrap_or_else(|e| panic!("cache dir: {e}"));
        run_serve(SPEC, &ServeConfig::with_jobs(Some(2)), &results)
    };
    // Poison every third persisted entry: truncate one, garbage the
    // next, empty the one after.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read cache dir: {e}"))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), spec_cells().len());
    let mut poisoned = 0u64;
    for (i, path) in entries.iter().enumerate() {
        match i % 3 {
            0 => {
                let raw = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{e}"));
                std::fs::write(path, &raw[..raw.len() / 2]).unwrap_or_else(|e| panic!("{e}"));
            }
            1 => std::fs::write(path, "not json at all").unwrap_or_else(|e| panic!("{e}")),
            _ => continue,
        }
        poisoned += 1;
    }
    // A fresh service over the poisoned directory quarantines the bad
    // entries, re-simulates them, and streams the identical transcript.
    let results = ResultCache::with_dir(&dir).unwrap_or_else(|e| panic!("cache dir: {e}"));
    let (lines, totals) = run_serve(SPEC, &ServeConfig::with_jobs(Some(4)), &results);
    assert_eq!(result_lines(&lines), result_lines(&clean));
    assert_eq!(totals.errors, 0);
    assert_eq!(results.quarantined_count(), poisoned);
    let bad_files = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{e}"))
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "bad"))
        .count() as u64;
    assert_eq!(bad_files, poisoned);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer that starts failing like a vanished client partway through.
struct DroppingWriter {
    ok_writes: usize,
}

impl Write for DroppingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.ok_writes == 0 {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"));
        }
        self.ok_writes -= 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn disconnect_during_a_panic_storm_still_ends_cleanly() {
    quiet_injected_panics();
    let mut cfg = ServeConfig::with_jobs(Some(2));
    cfg.fault_plan = Some(Arc::new(FaultPlan {
        panic_1_in: 2,
        ..FaultPlan::new(11)
    }));
    let alone = AloneCache::new();
    let results = ResultCache::in_memory();
    let totals = serve(
        Cursor::new(SPEC.to_string()),
        DroppingWriter { ok_writes: 2 },
        &alone,
        &results,
        &cfg,
    )
    .unwrap_or_else(|e| panic!("disconnect under injection must still be Ok: {e}"));
    assert!(totals.disconnected);
    // In-flight work still drains into the totals (the reader stops
    // consuming *new* input once the peer is gone, so the count is
    // bounded by the full spec rather than equal to it).
    assert!(totals.cells >= 1);
    assert!(totals.cells <= spec_cells().len() as u64);
}
