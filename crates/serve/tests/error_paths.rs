//! Error containment at scale: a 1000-line spec with 3 malformed lines
//! must complete the other 997 cells and answer each bad line with a
//! structured error naming its 1-based input line number — no crash, no
//! abandoned work.

use std::io::Cursor;
use std::path::Path;
use std::time::Duration;

use stfm_serve::{expand_line, json, serve, ResultCache, ServeConfig, ServeTotals};
use stfm_sim::AloneCache;

const BAD_LINES: [usize; 3] = [17, 500, 999];

/// 1000 lines: three malformed (unparseable JSON, unknown scheduler,
/// unknown benchmark), the rest small single-cell specs. The good lines
/// alternate over two cells so the run exercises both fresh computation
/// and memoized replay.
fn thousand_line_spec() -> String {
    let good = [
        "{\"scheduler\": \"fcfs\", \"mix\": [\"mcf\"], \"insts\": 400}",
        "{\"scheduler\": \"nfq\", \"mix\": [\"hmmer\"], \"insts\": 400}",
    ];
    let bad = [
        "{not even json",
        "{\"scheduler\": \"warlock\", \"mix\": [\"mcf\"]}",
        "{\"scheduler\": \"stfm\", \"mix\": [\"nosuchbench\"]}",
    ];
    let mut out = String::new();
    let mut bad_idx = 0;
    for line_no in 1..=1000usize {
        if BAD_LINES.contains(&line_no) {
            out.push_str(bad[bad_idx]);
            bad_idx += 1;
        } else {
            out.push_str(good[line_no % 2]);
        }
        out.push('\n');
    }
    out
}

#[test]
fn serve_completes_997_cells_around_3_bad_lines() {
    let spec = thousand_line_spec();
    let alone = AloneCache::new();
    let results = ResultCache::in_memory();
    let mut out = Vec::new();
    let cfg = ServeConfig::with_jobs(Some(4));
    let totals = serve(Cursor::new(spec), &mut out, &alone, &results, &cfg)
        .unwrap_or_else(|e| panic!("serve failed: {e}"));

    assert_eq!(totals.lines, 1000);
    assert_eq!(totals.cells, 997);
    assert_eq!(totals.errors, 3);
    assert!(!totals.shutdown_requested);

    let text = String::from_utf8(out).unwrap_or_else(|e| panic!("non-UTF-8 output: {e}"));
    let result_count = text
        .lines()
        .filter(|l| l.contains("\"type\":\"result\""))
        .count();
    assert_eq!(result_count, 997);

    // Each error line reports the offending input line number.
    let error_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"type\":\"error\""))
        .collect();
    assert_eq!(error_lines.len(), 3);
    for (err, expected_no) in error_lines.iter().zip(BAD_LINES) {
        assert!(
            err.contains(&format!("\"line\":{expected_no},")),
            "error line {err:?} should name input line {expected_no}"
        );
    }

    // The stream ends with a graceful bye that holds the totals.
    let last = text.lines().last().unwrap_or_default();
    assert!(
        last.contains("\"type\":\"bye\""),
        "missing bye line: {last:?}"
    );
    assert!(last.contains("\"cells\":997"));
    assert!(last.contains("\"errors\":3"));
}

#[test]
fn sweep_style_expansion_skips_bad_lines_and_keeps_the_rest() {
    let spec = thousand_line_spec();
    let mut cells = 0usize;
    let mut errors = Vec::new();
    for (idx, line) in spec.lines().enumerate() {
        match expand_line(line) {
            Ok(batch) => cells += batch.len(),
            Err(e) => errors.push((idx + 1, e)),
        }
    }
    assert_eq!(cells, 997);
    let error_numbers: Vec<usize> = errors.iter().map(|(n, _)| *n).collect();
    assert_eq!(error_numbers, BAD_LINES);
    // Every error carries a human-readable reason.
    for (_, message) in &errors {
        assert!(!message.is_empty());
    }
}

/// Two cells that cannot finish in a zero budget: each times out, is
/// retried once, and times out again.
const SLOW_SPEC: &str =
    "{\"scheduler\": [\"fcfs\", \"stfm\"], \"mix\": [\"mcf\"], \"insts\": 5000000}\n";

/// Serves [`SLOW_SPEC`] under a zero-ms budget with the fault log at
/// `log`; returns the output lines and the totals.
fn serve_timeouts(log: &Path) -> (Vec<String>, ServeTotals) {
    let cfg = ServeConfig::with_jobs(Some(2))
        .cell_timeout(Duration::ZERO)
        .retry_backoff(Duration::ZERO)
        .fault_log(log);
    let mut out = Vec::new();
    let (alone, results) = (AloneCache::new(), ResultCache::in_memory());
    let totals = serve(Cursor::new(SLOW_SPEC), &mut out, &alone, &results, &cfg)
        .unwrap_or_else(|e| panic!("serve failed: {e}"));
    let text = String::from_utf8(out).unwrap_or_else(|e| panic!("non-UTF-8 output: {e}"));
    (text.lines().map(String::from).collect(), totals)
}

/// `--fault-log`: every detected fault lands in the log as one
/// `serve_fault` record that parses as JSON — per timed-out cell exactly
/// a `timeout_retry` and a `timeout`.
#[test]
fn the_fault_log_records_each_timeout_and_its_retry() {
    let log = std::env::temp_dir().join(format!("stfm-fault-log-{}.jsonl", std::process::id()));
    let (lines, totals) = serve_timeouts(&log);
    assert_eq!((totals.cells, totals.timeouts), (2, 2), "{lines:?}");
    let records = std::fs::read_to_string(&log).unwrap_or_else(|e| panic!("no fault log: {e}"));
    let _ = std::fs::remove_file(&log);
    let mut kinds: Vec<String> = records
        .lines()
        .map(|r| {
            let v = json::parse(r).unwrap_or_else(|e| panic!("{r}: {e}"));
            let field = |k: &str| v.get(k).and_then(|x| x.as_str()).map(String::from);
            assert_eq!(field("event").as_deref(), Some("serve_fault"), "{r}");
            field("kind").unwrap_or_default()
        })
        .collect();
    kinds.sort();
    assert_eq!(
        kinds,
        ["timeout", "timeout", "timeout_retry", "timeout_retry"]
    );
}

/// A fault log that cannot be created — here the path is a directory —
/// costs the log, never the session: every cell is still answered.
#[test]
fn an_unwritable_fault_log_still_serves_every_cell() {
    let (lines, totals) = serve_timeouts(&std::env::temp_dir());
    assert_eq!((totals.cells, totals.timeouts), (2, 2), "{lines:?}");
    let errors = lines.iter().filter(|l| l.contains("\"kind\":\"timeout\""));
    assert_eq!(errors.count(), 2, "{lines:?}");
    assert!(lines.last().is_some_and(|l| l.contains("\"type\":\"bye\"")));
}
