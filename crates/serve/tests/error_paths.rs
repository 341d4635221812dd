//! Error containment at scale: a 1000-line spec with 3 malformed lines
//! must complete the other 997 cells and answer each bad line with a
//! structured error naming its 1-based input line number — no crash, no
//! abandoned work.

use std::io::Cursor;

use stfm_serve::{expand_line, serve, ResultCache, ServeConfig};
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
