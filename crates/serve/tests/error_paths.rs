//! Error containment at scale: a 1000-line spec with 3 malformed lines
//! must complete the other 997 cells and answer each bad line with a
//! structured error naming its 1-based input line number — no crash, no
//! abandoned work.

use std::io::Cursor;

use stfm_serve::{expand_line, json, serve, ResultCache, ServeConfig};
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

/// A line that is not UTF-8 is a malformed line like any other: it is
/// answered with an error naming its line number, and the lines after it
/// are still read and answered.
#[test]
fn a_line_that_is_not_utf8_is_answered_and_the_session_reads_on() {
    let input = b"{\"cmd\":\"ping\"}\n\xff\xfe bad\n{\"cmd\":\"ping\"}\n{\"cmd\":\"stats\"}\n";
    let (alone, results) = (AloneCache::new(), ResultCache::in_memory());
    let mut out = Vec::new();
    let cfg = ServeConfig::with_jobs(Some(1));
    let totals = serve(Cursor::new(&input[..]), &mut out, &alone, &results, &cfg)
        .unwrap_or_else(|e| panic!("serve failed: {e}"));
    let text = String::from_utf8(out).unwrap_or_else(|e| panic!("non-UTF-8 output: {e}"));
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "{lines:?}");
    assert_eq!(lines[0], "{\"type\":\"pong\"}");
    assert_eq!(
        lines[1],
        "{\"type\":\"error\",\"line\":2,\"error\":\"line is not valid UTF-8\"}"
    );
    assert_eq!(lines[2], "{\"type\":\"pong\"}");
    let totals_fields = "\"lines\":1,\"cells\":0,\"cache_hits\":0,\"errors\":1,\"timeouts\":0,\"panics\":0,\"faults\":0,\"quarantined\":0";
    assert_eq!(lines[3], format!("{{\"type\":\"stats\",{totals_fields}}}"));
    assert_eq!(lines[4], format!("{{\"type\":\"bye\",{totals_fields}}}"));
    assert_eq!((totals.lines, totals.errors), (1, 1));
}

/// A poisoned alone baseline is quarantined and recomputed, and the
/// session's `bye` counts the quarantine; the answers stay those of the
/// clean pass.
#[test]
fn a_quarantined_cache_file_is_counted_in_bye() {
    let dir = std::env::temp_dir().join(format!("stfm-quarantine-bye-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = "{\"scheduler\": \"fcfs\", \"mix\": [\"mcf\"], \"insts\": 500}\n";
    let pass = || {
        let alone = AloneCache::with_dir(dir.join("alone")).unwrap();
        let results = ResultCache::in_memory();
        let cfg = ServeConfig::with_jobs(Some(1));
        let mut out = Vec::new();
        serve(Cursor::new(spec), &mut out, &alone, &results, &cfg).unwrap();
        let text = String::from_utf8(out).unwrap();
        let find = |kind: &str| {
            let tag = format!("\"type\":\"{kind}\"");
            text.lines().find(|l| l.contains(&tag)).map(String::from)
        };
        let bye = find("bye").unwrap_or_default();
        let bye = json::parse(&bye).unwrap_or_else(|e| panic!("{bye}: {e}"));
        (
            find("result"),
            bye.get("quarantined").and_then(|v| v.as_u64()),
        )
    };
    let (clean, none) = pass();
    assert_eq!(none, Some(0));

    let baselines: Vec<_> = std::fs::read_dir(dir.join("alone"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(baselines.len(), 1, "{baselines:?}");
    std::fs::write(&baselines[0], "garbage").unwrap();
    let (healed, quarantined) = pass();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((healed.is_some(), quarantined), (true, Some(1)));
    assert_eq!(healed, clean, "the recomputed answer differs");
}
