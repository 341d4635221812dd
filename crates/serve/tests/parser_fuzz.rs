//! Seeded malformed-input fuzz for the hand-rolled parsers a client's
//! bytes reach: `json::parse`, `expand_line` and `parse_result_line` must
//! return — `Ok` or a message, never a panic, an overflowed stack or a
//! hang — on anything derived from real lines by byte-level damage, every
//! cell `expand_line` accepts must build its system, and a
//! `serve` session fed such lines between good ones must answer each and
//! still say `bye`. The dynamic partner of the crate's static
//! `clippy::indexing_slicing` gate.

// `allow-unwrap-in-tests` covers `#[test]` fns only, not their helpers.
#![allow(clippy::unwrap_used)]

use std::io::Cursor;

use stfm_dram::rng::SmallRng;
use stfm_serve::{expand_line, json, parse_result_line, run_cell_cancellable, serve};
use stfm_serve::{ResultCache, ServeConfig};
use stfm_sim::AloneCache;

const SPECS: [&str; 4] = [
    r#"{"scheduler": "fcfs", "mix": ["mcf"], "insts": 400}"#,
    r#"{"scheduler": ["stfm", "nfq"], "mix": ["mcf", "hmmer"], "insts": 300, "seed": [1, 2]}"#,
    r#"{"scheduler": "stfm", "alpha": [1.05, 1.1e0], "mix": "case_study_mixed", "insts": 200}"#,
    r#"{"scheduler": "all", "mixes": [["mcf"], ["lbm", "astar"]], "banks": 16, "row_kb": 4}"#,
];
const COMMANDS: [&str; 4] = [
    r#"{"cmd": "ping"}"#,
    r#"{"cmd": "stats"}"#,
    r#"{"cmd": "shutdown"}"#,
    r#"{"cmd": "café 😀"}"#,
];

/// The bytes that steer a JSON parser; insertions and runs draw from it.
const ALPHABET: &[u8] = b"{}[]\",:\\u-+eE.0123456789";

/// One of `seeds` after one to three byte-level edits: bit flip,
/// truncation, insertion, deletion, swap, overwrite, or a long run of
/// one byte.
fn mutate(rng: &mut SmallRng, seeds: &[String]) -> String {
    let mut bytes = seeds[rng.random_range(0..seeds.len())].as_bytes().to_vec();
    for _ in 0..rng.random_range(1..4u32) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.random_range(0..bytes.len());
        let other = rng.random_range(0..bytes.len());
        let steer = ALPHABET[rng.random_range(0..ALPHABET.len())];
        match rng.random_range(0..7u32) {
            0 => bytes[at] ^= 1 << rng.random_range(0..8u32),
            1 => bytes.truncate(at),
            2 => bytes.insert(at, steer),
            3 => drop(bytes.remove(at)),
            4 => bytes.swap(at, other),
            5 => bytes[at] = rng.next_u64() as u8,
            _ => {
                let run = vec![steer; rng.random_range(1..8_000usize)];
                bytes.splice(at..at, run);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The valid lines damage starts from, one real result line included.
fn seed_lines() -> Vec<String> {
    let cell = expand_line(SPECS[0]).unwrap().remove(0);
    let run = run_cell_cancellable(&cell, &AloneCache::new(), &ResultCache::in_memory(), None);
    let (result, ..) = run.unwrap().unwrap();
    assert!(parse_result_line(&result).is_ok());
    let mut lines: Vec<String> = SPECS
        .iter()
        .chain(&COMMANDS)
        .map(|s| s.to_string())
        .collect();
    lines.push(result);
    lines
}

#[test]
fn damaged_lines_never_panic_the_parsers() {
    let seeds = seed_lines();
    let mut rng = SmallRng::seed_from_u64(0x5EED_F022);
    let (mut json_ok, mut spec_ok, mut result_ok) = (0u32, 0u32, 0u32);
    const CASES: u32 = 24_000;
    for _ in 0..CASES {
        let line = mutate(&mut rng, &seeds);
        json_ok += u32::from(json::parse(&line).is_ok());
        let cells = expand_line(&line);
        spec_ok += u32::from(cells.is_ok());
        // An accepted cell builds its whole system, memory system
        // included, without a panic.
        for cell in cells.iter().flatten() {
            drop(cell.to_experiment().unwrap().shared_system());
        }
        result_ok += u32::from(parse_result_line(&line).is_ok());
    }
    // Neither all-rejected nor all-accepted: the damage lands on both
    // sides of each parser's accept/reject line.
    for (name, ok) in [("json", json_ok), ("spec", spec_ok), ("result", result_ok)] {
        assert!(
            (100..CASES / 2).contains(&ok),
            "{name}: {ok} of {CASES} accepted"
        );
    }
}

#[test]
fn serve_session_answers_every_damaged_line_and_says_bye() {
    let seeds = seed_lines();
    let mut rng = SmallRng::seed_from_u64(0x5EED_5E55);
    let mut input = String::new();
    let mut fed = 0usize;
    while fed < 400 {
        let line = if fed.is_multiple_of(4) {
            SPECS[0].to_string()
        } else {
            mutate(&mut rng, &seeds).replace(['\n', '\r'], " ")
        };
        // Lines the session would skip, end on, or spend seconds
        // simulating (damage can land in `insts`) are not fed.
        let skipped = line.trim().is_empty() || line.trim().starts_with('#');
        let heavy = expand_line(&line).is_ok_and(|cells| {
            let work: u64 = cells.iter().map(|c| c.insts * c.mix.len() as u64).sum();
            work > 5_000
        });
        if skipped || heavy || line.contains("shutdown") {
            continue;
        }
        input.push_str(&line);
        input.push('\n');
        fed += 1;
    }

    let (alone, results) = (AloneCache::new(), ResultCache::in_memory());
    let mut out = Vec::new();
    let cfg = ServeConfig::with_jobs(Some(2));
    let totals = serve(Cursor::new(input), &mut out, &alone, &results, &cfg).unwrap();
    assert_eq!((totals.panics, totals.timeouts), (0, 0));

    let text = String::from_utf8(out).unwrap();
    let kind = |l: &str| {
        let answer = json::parse(l).unwrap();
        answer
            .get("type")
            .and_then(json::Value::as_str)
            .unwrap()
            .to_string()
    };
    let answers = text
        .lines()
        .filter(|l| matches!(kind(l).as_str(), "error" | "epoch" | "pong" | "stats"))
        .count();
    assert_eq!(answers, fed, "one answer per input line");
    assert!(totals.errors > 100 && totals.cells >= 100, "{totals:?}");
    assert_eq!(text.lines().last().map(kind).as_deref(), Some("bye"));
}
