//! Seeded malformed-input fuzz for the trace-file reader: whatever
//! byte-level damage a trace has taken, `FileTrace::from_reader` returns
//! a trace or a `TraceIoError` — never a panic — and a trace it does
//! return replays.

use std::io::Cursor;

use stfm_cpu::{FileTrace, TraceSource};
use stfm_dram::rng::SmallRng;

const TRACE: &str = "\
# bubbles kind address [D]
3 R 0x1000
0 W 4096 D

12 r 0XdeadBEEF d
4294967295 w 18446744073709551615
";

/// The bytes the record grammar is made of; insertions and runs draw
/// from it.
const ALPHABET: &[u8] = b"RWDrwd xX#-+\n0123456789abcdefABCDEF";

/// `TRACE` after one to three byte-level edits: bit flip, truncation,
/// insertion, deletion, swap, overwrite, or a long run of one byte.
fn mutate(rng: &mut SmallRng) -> Vec<u8> {
    let mut bytes = TRACE.as_bytes().to_vec();
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
                let run = vec![steer; rng.random_range(1..2_000usize)];
                bytes.splice(at..at, run);
            }
        }
    }
    bytes
}

#[test]
fn damaged_traces_never_panic_the_reader() {
    assert_eq!(
        FileTrace::from_reader(Cursor::new(TRACE), "t")
            .map(|t| t.len())
            .ok(),
        Some(4)
    );
    let mut rng = SmallRng::seed_from_u64(0x5EED_7ACE);
    const CASES: u32 = 24_000;
    let mut loaded = 0u32;
    for _ in 0..CASES {
        let Ok(mut trace) = FileTrace::from_reader(Cursor::new(mutate(&mut rng)), "fuzz") else {
            continue;
        };
        loaded += 1;
        assert!(!trace.is_empty());
        for _ in 0..=trace.len() {
            trace.next_op();
        }
    }
    // The damage lands on both sides of the reader's accept/reject line.
    assert!(
        (1_000..CASES - 1_000).contains(&loaded),
        "{loaded} of {CASES} loaded"
    );
}
