//! Known-bad code for CI's lint self-test. It is compiled only under
//! `RUSTFLAGS="--cfg lint_fixture"`, where `cargo clippy` must fail on it
//! and name each of the six lints the comments below name: the proof that
//! `clippy.toml` and `[workspace.lints]` are still found and still spelled
//! right. Without the cfg this is an empty crate.
#![cfg(lint_fixture)]
#![allow(dead_code, unused_variables)]

use std::collections::HashMap;
use std::time::{Instant, SystemTime};

fn known_bad(map: &HashMap<u64, u64>) -> u64 {
    let first = map.get(&0).copied().unwrap(); // unwrap_used
    let second = map.get(&1).copied().expect("present"); // expect_used
    for (key, value) in map {} // iter_over_hash_type
    let total: u64 = map.values().sum(); // disallowed_methods: hash order
    let started = Instant::now(); // disallowed_methods: wall clock
    let stamp: Option<SystemTime> = None; // disallowed_types
    dbg!(first + second + total) // dbg_macro
}
