//! The `stfm paper` records against pinned output: each record, rendered
//! in process at `--insts 2000`, seed 1, must hash to the FNV-1a digest of
//! what the standalone binary it replaced printed, and must simulate each
//! of its runs once. A session shared across records must not simulate an
//! experiment twice. Every record writes one file of `results/`, and every
//! file there is a record's.
//!
//! A debug build spends about a second on each record, so tier-1 renders
//! only one record per layout that is cheap there (the slowdown list,
//! the case-study table, label × metric rows, the scheduler × variant
//! grid, the alone-run characterization) and the two shared-session
//! cases; the rest are `#[ignore]`d. Run them all with
//! `cargo test --release --test paper -- --include-ignored`.

use std::collections::BTreeSet;
use std::path::Path;

use stfm_bench::paper::{record, Session, RECORDS};
use stfm_bench::Args;
use stfm_sim::digest::hex_digest;

fn session() -> Session {
    Session::new(Args {
        insts: Some(2_000),
        ..Args::default()
    })
}

fn render(session: &Session, id: &str) -> String {
    let r = record(id).unwrap_or_else(|| panic!("no record '{id}'"));
    session.render(r)
}

/// One test per record: `id = (digest of its output, runs it simulates)`.
macro_rules! pinned {
    ($($(#[$attr:meta])* $id:ident = ($digest:literal, $runs:literal);)*) => {$(
        #[test]
        $(#[$attr])*
        fn $id() {
            let session = session();
            let out = render(&session, stringify!($id));
            assert_eq!(hex_digest(&out), $digest, "{}:\n{out}", stringify!($id));
            assert_eq!(session.simulated(), $runs, "{}: runs simulated", stringify!($id));
        }
    )*};
}

pinned! {
    fig1 = ("f77d3f17d86e1544", 2);
    #[ignore = "release-only: seconds in a debug build"]
    fig5 = ("29710a13c2ce309a", 50);
    #[ignore = "rendered in tier-1 by a_shared_session_simulates_each_cell_once"]
    fig6 = ("b9369a15b1e60623", 5);
    #[ignore = "release-only: seconds in a debug build"]
    fig7 = ("bd441c92acbf75ac", 5);
    #[ignore = "release-only: seconds in a debug build"]
    fig8 = ("ed68a5f7d15c64b0", 5);
    #[ignore = "release-only: minutes in a debug build"]
    fig9 = ("3d25d9a39f4f0489", 160);
    #[ignore = "release-only: seconds in a debug build"]
    fig10 = ("aa7099e90536c568", 5);
    #[ignore = "release-only: minutes in a debug build"]
    fig11 = ("eb291afa902f0e4e", 160);
    #[ignore = "release-only: minutes in a debug build"]
    fig12 = ("2f7bcebc400e1d78", 15);
    #[ignore = "release-only: seconds in a debug build"]
    fig13 = ("532e5fe9c1b8de6e", 5);
    #[ignore = "release-only: seconds in a debug build"]
    fig14 = ("ca2430f4ca312373", 6);
    #[ignore = "release-only: seconds in a debug build"]
    fig15 = ("54b411f4fb07ed2c", 8);
    table3 = ("f0a33343b627f224", 26);
    #[ignore = "release-only: minutes in a debug build"]
    table5 = ("647c53000a08aa70", 80);
    #[ignore = "release-only: seconds in a debug build"]
    extension_parbs = ("1321e1cfbf82d645", 12);
    #[ignore = "release-only: seconds in a debug build"]
    ablation_cap = ("c4c8690f2a557066", 5);
    #[ignore = "release-only: seconds in a debug build"]
    ablation_energy = ("da60c6f0ad382ea3", 5);
    // Two STFM runs and the FR-FCFS run that brings the alone baselines.
    #[ignore = "release-only: seconds in a debug build"]
    ablation_estimate = ("c9b994434921bf98", 3);
    #[ignore = "release-only: seconds in a debug build"]
    ablation_gamma = ("3c6d89828c466c45", 3);
    #[ignore = "release-only: seconds in a debug build"]
    ablation_interval = ("59934f3ed0b9177e", 5);
    ablation_parallelism = ("16b2e409c96a90e6", 2);
    ablation_prefetch = ("cabbb720affc3d20", 4);
    #[ignore = "release-only: seconds in a debug build"]
    ablation_row_policy = ("32305a7226b3d40a", 8);
}

#[test]
fn a_shared_session_simulates_each_cell_once() {
    let session = session();
    let case_study = render(&session, "fig6");
    assert_eq!(session.simulated(), 5);
    // fig15's FR-FCFS baseline is fig6's run; its seven α runs are new.
    let alpha = render(&session, "fig15");
    assert_eq!(session.simulated(), 12);
    // A memoized run renders as a fresh one does.
    assert_eq!(hex_digest(&case_study), "b9369a15b1e60623");
    assert_eq!(hex_digest(&alpha), "54b411f4fb07ed2c");
}

/// STFM's default configuration is one run for every record that prints
/// it: `ablation_parallelism`'s paper row is `ablation_gamma`'s "1 (ours)".
#[test]
fn a_shared_session_runs_stfm_defaults_once() {
    let session = session();
    let gamma = render(&session, "ablation_gamma");
    assert_eq!(session.simulated(), 3);
    let parallelism = render(&session, "ablation_parallelism");
    assert_eq!(session.simulated(), 4);
    assert_eq!(hex_digest(&gamma), "3c6d89828c466c45");
    assert_eq!(hex_digest(&parallelism), "16b2e409c96a90e6");
}

/// `--full` adds Table 4's desktop benchmarks to Table 3.
#[test]
#[ignore = "release-only: seconds in a debug build"]
fn table3_full() {
    let session = Session::new(Args {
        insts: Some(2_000),
        full: true,
        ..Args::default()
    });
    let out = render(&session, "table3");
    assert_eq!(
        hex_digest(&out),
        "f02e26407a980cec",
        "table3 --full:\n{out}"
    );
}

/// `stfm paper --all results` writes exactly the checked-in files: no artefact
/// lives outside the records, and no file outlives its record.
#[test]
fn the_records_are_the_results_directory() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let stems: BTreeSet<String> = entries
        .map(|e| {
            e.unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
                .path()
        })
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .filter_map(|p| Some(p.file_stem()?.to_str()?.to_string()))
        .collect();
    let ids: BTreeSet<String> = RECORDS.iter().map(|r| r.id.to_string()).collect();
    assert_eq!(ids.len(), RECORDS.len(), "two records share an id");
    assert_eq!(ids, stems);
}
