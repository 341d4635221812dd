//! Service-scale determinism: the same spec must produce byte-identical
//! result lines through every entry point — the batch sweep runner
//! (`stfm sweep`), the streaming serve loop (`stfm serve` over piped
//! stdin), and direct in-process per-cell runs — at any worker count and
//! from cold or warm caches. The streams are compared both line-by-line
//! and as FNV-1a digests (the same machinery as the golden-digest tests).
//! Underneath them all, every shape of cell serve runs is held equal to
//! the stepped loop by `stfm_sim::oracle`.

use std::io::Cursor;

use stfm_serve::{
    expand_line, run_cell_cancellable, run_sweep, serve, Cell, ResultCache, SchedSpec, ServeConfig,
};
use stfm_sim::digest::Fnv64;
use stfm_sim::oracle::{compare, Case};
use stfm_sim::{AloneCache, RunStop};

const SPEC: &str = concat!(
    "{\"scheduler\": \"all\", \"mix\": [\"mcf\", \"libquantum\"], \"insts\": 600}\n",
    "{\"scheduler\": \"stfm\", \"alpha\": [1.05, 1.2], \"mix\": \"case_study_mixed\", ",
    "\"insts\": 400, \"seed\": [1, 2]}\n",
    "{\"scheduler\": [\"fcfs\", \"nfq\"], \"mixes\": [[\"hmmer\", \"omnetpp\"], ",
    "[\"mcf\", \"astar\"]], \"insts\": 500}\n",
);

fn spec_cells() -> Vec<Cell> {
    SPEC.lines()
        .flat_map(|l| match expand_line(l) {
            Ok(cells) => cells,
            Err(e) => panic!("spec line failed to expand: {e}"),
        })
        .collect()
}

fn digest_of(lines: &[String]) -> u64 {
    let mut h = Fnv64::new();
    for line in lines {
        h.write_str(line);
        h.write_bytes(b"\n");
    }
    h.finish()
}

fn sweep_lines(jobs: Option<usize>) -> Vec<String> {
    let cells = spec_cells();
    let alone = AloneCache::new();
    let results = ResultCache::in_memory();
    let mut lines = Vec::new();
    run_sweep(&cells, &alone, &results, jobs, |o| lines.push(o.line))
        .unwrap_or_else(|e| panic!("sweep failed: {e}"));
    lines
}

fn serve_lines(jobs: Option<usize>, alone: &AloneCache, results: &ResultCache) -> Vec<String> {
    let mut out = Vec::new();
    let cfg = ServeConfig::with_jobs(jobs);
    serve(
        Cursor::new(SPEC.to_string()),
        &mut out,
        alone,
        results,
        &cfg,
    )
    .unwrap_or_else(|e| panic!("serve failed: {e}"));
    String::from_utf8(out)
        .unwrap_or_else(|e| panic!("serve emitted non-UTF-8: {e}"))
        .lines()
        .filter(|l| l.contains("\"type\":\"result\""))
        .map(str::to_string)
        .collect()
}

fn in_process_lines() -> Vec<String> {
    let alone = AloneCache::new();
    let results = ResultCache::in_memory();
    spec_cells()
        .iter()
        .map(
            |cell| match run_cell_cancellable(cell, &alone, &results, None) {
                Ok(Some((line, _, _))) => line,
                other => panic!("the cell did not run: {other:?}"),
            },
        )
        .collect()
}

#[test]
fn sweep_serve_and_in_process_agree_byte_for_byte() {
    let sweep = sweep_lines(Some(3));
    let alone = AloneCache::new();
    let results = ResultCache::in_memory();
    let served = serve_lines(Some(2), &alone, &results);
    let direct = in_process_lines();

    // 5 schedulers + (2 alphas x 2 seeds) + (2 schedulers x 2 mixes).
    assert_eq!(sweep.len(), 13, "expected 13 cells from the spec");
    assert_eq!(sweep, served, "sweep vs serve result lines diverge");
    assert_eq!(sweep, direct, "sweep vs in-process result lines diverge");
    assert_eq!(digest_of(&sweep), digest_of(&served));
    assert_eq!(digest_of(&sweep), digest_of(&direct));
}

#[test]
fn worker_count_never_changes_the_stream() {
    let one = sweep_lines(Some(1));
    let many = sweep_lines(Some(8));
    let auto = sweep_lines(None);
    assert_eq!(digest_of(&one), digest_of(&many));
    assert_eq!(digest_of(&one), digest_of(&auto));
}

#[test]
fn warm_cache_replays_the_cold_stream_verbatim() {
    let alone = AloneCache::new();
    let results = ResultCache::in_memory();
    let cold = serve_lines(Some(4), &alone, &results);
    assert_eq!(results.hit_count(), 0);
    let warm = serve_lines(Some(4), &alone, &results);
    assert_eq!(results.hit_count(), cold.len() as u64);
    assert_eq!(digest_of(&cold), digest_of(&warm));
}

/// A served cell runs only on the event-driven loop, so each shape it
/// can take is checked here against the stepped one: every scheduler, an
/// α override and a geometry override.
#[test]
fn every_cell_shape_matches_the_stepped_oracle() {
    let mix = || ["mcf", "libquantum", "hmmer"].map(String::from).to_vec();
    let cell = |sched| Cell::new(sched, mix()).insts(2_000);
    let mut cells: Vec<Cell> = SchedSpec::all().into_iter().map(cell).collect();
    cells.push(cell(SchedSpec::Stfm).alpha(1.2));
    cells.push(Cell {
        banks: Some(4),
        row_kb: Some(4),
        ..cell(SchedSpec::Stfm)
    });
    for cell in &cells {
        let label = cell.canonical();
        let exp = cell
            .to_experiment()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let (event, _) = compare(&Case::experiment(label.clone(), &exp));
        assert_eq!(
            RunStop::of(&event.outcomes[0]),
            None,
            "{label}: the run did not complete"
        );
        let skipped = event.system.jumped_cycles() + event.system.elided_cycles();
        assert!(skipped > 0, "{label}: the event loop skipped nothing");
    }
}
