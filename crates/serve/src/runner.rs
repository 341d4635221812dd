//! Running cells: one at a time, and swept across the worker pool.
//!
//! [`run_cell_cancellable`] is the unit of work — consult the
//! [`ResultCache`] first (a hit replays the stored line verbatim and skips
//! the simulation entirely, which is how resumed sweeps fast-forward over
//! already-completed cells), else simulate and store. [`run_sweep`] puts
//! a slice of cells through the ordered pool in `stfm_sim::runner`, each
//! inside the same envelope `serve` uses, so the caller's emit hook
//! observes them **in input order** regardless of completion order or
//! worker count. That ordering is what makes the output stream
//! byte-identical for every `--jobs` setting.
//!
//! A fresh cell always runs on the event-driven loop. Its equality with
//! the stepped loop is proven in CI through `stfm_sim::oracle` (the
//! simulator's fuzz, and one case per cell shape in this crate's
//! `tests/determinism.rs`), not re-checked at run time.

use std::ops::ControlFlow;
use std::time::Duration;

use stfm_sim::{run_ordered, AloneCache, CancelToken, RunStop, WorkloadMetrics};

use crate::cache::ResultCache;
use crate::result::result_line;
use crate::serve::{CellRunner, ServeConfig};
use crate::spec::Cell;

/// A cell's answer: its result line, its metrics, and whether the result
/// cache supplied them.
pub type CellAnswer = (String, WorkloadMetrics, bool);

/// One completed cell, as observed by the emit hook.
#[derive(Debug)]
pub struct CellOutcome {
    /// Position of the cell in the input slice.
    pub index: usize,
    /// Content-address of the cell.
    pub key: String,
    /// The canonical result line (deterministic).
    pub line: String,
    /// The reconstructed or freshly computed metrics.
    pub metrics: WorkloadMetrics,
    /// Whether the result was replayed from the cache.
    pub from_cache: bool,
    /// Wall-clock time spent on this cell (lookup or simulation).
    pub wall: Duration,
}

/// Aggregate accounting for one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSummary {
    /// Total cells processed.
    pub cells: usize,
    /// Cells satisfied by the result cache.
    pub cache_hits: usize,
    /// Worker threads actually used.
    pub workers: usize,
}

/// Runs one cell to completion: cache lookup, else simulate and store,
/// optionally under a cooperative cancellation token.
///
/// Returns `Ok(None)` when `cancel` fired before the cell finished; a
/// cancelled cell stores nothing in either cache.
///
/// # Errors
///
/// Returns the error line's kind and message: `"spec"` if the cell
/// references an unknown benchmark, `"truncated"` if its shared run or an
/// alone baseline hit the cycle cap (nothing is stored then either).
pub fn run_cell_cancellable(
    cell: &Cell,
    alone: &AloneCache,
    results: &ResultCache,
    cancel: Option<&CancelToken>,
) -> Result<Option<CellAnswer>, (&'static str, String)> {
    let key = cell.key();
    if let Some(hit) = results.lookup(&key) {
        return Ok(Some((hit.line, hit.metrics, true)));
    }
    let experiment = cell.to_experiment().map_err(|message| ("spec", message))?;
    let metrics = match experiment.try_run(alone, cancel) {
        Ok(metrics) => metrics,
        Err(RunStop::Cancelled) => return Ok(None),
        Err(stop @ RunStop::Truncated) => return Err(("truncated", format!("cell run {stop}"))),
    };
    let line = result_line(cell, &metrics);
    results.store(&key, &line);
    Ok(Some((line, metrics, false)))
}

/// Runs every cell across a bounded worker pool, invoking `emit` once per
/// cell **in input order**.
///
/// `jobs = None` (or `Some(0)`) uses the host's available parallelism.
/// Cells run inside `serve`'s envelope with no timeout, which leaves its
/// panic isolation: a panicking cell is that cell's error, not the end of
/// the process.
///
/// # Errors
///
/// Returns the error (unknown benchmark, panic) of the first failing cell
/// in input order, whatever the worker count. Exactly the cells before it
/// are emitted and no further cell is started.
pub fn run_sweep<F>(
    cells: &[Cell],
    alone: &AloneCache,
    results: &ResultCache,
    jobs: Option<usize>,
    mut emit: F,
) -> Result<SweepSummary, String>
where
    F: FnMut(CellOutcome),
{
    let cfg = ServeConfig::default();
    let runner = CellRunner::new(alone, results, &cfg);
    let mut index = 0usize;
    let mut cache_hits = 0usize;
    let mut first_err: Option<String> = None;
    let workers = run_ordered(
        cells.iter(),
        jobs,
        |cell| runner.execute_cell(cell),
        |out| {
            if first_err.is_some() {
                // Cells past the failure that were already running.
                return ControlFlow::Break(());
            }
            match out.result {
                Ok((line, metrics, from_cache)) => {
                    cache_hits += usize::from(from_cache);
                    emit(CellOutcome {
                        index,
                        key: out.key,
                        line,
                        metrics,
                        from_cache,
                        wall: out.wall,
                    });
                    index += 1;
                    ControlFlow::Continue(())
                }
                Err((_, message)) => {
                    first_err = Some(message);
                    ControlFlow::Break(())
                }
            }
        },
    );
    match first_err {
        Some(e) => Err(e),
        None => Ok(SweepSummary {
            cells: cells.len(),
            cache_hits,
            workers,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{expand_line, SchedSpec};

    fn small_grid() -> Vec<Cell> {
        expand_line(
            r#"{"scheduler": ["fcfs", "frfcfs", "stfm"], "mix": ["mcf", "libquantum"],
                "insts": [500, 1000], "seed": [1, 2]}"#,
        )
        .unwrap()
    }

    #[test]
    fn emits_every_cell_in_input_order() {
        let cells = small_grid();
        let alone = AloneCache::new();
        let results = ResultCache::in_memory();
        let mut seen = Vec::new();
        let summary = run_sweep(&cells, &alone, &results, Some(4), |o| seen.push(o.index)).unwrap();
        assert_eq!(summary.cells, cells.len());
        assert_eq!(summary.cache_hits, 0);
        assert_eq!(seen, (0..cells.len()).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_identical_for_any_worker_count() {
        let cells = small_grid();
        let mut streams = Vec::new();
        for jobs in [Some(1), Some(3), None] {
            let alone = AloneCache::new();
            let results = ResultCache::in_memory();
            let mut lines = String::new();
            run_sweep(&cells, &alone, &results, jobs, |o| {
                lines.push_str(&o.line);
                lines.push('\n');
            })
            .unwrap();
            streams.push(lines);
        }
        assert_eq!(streams[0], streams[1]);
        assert_eq!(streams[0], streams[2]);
    }

    #[test]
    fn second_pass_is_all_cache_hits() {
        let cells = small_grid();
        let alone = AloneCache::new();
        let results = ResultCache::in_memory();
        let cold = run_sweep(&cells, &alone, &results, Some(2), |_| {}).unwrap();
        assert_eq!(cold.cache_hits, 0);
        let mut replayed = Vec::new();
        let warm = run_sweep(&cells, &alone, &results, Some(2), |o| {
            replayed.push(o.from_cache);
        })
        .unwrap();
        assert_eq!(warm.cache_hits, cells.len());
        assert!(replayed.iter().all(|&hit| hit));
    }

    #[test]
    fn error_is_the_first_failing_cell_for_any_worker_count() {
        let mut cells = small_grid();
        let bad = |name: &str| Cell::new(SchedSpec::Fcfs, vec![name.to_string()]).insts(500);
        cells.insert(7, bad("no_such_late"));
        cells.insert(2, bad("no_such_early"));
        let mut runs = Vec::new();
        for jobs in [Some(1), Some(3), None] {
            let alone = AloneCache::new();
            let results = ResultCache::in_memory();
            let mut seen = Vec::new();
            let err = run_sweep(&cells, &alone, &results, jobs, |o| {
                seen.push((o.index, o.line));
            })
            .unwrap_err();
            if jobs == Some(1) {
                // Two good cells and the bad one were looked up, plus at
                // most the one cell the worker pulled before the stop
                // landed — not the eleven behind it.
                assert!(results.miss_count() <= 4, "{}", results.miss_count());
            }
            runs.push((err, seen));
        }
        assert!(runs[0].0.contains("no_such_early"), "{}", runs[0].0);
        assert_eq!(runs[0].1.len(), 2, "exactly the cells before the failure");
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }
}
