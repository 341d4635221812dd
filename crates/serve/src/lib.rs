//! Experiment service: run the simulator as long-lived infrastructure.
//!
//! Everything upstream of this crate answers "what does one experiment
//! say?"; this crate answers "how do we run thousands of them, repeatedly,
//! without redoing work?". It adds three layers on top of
//! [`stfm_sim::Experiment`]:
//!
//! 1. **Specs as data** ([`spec`]) — experiments are described by
//!    dependency-free JSONL lines (scheduler, mix, instruction budget,
//!    seed, DRAM geometry). A line may hold axis *lists*, which expand
//!    into the full cross-product of concrete [`Cell`]s in a fixed,
//!    documented order.
//! 2. **Content-addressed results** ([`cache`]) — each cell's canonical
//!    form is FNV-1a hashed into a key; completed [`result`] lines are
//!    memoized in memory and optionally persisted to a cache directory,
//!    so re-running a spec replays finished cells byte-for-byte and only
//!    simulates what changed.
//! 3. **Execution** ([`runner`], [`mod@serve`]) — batch sweeps
//!    ([`run_sweep`], `stfm sweep`) and a long-running stdin/TCP service
//!    ([`serve()`], `stfm serve`: streamed result lines with backpressure,
//!    per-line epochs, structured errors, graceful shutdown), both on the
//!    one ordered worker pool, [`stfm_sim::runner::run_ordered`].
//!
//! The whole stack preserves the repository's determinism contract: the
//! result-line stream for a spec is byte-identical across worker counts,
//! across `sweep`/`serve`/in-process entry points, and across cold and
//! warm caches.

// This crate parses untrusted lines beside `catch_unwind` cells: every
// index or slice that could panic goes through `.get(..)` instead.
#![deny(clippy::indexing_slicing)]

pub mod cache;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod json;
pub mod result;
pub mod runner;
pub mod serve;
pub mod spec;

pub use cache::{CachedResult, ResultCache};
#[cfg(feature = "fault-inject")]
pub use fault::FaultPlan;
pub use result::{parse_result_line, result_line, ParsedResult};
pub use runner::{run_cell, run_cell_cancellable, run_sweep, CellOutcome, SweepSummary};
pub use serve::{serve, serve_listener, serve_tcp, ServeConfig, ServeTotals};
pub use spec::{expand_line, Cell, SchedSpec, MAX_CELLS_PER_LINE, MAX_THREADS_PER_MIX};
