//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every evaluation artifact of the paper has a binary in `src/bin/`
//! (`fig1` … `fig15`, `table3`, `table5`, `ablation_*`). They accept:
//!
//! * `--insts N` — per-thread instruction budget (defaults chosen per
//!   binary so a full regeneration finishes in minutes);
//! * `--seed N` — workload seed;
//! * `--full` — full-scale sweeps where the default subsamples (fig9).
//!
//! Speed is measured by `src/bin/benchmark/` (contract: `BENCHMARK.json`);
//! its `kernels.rs` holds the per-layer ns/op micro-measurements.

pub mod cli;
pub mod report;

pub use cli::Args;
