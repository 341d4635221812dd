//! The harness that regenerates the paper's evaluation.
//!
//! [`paper`] holds every figure, Tables 3 and 5, the PAR-BS extension and
//! the ablations as records, rendered by a [`paper::Session`] and run from
//! the command line as `stfm paper --figure fig12` or `stfm paper --all
//! results`. A session's [`Args`] are:
//!
//! * `--insts N` — per-thread instruction budget (defaults chosen per
//!   record so a full regeneration finishes in minutes);
//! * `--seed N` — workload seed;
//! * `--full` — full-scale sweeps where the default subsamples (fig9,
//!   table5; Table 4's desktop rows in `table3`);
//! * `--jobs N` — worker-thread cap.
//!
//! Speed is measured by `src/bin/benchmark/` (contract: `BENCHMARK.json`);
//! its `kernels.rs` holds the per-layer ns/op micro-measurements.

pub mod paper;

pub use paper::Args;
