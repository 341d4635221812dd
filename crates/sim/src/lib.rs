//! Full-system simulator, metrics, and experiment harness.
//!
//! Ties the reproduction together: cores ([`stfm_cpu`]) around a shared
//! memory system ([`stfm_mc`] + [`stfm_dram`]) scheduled by one of the five
//! evaluated policies ([`SchedulerKind`]), driven by synthetic workloads
//! ([`stfm_workloads`]), reduced to the paper's fairness and throughput
//! metrics (Section 6.2).
//!
//! The central type is [`Experiment`]:
//!
//! ```
//! use stfm_sim::{Experiment, SchedulerKind};
//! use stfm_workloads::mix;
//!
//! let metrics = Experiment::new(mix::case_study_non_intensive())
//!     .scheduler(SchedulerKind::Stfm)
//!     .instructions_per_thread(5_000)
//!     .run();
//! println!(
//!     "unfairness {:.2}, weighted speedup {:.2}",
//!     metrics.unfairness(),
//!     metrics.weighted_speedup()
//! );
//! ```

pub mod cancel;
pub mod digest;
pub mod experiment;
pub mod metrics;
pub mod oracle;
pub mod runner;
pub mod scheduler_kind;
pub mod store;
pub mod system;
pub mod table;

pub use cancel::CancelToken;
pub use experiment::{
    run_alone, run_alone_with, AloneCache, Experiment, RunStop, TracedRun, DEFAULT_INSTRUCTIONS,
};
pub use metrics::{gmean, unfairness_from_slowdowns, ThreadMetrics, WorkloadMetrics};
pub use runner::run_ordered;
pub use scheduler_kind::SchedulerKind;
pub use stfm_mc::{RowPolicy, MAX_BANKS};
pub use system::{RunOutcome, System};
pub use table::Table;
