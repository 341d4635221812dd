//! # stfm-repro
//!
//! Umbrella crate for the reproduction of *Stall-Time Fair Memory Access
//! Scheduling for Chip Multiprocessors* (Mutlu & Moscibroda, MICRO 2007).
//!
//! It re-exports every workspace crate under one roof so examples and
//! integration tests can use a single dependency:
//!
//! * [`dram`] — cycle-level DDR2 device/channel/timing model.
//! * [`mc`] — memory controller and baseline schedulers (FR-FCFS, FCFS,
//!   FR-FCFS+Cap, NFQ).
//! * [`stfm`] — the paper's contribution: the Stall-Time Fair Memory
//!   scheduler.
//! * [`cpu`] — trace-driven cores with L1/L2 caches and MSHRs.
//! * [`workloads`] — synthetic SPEC CPU2006 / desktop workload generators.
//! * [`sim`] — full-system simulator, metrics, and the experiment runner.
//! * [`telemetry`] — event model, trace sinks, and the epoch sampler.
//!
//! # Quickstart
//!
//! ```
//! use stfm_repro::sim::{Experiment, SchedulerKind};
//! use stfm_repro::workloads::spec;
//!
//! let result = Experiment::new(vec![spec::mcf(), spec::libquantum()])
//!     .scheduler(SchedulerKind::Stfm)
//!     .instructions_per_thread(20_000)
//!     .run();
//! println!("unfairness = {:.2}", result.unfairness());
//! ```

pub use stfm_core as stfm;
pub use stfm_cpu as cpu;
pub use stfm_dram as dram;
pub use stfm_mc as mc;
pub use stfm_sim as sim;
pub use stfm_telemetry as telemetry;
pub use stfm_workloads as workloads;
