//! DRAM memory controller and baseline scheduling policies.
//!
//! This crate provides the controller substrate of the STFM reproduction:
//! the per-channel request buffer, write-drain machinery, command
//! generation, and the [`SchedulerPolicy`] abstraction through which all
//! five of the paper's schedulers plug in:
//!
//! | Policy | Crate | Paper section |
//! |---|---|---|
//! | [`FrFcfs`] | here | 2.4 (baseline) |
//! | [`Fcfs`] | here | 4 |
//! | [`FrFcfsCap`] | here | 4 (new comparison point) |
//! | [`Nfq`] | here | 4 (Nesbit et al.) |
//! | `Stfm` | `stfm-core` | 3, 5 (the contribution) |
//! | [`ParBs`] | here | extension: the ISCA-2008 successor |
//!
//! # Example
//!
//! ```
//! use stfm_mc::{AccessKind, FrFcfs, MemorySystem, ThreadId};
//! use stfm_dram::{CpuCycle, DramCycle, DramConfig, PhysAddr};
//!
//! let mut mem = MemorySystem::new(DramConfig::ddr2_800(), Box::new(FrFcfs::new()));
//! mem.try_enqueue(ThreadId(0), AccessKind::Read, PhysAddr(0x1000), CpuCycle::ZERO, 0)
//!     .expect("buffer has space");
//! for cycle in 0..40 {
//!     mem.tick(DramCycle::new(cycle));
//! }
//! assert_eq!(mem.drain_completions().len(), 1);
//! ```

pub mod controller;
pub mod fcfs;
pub mod frfcfs;
pub mod frfcfs_cap;
pub mod nfq;
pub mod parbs;
pub mod policy;
pub mod request;
pub mod stats;
pub mod test_util;

pub use controller::{
    Completion, ControllerConfig, MemorySystem, RowPolicy, SchedCounters, DEFAULT_SAMPLE_INTERVAL,
};
pub use fcfs::Fcfs;
pub use frfcfs::FrFcfs;
pub use frfcfs_cap::FrFcfsCap;
pub use nfq::Nfq;
pub use parbs::ParBs;
pub use policy::{PolicyWork, Rank, SchedQuery, SchedulerPolicy, SystemView};
pub use request::{AccessKind, Request, RequestId, RequestState, ThreadId};
pub use stats::{SystemStats, ThreadStats};
