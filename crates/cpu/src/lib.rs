//! Trace-driven CMP core model with private L1/L2 caches and MSHRs.
//!
//! Substrate of the STFM reproduction's performance model (paper Table 2):
//! each core executes an endless instruction trace ([`trace::TraceSource`])
//! through a 128-entry instruction window, 3-wide fetch/commit, write-back
//! L1 (32 KB) and L2 (512 KB) caches and 64 MSHRs, sending L2 misses and
//! dirty writebacks to the shared [`stfm_mc::MemorySystem`].
//!
//! The crucial output is the per-core memory stall counter
//! ([`core::CoreStats::mem_stall_cycles`]): cycles in which the core cannot
//! commit because the oldest instruction is a load with an outstanding L2
//! miss. That counter is the paper's `Tshared`, the numerator of MCPI, and
//! the quantity STFM equalizes across threads.

pub mod cache;
pub mod core;
pub mod mshr;
pub mod prefetch;
pub mod trace;

pub use crate::core::{Core, CoreConfig, CoreStats};
pub use cache::{Cache, CacheAccess, Eviction};
pub use mshr::{FillOutcome, MshrAlloc, MshrFile};
pub use prefetch::StreamPrefetcher;
pub use trace::{MemOpKind, TraceOp, TraceSource, VecTrace};
