//! # Stall-Time Fair Memory scheduling (STFM)
//!
//! The primary contribution of Mutlu & Moscibroda, *Stall-Time Fair Memory
//! Access Scheduling for Chip Multiprocessors* (MICRO 2007), implemented as
//! a [`stfm_mc::SchedulerPolicy`].
//!
//! STFM defines DRAM fairness as equal *memory-related slowdown*
//! `S = T_shared / T_alone` across equal-priority threads. Since `T_alone`
//! cannot be measured while threads share the system, the scheduler
//! maintains `T_interference` — the extra stall time each thread suffers
//! because other threads' requests are serviced — and estimates
//! `T_alone = T_shared − T_interference`. When the ratio of the largest to
//! the smallest slowdown exceeds a threshold `α`, requests from the
//! most-slowed-down thread are prioritized; otherwise the scheduler behaves
//! exactly like throughput-oriented FR-FCFS.
//!
//! The crate mirrors the paper's proposed hardware:
//!
//! * [`fixed::Fx8`] — the 8-bit-fraction fixed-point arithmetic of the
//!   slowdown registers;
//! * [`registers`] — the register file of Table 1 (with the paper's
//!   1808-bit storage accounting reproduced as a test);
//! * [`stfm::Stfm`] — the scheduling policy with the three
//!   `T_interference` update rules of Section 3.2.2, thread weights and the
//!   `α` interface of Section 3.3, and the interval reset of Section 5.1.
//!   There is one estimator: the rules' constants are calibrated for this
//!   simulator and fixed (DESIGN.md §2.4), and [`stfm::StfmConfig`] holds
//!   only the paper's own parameters — `α`, the interval length, `γ`, and
//!   whether the parallelism registers are used.
//!
//! # Example
//!
//! ```
//! use stfm_core::Stfm;
//! use stfm_dram::TimingParams;
//! use stfm_mc::ThreadId;
//!
//! let mut sched = Stfm::new(TimingParams::ddr2_800());
//! sched.set_alpha(1.10);
//! sched.set_weight(ThreadId(2), 16); // prioritized thread
//! assert_eq!(sched.weight(ThreadId(2)), 16);
//! ```

pub mod fixed;
pub mod registers;
pub mod stfm;

pub use fixed::Fx8;
pub use registers::{state_bits, weighted_slowdown, RegisterFile, ThreadRegs};
pub use stfm::{Stfm, StfmConfig, DEFAULT_ALPHA, DEFAULT_INTERVAL_LENGTH};
