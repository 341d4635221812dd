//! Synthetic workloads calibrated to the STFM paper's benchmark suite.
//!
//! The paper evaluates on SPEC CPU2006 Pin traces and Windows desktop iDNA
//! traces that are not redistributable. This crate substitutes **synthetic
//! trace generators** calibrated to the paper's own characterization
//! (Table 3 for SPEC, Table 4 for the desktop applications): memory
//! intensity (L2 MPKI), row-buffer locality, bank access balance,
//! burstiness, write mix, and memory-level parallelism. Those are exactly
//! the properties the paper's analysis identifies as causing scheduler
//! (un)fairness, so the substitution preserves the behaviors under study
//! (see DESIGN.md §3).
//!
//! * [`profile`] — the characterization knobs ([`Profile`], [`Category`]).
//! * [`spec`] — the 26 SPEC CPU2006 profiles of Table 3.
//! * [`desktop`] — the 4 desktop-application profiles of Table 4.
//! * [`synthetic`] — the generator turning a profile into an endless
//!   [`stfm_cpu::TraceSource`].
//! * [`mix`] — the multiprogrammed combinations of the evaluation
//!   (case studies, Figure 1/10/12/13/14 workloads, the 256 4-core and 32
//!   8-core category combinations).
//! * [`micro`] — controlled single-behavior microbenchmarks (pure stream,
//!   pure random, pointer chase, bursty, bank hog) for adversarial and
//!   unit studies.

pub mod desktop;
pub mod micro;
pub mod mix;
pub mod profile;
pub mod spec;
pub mod synthetic;

pub use profile::{BurstSpec, Category, PaperTargets, Profile};
pub use synthetic::SyntheticTrace;
