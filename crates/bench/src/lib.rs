//! The harness that regenerates the paper's evaluation.
//!
//! [`paper`] holds every figure, Table 5 and the ablations as records,
//! run by the `paper` binary (`paper --figure fig12`, `paper --all
//! results`). The harnesses that measure something a record cannot
//! express stay binaries of their own: `fig14` (thread weights and
//! shares), `table3` (alone-run characterization), `ablation_estimate`
//! (STFM's internal registers) and `ablation_energy` (the DRAM energy
//! model). Every binary accepts:
//!
//! * `--insts N` — per-thread instruction budget (defaults chosen per
//!   artefact so a full regeneration finishes in minutes);
//! * `--seed N` — workload seed;
//! * `--full` — full-scale sweeps where the default subsamples (fig9,
//!   table5; Table 4's desktop rows in `table3`);
//! * `--jobs N` — worker-thread cap.
//!
//! Speed is measured by `src/bin/benchmark/` (contract: `BENCHMARK.json`);
//! its `kernels.rs` holds the per-layer ns/op micro-measurements.

pub mod cli;
pub mod paper;

pub use cli::Args;

use stfm_cpu::Core;
use stfm_dram::DramConfig;
use stfm_mc::{MemorySystem, ThreadId};
use stfm_sim::{SchedulerKind, System};
use stfm_workloads::{Profile, SyntheticTrace};

/// A system that runs `profiles[i]` on core `i` under `kind`, on the DRAM
/// [`DramConfig::for_cores`] gives that many cores: what the harnesses
/// that read a run's internals build instead of an `Experiment`.
pub fn system(profiles: &[Profile], kind: SchedulerKind, seed: u64) -> System {
    let dram = DramConfig::for_cores(profiles.len() as u32);
    let mem = MemorySystem::new(dram.clone(), kind.build(dram.timing, &[], &[]));
    let cores = profiles.iter().zip(0..).map(|(p, i)| {
        let trace = SyntheticTrace::new(p.clone(), &dram, i, seed);
        Core::new(ThreadId(i), Box::new(trace))
    });
    System::new(cores.collect(), mem)
}
