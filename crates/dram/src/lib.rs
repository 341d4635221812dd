//! Cycle-level DDR2 SDRAM model.
//!
//! This crate implements the DRAM substrate used by the STFM reproduction
//! (Mutlu & Moscibroda, *Stall-Time Fair Memory Access Scheduling for Chip
//! Multiprocessors*, MICRO 2007): banks with row buffers, per-channel
//! command/address/data buses, the full DDR2 timing-constraint set, an
//! XOR-permuted address mapping, periodic refresh, and a passive
//! auditor of the telemetry event stream: the independent
//! [`TimingChecker`] rules (as the [`TimingAudit`] sink).
//!
//! The model is *command accurate*: a memory controller drives it by issuing
//! [`DramCommand`]s ([`CommandKind::Activate`], [`CommandKind::Precharge`],
//! [`CommandKind::Read`], [`CommandKind::Write`]) subject to the readiness
//! rules of [`Channel::can_issue`]. Time is counted in DRAM clock cycles
//! (DDR2-800: one DRAM cycle = 2.5 ns = [`CPU_CYCLES_PER_DRAM_CYCLE`] CPU
//! cycles at the paper's 4 GHz core clock).
//!
//! # Example
//!
//! ```
//! use stfm_dram::{Channel, DramConfig, DramCommand, BankId};
//!
//! let cfg = DramConfig::ddr2_800();
//! let mut ch = Channel::new(&cfg);
//! let t = cfg.timing;
//!
//! // Open row 7 of bank 0, then read column 3 of that row.
//! use stfm_dram::DramCycle;
//! let start = DramCycle::ZERO;
//! let act = DramCommand::activate(BankId(0), 7);
//! assert!(ch.can_issue(&act, start));
//! ch.issue(&act, start);
//!
//! let rd = DramCommand::read(BankId(0), 7, 3);
//! assert!(!ch.can_issue(&rd, start)); // tRCD not yet elapsed
//! assert!(ch.can_issue(&rd, start + t.t_rcd));
//! let done = ch.issue(&rd, start + t.t_rcd);
//! assert_eq!(done, start + t.t_rcd + t.t_cl + t.burst_cycles());
//! ```

pub mod address;
pub mod bank;
pub mod channel;
pub mod checker;
pub mod command;
pub mod config;
pub mod latency;
pub mod refresh;
pub mod rng;
pub mod timing;

pub use address::{AddressMapping, DecodedAddr, PhysAddr};
pub use bank::{Bank, BankState};
pub use channel::{Channel, ClassEdges};
pub use checker::{TimingAudit, TimingChecker, TimingViolation};
pub use command::{BankId, ChannelId, CommandKind, DramCommand};
pub use config::{DramConfig, CHIPS_PER_DIMM, CONTROLLER_OVERHEAD, LINE_BYTES, ROWS};
pub use latency::{command_bank_latency, AccessCategory};
pub use refresh::RefreshState;
pub use timing::TimingParams;

pub use stfm_cycles::{
    ClockRatio, CpuCycle, CpuDelta, DramCycle, DramDelta, CPU_CYCLES_PER_DRAM_CYCLE,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_conversions_round_trip_on_boundaries() {
        let r = ClockRatio::PAPER;
        assert_eq!(r.dram_to_cpu(DramCycle::new(6)), CpuCycle::new(60));
        assert_eq!(r.cpu_to_dram(CpuCycle::new(60)), 6);
        assert_eq!(r.cpu_to_dram(CpuCycle::new(69)), 6);
    }
}
