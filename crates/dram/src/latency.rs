//! Access-latency categories and per-command bank latencies.
//!
//! The paper's three cases (Section 2.1):
//!
//! * **Row hit** — only a column access: `tCL`.
//! * **Row closed** — activate + column access: `tRCD + tCL`.
//! * **Row conflict** — precharge + activate + column access:
//!   `tRP + tRCD + tCL`.
//!
//! Transferring the cache line adds `BL/2` bus cycles in every case.

use crate::command::{CommandKind, DramCommand};
use crate::timing::TimingParams;
use crate::DramDelta;

/// How a request finds the bank's row buffer when its service begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessCategory {
    /// Requested row is already open.
    Hit,
    /// No row is open.
    Closed,
    /// A different row is open.
    Conflict,
}

impl AccessCategory {
    /// Classifies an access to `row` against the bank's `open_row`.
    #[inline]
    pub fn classify(open_row: Option<u32>, row: u32) -> Self {
        match open_row {
            Some(r) if r == row => AccessCategory::Hit,
            Some(_) => AccessCategory::Conflict,
            None => AccessCategory::Closed,
        }
    }

    /// Bank access latency of this category in DRAM cycles, excluding the
    /// data burst (paper Section 2.1's `tCL` / `tRCD+tCL` / `tRP+tRCD+tCL`).
    #[inline]
    pub fn bank_latency(self, t: &TimingParams) -> DramDelta {
        match self {
            AccessCategory::Hit => t.t_cl,
            AccessCategory::Closed => t.t_rcd + t.t_cl,
            AccessCategory::Conflict => t.t_rp + t.t_rcd + t.t_cl,
        }
    }

    /// Full service latency including the `BL/2` data transfer.
    #[inline]
    pub fn service_latency(self, t: &TimingParams) -> DramDelta {
        self.bank_latency(t) + t.burst_cycles()
    }
}

/// Bank-occupancy latency contributed by a single DRAM command, used by the
/// STFM interference updates (`Latency(R)` in the paper's Section 3.2.2):
/// `tRCD` for ACTIVATE, `tRP` for PRECHARGE, `tCL + BL/2` / `tCWL + BL/2`
/// for READ / WRITE.
#[inline]
pub fn command_bank_latency(cmd: &DramCommand, t: &TimingParams) -> DramDelta {
    match cmd.kind {
        CommandKind::Activate { .. } => t.t_rcd,
        CommandKind::Precharge => t.t_rp,
        CommandKind::Read { .. } => t.read_latency(),
        CommandKind::Write { .. } => t.write_latency(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::BankId;
    use crate::CPU_CYCLES_PER_DRAM_CYCLE;

    #[test]
    fn classification() {
        assert_eq!(AccessCategory::classify(Some(4), 4), AccessCategory::Hit);
        assert_eq!(
            AccessCategory::classify(Some(5), 4),
            AccessCategory::Conflict
        );
        assert_eq!(AccessCategory::classify(None, 4), AccessCategory::Closed);
    }

    #[test]
    fn latencies_match_paper_nanoseconds() {
        let t = TimingParams::ddr2_800();
        let ns = |c: DramDelta| c.get() * CPU_CYCLES_PER_DRAM_CYCLE / 4; // 2.5 ns per cycle
        assert_eq!(ns(AccessCategory::Hit.bank_latency(&t)), 15);
        assert_eq!(ns(AccessCategory::Closed.bank_latency(&t)), 30);
        assert_eq!(ns(AccessCategory::Conflict.bank_latency(&t)), 45);
        // With BL/2 and the controller's 10 ns overhead these become the
        // paper's 35/50/70 ns round trips (checked end to end in stfm-mc).
        assert_eq!(ns(AccessCategory::Hit.service_latency(&t)), 25);
    }

    #[test]
    fn command_latencies() {
        let t = TimingParams::ddr2_800();
        assert_eq!(
            command_bank_latency(&DramCommand::activate(BankId(0), 1), &t),
            t.t_rcd
        );
        assert_eq!(
            command_bank_latency(&DramCommand::precharge(BankId(0)), &t),
            t.t_rp
        );
        assert_eq!(
            command_bank_latency(&DramCommand::read(BankId(0), 1, 0), &t),
            t.t_cl + t.burst_cycles()
        );
        assert_eq!(
            command_bank_latency(&DramCommand::write(BankId(0), 1, 0), &t),
            t.t_cwl + t.burst_cycles()
        );
    }

    #[test]
    fn ordering_hit_closed_conflict() {
        let t = TimingParams::ddr2_800();
        assert!(
            AccessCategory::Hit.service_latency(&t) < AccessCategory::Closed.service_latency(&t)
        );
        assert!(
            AccessCategory::Closed.service_latency(&t)
                < AccessCategory::Conflict.service_latency(&t)
        );
    }
}
