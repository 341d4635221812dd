//! Per-bank state machine and timing bookkeeping.

use crate::command::{CommandKind, DramCommand};
use crate::timing::TimingParams;
use crate::DramCycle;

/// Observable state of a DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankState {
    /// No row in the row buffer.
    Closed,
    /// `row` is (or is being moved) in the row buffer.
    Open(u32),
}

/// One DRAM bank: a row buffer plus the earliest-issue timestamps that
/// encode the bank-local timing constraints.
///
/// The bank does not know about the shared command/address/data buses; those
/// constraints live in [`crate::Channel`].
#[derive(Debug, Clone)]
pub struct Bank {
    open_row: Option<u32>,
    /// Earliest cycle an ACTIVATE may issue (tRC, tRP).
    next_activate: DramCycle,
    /// Earliest cycle a PRECHARGE may issue (tRAS, tRTP, write recovery).
    next_precharge: DramCycle,
    /// Earliest cycle a READ may issue (tRCD, tCCD).
    next_read: DramCycle,
    /// Earliest cycle a WRITE may issue (tRCD, tCCD).
    next_write: DramCycle,
    /// End of the most recent bank occupancy (data burst / tRCD / tRP),
    /// used to answer "is this bank currently servicing something".
    busy_until: DramCycle,
}

impl Bank {
    /// Creates an idle, closed bank.
    pub fn new() -> Self {
        Bank {
            open_row: None,
            next_activate: DramCycle::ZERO,
            next_precharge: DramCycle::ZERO,
            next_read: DramCycle::ZERO,
            next_write: DramCycle::ZERO,
            busy_until: DramCycle::ZERO,
        }
    }

    /// The currently open row, if any.
    #[inline]
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Observable state.
    #[inline]
    pub fn state(&self) -> BankState {
        match self.open_row {
            Some(r) => BankState::Open(r),
            None => BankState::Closed,
        }
    }

    /// True while the bank is occupied by an in-flight operation at `now`.
    #[inline]
    pub fn is_busy(&self, now: DramCycle) -> bool {
        now < self.busy_until
    }

    /// End of the current bank occupancy.
    #[inline]
    pub fn busy_until(&self) -> DramCycle {
        self.busy_until
    }

    /// The bank-local thresholds of the bank's two command classes for a
    /// read (`write == false`) or write access: `(hit, miss)`, where `hit`
    /// is the earliest cycle of the column command to the open row (`None`
    /// on a closed bank) and `miss` that of the command a row miss needs
    /// next — PRECHARGE when a row is open, ACTIVATE when closed. The
    /// command-free form of [`Bank::earliest_issue`], which stays the
    /// reference it is tested against.
    #[inline]
    pub(crate) fn class_edges(&self, write: bool) -> (Option<DramCycle>, DramCycle) {
        match self.open_row {
            Some(_) if write => (Some(self.next_write), self.next_precharge),
            Some(_) => (Some(self.next_read), self.next_precharge),
            None => (None, self.next_activate),
        }
    }

    /// The earliest cycle at which `cmd` satisfies the *bank-local* timing
    /// constraints, assuming the bank receives no other command first.
    /// `None` when the row-buffer state precondition fails (e.g. a READ
    /// whose row is not open) — then no amount of waiting helps; the bank
    /// needs a different command first. Exact mirror of
    /// [`Bank::can_issue`]: for `Some(at)`, `can_issue(cmd, c)` is false
    /// for all `c < at` and true at `at` (state frozen).
    pub fn earliest_issue(&self, cmd: &DramCommand) -> Option<DramCycle> {
        match cmd.kind {
            CommandKind::Activate { .. } => self.open_row.is_none().then_some(self.next_activate),
            CommandKind::Precharge => self.open_row.is_some().then_some(self.next_precharge),
            CommandKind::Read { row, .. } => (self.open_row == Some(row)).then_some(self.next_read),
            CommandKind::Write { row, .. } => {
                (self.open_row == Some(row)).then_some(self.next_write)
            }
            CommandKind::Refresh => self.open_row.is_none().then_some(self.next_activate),
        }
    }

    /// Checks bank-local timing constraints for `cmd` at cycle `now`.
    pub fn can_issue(&self, cmd: &DramCommand, now: DramCycle) -> bool {
        match cmd.kind {
            CommandKind::Activate { .. } => self.open_row.is_none() && now >= self.next_activate,
            CommandKind::Precharge => self.open_row.is_some() && now >= self.next_precharge,
            CommandKind::Read { row, .. } => self.open_row == Some(row) && now >= self.next_read,
            CommandKind::Write { row, .. } => self.open_row == Some(row) && now >= self.next_write,
            CommandKind::Refresh => self.open_row.is_none() && now >= self.next_activate,
        }
    }

    /// Applies `cmd` at cycle `now` and returns the cycle at which the
    /// command's bank-level effect completes (tRCD for ACTIVATE, tRP for
    /// PRECHARGE, end of the data burst for READ/WRITE).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the command violates a bank-local constraint;
    /// callers must check [`Bank::can_issue`] first.
    pub fn issue(&mut self, cmd: &DramCommand, now: DramCycle, t: &TimingParams) -> DramCycle {
        debug_assert!(self.can_issue(cmd, now), "illegal {cmd} at cycle {now}");
        let done = match cmd.kind {
            CommandKind::Activate { row } => {
                self.open_row = Some(row);
                self.next_read = now + t.t_rcd;
                self.next_write = now + t.t_rcd;
                self.next_precharge = self.next_precharge.max(now + t.t_ras);
                self.next_activate = now + t.t_rc;
                now + t.t_rcd
            }
            CommandKind::Precharge => {
                self.open_row = None;
                self.next_activate = self.next_activate.max(now + t.t_rp);
                now + t.t_rp
            }
            CommandKind::Read { .. } => {
                self.next_read = self.next_read.max(now + t.t_ccd);
                self.next_write = self.next_write.max(now + t.t_ccd);
                self.next_precharge = self.next_precharge.max(now + t.t_rtp);
                now + t.read_latency()
            }
            CommandKind::Write { .. } => {
                self.next_read = self.next_read.max(now + t.t_ccd);
                self.next_write = self.next_write.max(now + t.t_ccd);
                // Write recovery: data end + tWR before precharge.
                self.next_precharge = self.next_precharge.max(now + t.write_latency() + t.t_wr);
                now + t.write_latency()
            }
            CommandKind::Refresh => {
                // Bank-level effect of an all-bank refresh; the channel
                // coordinates the cross-bank blocking.
                self.next_activate = self.next_activate.max(now + t.t_rfc);
                now + t.t_rfc
            }
        };
        self.busy_until = self.busy_until.max(done);
        done
    }

    /// Issues a column command with auto-precharge (DDR2 RDA/WRA): the
    /// device precharges the row itself at the earliest legal time, with
    /// no extra command-bus slot. Returns the data-burst completion cycle.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the column command is not issuable.
    pub fn issue_auto_precharge(
        &mut self,
        cmd: &DramCommand,
        now: DramCycle,
        t: &TimingParams,
    ) -> DramCycle {
        debug_assert!(
            cmd.kind.is_column(),
            "auto-precharge needs a column command"
        );
        let done = self.issue(cmd, now, t);
        // Internal precharge at the earliest point tRTP / write recovery
        // allows; the row is no longer usable for further column accesses.
        let pre_at = self.next_precharge.max(now);
        self.open_row = None;
        self.next_activate = self.next_activate.max(pre_at + t.t_rp);
        done
    }

    /// Forces the row buffer closed (used by the channel's refresh model).
    pub(crate) fn force_close(&mut self, reopen_at: DramCycle) {
        self.open_row = None;
        self.next_activate = self.next_activate.max(reopen_at);
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::BankId;

    fn t() -> TimingParams {
        TimingParams::ddr2_800()
    }

    /// All bank tests issue their first command at time zero.
    const T0: DramCycle = DramCycle::ZERO;

    #[test]
    fn fresh_bank_is_closed_and_activatable() {
        let b = Bank::new();
        assert_eq!(b.state(), BankState::Closed);
        assert!(b.can_issue(&DramCommand::activate(BankId(0), 5), T0));
        assert!(!b.can_issue(&DramCommand::read(BankId(0), 5, 0), T0));
        assert!(!b.can_issue(&DramCommand::precharge(BankId(0)), T0));
    }

    #[test]
    fn read_waits_for_trcd() {
        let mut b = Bank::new();
        let tp = t();
        b.issue(&DramCommand::activate(BankId(0), 5), T0, &tp);
        let rd = DramCommand::read(BankId(0), 5, 0);
        assert!(!b.can_issue(&rd, T0 + tp.t_rcd - 1));
        assert!(b.can_issue(&rd, T0 + tp.t_rcd));
    }

    #[test]
    fn read_to_wrong_row_is_illegal() {
        let mut b = Bank::new();
        let tp = t();
        b.issue(&DramCommand::activate(BankId(0), 5), T0, &tp);
        assert!(!b.can_issue(&DramCommand::read(BankId(0), 6, 0), DramCycle::new(100)));
    }

    #[test]
    fn precharge_respects_tras() {
        let mut b = Bank::new();
        let tp = t();
        b.issue(&DramCommand::activate(BankId(0), 5), T0, &tp);
        let pre = DramCommand::precharge(BankId(0));
        assert!(!b.can_issue(&pre, T0 + tp.t_ras - 1));
        assert!(b.can_issue(&pre, T0 + tp.t_ras));
    }

    #[test]
    fn activate_after_precharge_respects_trp_and_trc() {
        let mut b = Bank::new();
        let tp = t();
        b.issue(&DramCommand::activate(BankId(0), 5), T0, &tp);
        b.issue(&DramCommand::precharge(BankId(0)), T0 + tp.t_ras, &tp);
        let act = DramCommand::activate(BankId(0), 9);
        // Both tRC (from the first ACT) and tRP (from the PRE) must hold.
        let earliest = T0 + tp.t_rc.max(tp.t_ras + tp.t_rp);
        assert!(!b.can_issue(&act, earliest - 1));
        assert!(b.can_issue(&act, earliest));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut b = Bank::new();
        let tp = t();
        b.issue(&DramCommand::activate(BankId(0), 5), T0, &tp);
        b.issue(&DramCommand::write(BankId(0), 5, 0), T0 + tp.t_rcd, &tp);
        let pre = DramCommand::precharge(BankId(0));
        let earliest = T0 + (tp.t_rcd + tp.write_latency() + tp.t_wr).max(tp.t_ras);
        assert!(!b.can_issue(&pre, earliest - 1));
        assert!(b.can_issue(&pre, earliest));
    }

    #[test]
    fn back_to_back_reads_respect_tccd() {
        let mut b = Bank::new();
        let tp = t();
        b.issue(&DramCommand::activate(BankId(0), 5), T0, &tp);
        b.issue(&DramCommand::read(BankId(0), 5, 0), T0 + tp.t_rcd, &tp);
        let rd = DramCommand::read(BankId(0), 5, 1);
        assert!(!b.can_issue(&rd, T0 + tp.t_rcd + tp.t_ccd - 1));
        assert!(b.can_issue(&rd, T0 + tp.t_rcd + tp.t_ccd));
    }

    #[test]
    fn busy_tracking_covers_data_burst() {
        let mut b = Bank::new();
        let tp = t();
        b.issue(&DramCommand::activate(BankId(0), 5), T0, &tp);
        let done = b.issue(&DramCommand::read(BankId(0), 5, 0), T0 + tp.t_rcd, &tp);
        assert_eq!(done, (tp.t_rcd + tp.read_latency()).after_zero());
        assert!(b.is_busy(done - 1));
        assert!(!b.is_busy(done));
    }
}

#[cfg(test)]
mod auto_precharge_tests {
    use super::*;
    use crate::command::BankId;

    #[test]
    fn auto_precharge_closes_the_row_and_delays_reopen() {
        let tp = TimingParams::ddr2_800();
        let mut b = Bank::new();
        b.issue(&DramCommand::activate(BankId(0), 5), DramCycle::ZERO, &tp);
        let done = b.issue_auto_precharge(
            &DramCommand::read(BankId(0), 5, 0),
            tp.t_rcd.after_zero(),
            &tp,
        );
        assert_eq!(done, (tp.t_rcd + tp.read_latency()).after_zero());
        assert_eq!(b.open_row(), None);
        // The row reopens only after the internal precharge completes:
        // earliest PRE is bounded by tRAS here (tRAS > tRCD + tRTP).
        let act = DramCommand::activate(BankId(0), 7);
        let earliest = tp.t_ras + tp.t_rp;
        assert!(!b.can_issue(&act, (earliest - 1).after_zero()));
        assert!(b.can_issue(&act, earliest.max(tp.t_rc).after_zero()));
    }

    #[test]
    fn no_further_column_access_after_auto_precharge() {
        let tp = TimingParams::ddr2_800();
        let mut b = Bank::new();
        b.issue(&DramCommand::activate(BankId(0), 5), DramCycle::ZERO, &tp);
        b.issue_auto_precharge(
            &DramCommand::read(BankId(0), 5, 0),
            tp.t_rcd.after_zero(),
            &tp,
        );
        assert!(!b.can_issue(&DramCommand::read(BankId(0), 5, 1), DramCycle::new(1000)));
    }
}
