//! Independent timing auditor.
//!
//! [`TimingChecker`] re-derives every DDR2 constraint from the raw command
//! stream of one channel, with no code shared with [`crate::Bank`] /
//! [`crate::Channel`]. Feeding it each issued command catches scheduler or
//! device-model bugs that would otherwise silently produce physically
//! impossible schedules. [`TimingAudit`] is the same rule engine as a
//! passive [`Sink`]: one checker per channel, fed from the telemetry
//! event stream, which is how whole runs (`stfm run --check`) are audited.

use crate::command::{BankId, CommandKind, DramCommand};
use crate::config::DramConfig;
use crate::timing::TimingParams;
use crate::DramCycle;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use stfm_telemetry::{CmdKind, Event, Sink};

/// A detected violation of a DDR2 timing or state constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingViolation {
    /// Cycle at which the offending command was issued.
    pub cycle: DramCycle,
    /// The offending command.
    pub command: DramCommand,
    /// Name of the violated constraint (e.g. `"tRCD"`).
    pub constraint: &'static str,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: {} violates {}: {}",
            self.cycle, self.command, self.constraint, self.detail
        )
    }
}

impl std::error::Error for TimingViolation {}

#[derive(Debug, Clone, Copy, Default)]
struct BankAudit {
    open_row: Option<u32>,
    last_activate: Option<DramCycle>,
    last_precharge: Option<DramCycle>,
    last_read: Option<DramCycle>,
    last_write: Option<DramCycle>,
}

/// Replays a command stream and reports the first violated constraint per
/// command.
#[derive(Debug, Clone)]
pub struct TimingChecker {
    t: TimingParams,
    banks: Vec<BankAudit>,
    last_cmd: Option<DramCycle>,
    activates: VecDeque<DramCycle>,
    last_any_activate: Option<DramCycle>,
    data_busy_until: DramCycle,
    last_write_data_end: Option<DramCycle>,
    violations: Vec<TimingViolation>,
}

impl TimingChecker {
    /// Creates a checker for `banks` banks under timing `t`.
    pub fn new(banks: u32, t: TimingParams) -> Self {
        TimingChecker {
            t,
            banks: (0..banks).map(|_| BankAudit::default()).collect(),
            last_cmd: None,
            activates: VecDeque::with_capacity(8),
            last_any_activate: None,
            data_busy_until: DramCycle::ZERO,
            last_write_data_end: None,
            violations: Vec::new(),
        }
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> &[TimingViolation] {
        &self.violations
    }

    fn violate(
        &mut self,
        cycle: DramCycle,
        command: &DramCommand,
        constraint: &'static str,
        detail: String,
    ) {
        self.violations.push(TimingViolation {
            cycle,
            command: *command,
            constraint,
            detail,
        });
    }

    /// Notifies the checker that the channel performed an all-bank refresh
    /// occupying `[start, end)` (the implicit-precharge + tRFC window).
    pub fn observe_refresh(&mut self, start: DramCycle, end: DramCycle) {
        for b in &mut self.banks {
            b.open_row = None;
            // Model the refresh as a precharge completing at end − tRP so
            // the tRP-to-activate rule is preserved.
            b.last_precharge = Some(end - self.t.t_rp);
        }
        self.data_busy_until = self.data_busy_until.max(end);
        self.last_cmd = Some(end.saturating_sub(1).max(start));
    }

    /// Audits one issued command. Any violated constraint is recorded (the
    /// checker keeps going so a full run can be audited in one pass).
    pub fn observe(&mut self, cmd: &DramCommand, now: DramCycle) {
        if let Some(last) = self.last_cmd {
            if now <= last {
                // Command bus carries one command per cycle, in time order.
                if now == last {
                    self.violate(
                        now,
                        cmd,
                        "cmd-bus",
                        format!("second command in cycle {now}"),
                    );
                } else {
                    self.violate(
                        now,
                        cmd,
                        "time-order",
                        format!("command at {now} after command at {last}"),
                    );
                }
            }
        }

        let bank_idx = cmd.bank.0 as usize;
        if bank_idx >= self.banks.len() {
            self.violate(now, cmd, "bank-range", format!("bank {}", cmd.bank));
            return;
        }

        match cmd.kind {
            CommandKind::Activate { row } => self.observe_activate(cmd, now, row),
            CommandKind::Precharge => self.observe_precharge(cmd, now),
            CommandKind::Read { row, .. } => self.observe_read(cmd, now, row),
            CommandKind::Write { row, .. } => self.observe_write(cmd, now, row),
        }
        self.last_cmd = Some(now);
    }

    fn observe_activate(&mut self, cmd: &DramCommand, now: DramCycle, row: u32) {
        let t = self.t;
        let b = self.banks[cmd.bank.0 as usize];
        if let Some(open) = b.open_row {
            self.violate(now, cmd, "state", format!("row {open} still open"));
        }
        if let Some(last_act) = b.last_activate {
            if now < last_act + t.t_rc {
                self.violate(now, cmd, "tRC", format!("last ACT at {last_act}"));
            }
        }
        if let Some(last_pre) = b.last_precharge {
            if now < last_pre + t.t_rp {
                self.violate(now, cmd, "tRP", format!("last PRE at {last_pre}"));
            }
        }
        if let Some(any) = self.last_any_activate {
            if now < any + t.t_rrd {
                self.violate(now, cmd, "tRRD", format!("last ACT (any bank) at {any}"));
            }
        }
        // tFAW allows at most four ACTs per window: the new ACT must be at
        // least tFAW after the fourth-most-recent one.
        while self.activates.len() > 4 {
            self.activates.pop_front();
        }
        if self.activates.len() == 4 {
            if let Some(&fourth_last) = self.activates.front() {
                if now < fourth_last + t.t_faw {
                    self.violate(now, cmd, "tFAW", format!("5th ACT since {fourth_last}"));
                }
            }
        }
        self.activates.push_back(now);
        self.last_any_activate = Some(now);
        let b = &mut self.banks[cmd.bank.0 as usize];
        b.open_row = Some(row);
        b.last_activate = Some(now);
    }

    fn observe_precharge(&mut self, cmd: &DramCommand, now: DramCycle) {
        let t = self.t;
        let b = self.banks[cmd.bank.0 as usize];
        if b.open_row.is_none() {
            self.violate(now, cmd, "state", "precharge of a closed bank".into());
        }
        if let Some(act) = b.last_activate {
            if now < act + t.t_ras {
                self.violate(now, cmd, "tRAS", format!("ACT at {act}"));
            }
        }
        if let Some(rd) = b.last_read {
            if now < rd + t.t_rtp {
                self.violate(now, cmd, "tRTP", format!("READ at {rd}"));
            }
        }
        if let Some(wr) = b.last_write {
            let data_end = wr + t.write_latency();
            if now < data_end + t.t_wr {
                self.violate(now, cmd, "tWR", format!("WRITE at {wr}"));
            }
        }
        let b = &mut self.banks[cmd.bank.0 as usize];
        b.open_row = None;
        b.last_precharge = Some(now);
    }

    fn check_column_common(&mut self, cmd: &DramCommand, now: DramCycle, row: u32) {
        let t = self.t;
        let b = self.banks[cmd.bank.0 as usize];
        match b.open_row {
            Some(open) if open == row => {}
            Some(open) => self.violate(now, cmd, "state", format!("row {open} open, not {row}")),
            None => self.violate(now, cmd, "state", "no row open".into()),
        }
        if let Some(act) = b.last_activate {
            if now < act + t.t_rcd {
                self.violate(now, cmd, "tRCD", format!("ACT at {act}"));
            }
        }
    }

    fn observe_read(&mut self, cmd: &DramCommand, now: DramCycle, row: u32) {
        let t = self.t;
        self.check_column_common(cmd, now, row);
        let data_start = now + t.t_cl;
        if data_start < self.data_busy_until {
            self.violate(
                now,
                cmd,
                "data-bus",
                format!("bus busy until {}", self.data_busy_until),
            );
        }
        if let Some(wde) = self.last_write_data_end {
            if now < wde + t.t_wtr {
                self.violate(now, cmd, "tWTR", format!("write data ended at {wde}"));
            }
        }
        self.data_busy_until = data_start + t.burst_cycles();
        self.banks[cmd.bank.0 as usize].last_read = Some(now);
    }

    fn observe_write(&mut self, cmd: &DramCommand, now: DramCycle, row: u32) {
        let t = self.t;
        self.check_column_common(cmd, now, row);
        let data_start = now + t.t_cwl;
        if data_start < self.data_busy_until {
            self.violate(
                now,
                cmd,
                "data-bus",
                format!("bus busy until {}", self.data_busy_until),
            );
        }
        self.data_busy_until = data_start + t.burst_cycles();
        self.last_write_data_end = Some(self.data_busy_until);
        self.banks[cmd.bank.0 as usize].last_write = Some(now);
    }
}

/// The [`TimingChecker`] as a [`Sink`]: one checker per channel, fed the
/// `DramCommandIssued` and `RefreshIssued` events of its channel.
#[derive(Debug, Clone)]
pub struct TimingAudit {
    channels: Vec<TimingChecker>,
}

impl TimingAudit {
    /// Creates an audit of every channel of `config`.
    pub fn new(config: &DramConfig) -> Self {
        TimingAudit {
            channels: (0..config.channels)
                .map(|_| TimingChecker::new(config.banks, config.timing))
                .collect(),
        }
    }

    /// Channel `channel`'s checker.
    pub fn channel(&self, channel: u32) -> &TimingChecker {
        &self.channels[channel as usize]
    }

    /// Checks that no channel recorded a violation.
    ///
    /// # Errors
    ///
    /// The first violation of the lowest-numbered channel that recorded
    /// any.
    pub fn check(&self) -> Result<(), String> {
        for (i, c) in self.channels.iter().enumerate() {
            if let Some(v) = c.violations().first() {
                let total = c.violations().len();
                return Err(format!(
                    "timing violation on channel {i}: {v} ({total} total)"
                ));
            }
        }
        Ok(())
    }
}

impl Sink for TimingAudit {
    fn record(&mut self, event: &Event) {
        match *event {
            Event::DramCommandIssued {
                dram_cycle,
                channel,
                bank,
                cmd,
                row,
                ..
            } => {
                let (bank, row) = (BankId(bank), row.unwrap_or_default());
                // The event carries no column; no rule reads it.
                let cmd = match cmd {
                    CmdKind::Activate => DramCommand::activate(bank, row),
                    CmdKind::Precharge => DramCommand::precharge(bank),
                    CmdKind::Read => DramCommand::read(bank, row, 0),
                    CmdKind::Write => DramCommand::write(bank, row, 0),
                    // Refreshes are not commands here: they arrive as
                    // `RefreshIssued`, below.
                    CmdKind::Refresh => return,
                };
                self.channels[channel as usize].observe(&cmd, dram_cycle);
            }
            Event::RefreshIssued {
                dram_cycle,
                channel,
                end_cycle,
            } => self.channels[channel as usize].observe_refresh(dram_cycle, end_cycle),
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::BankId;

    fn checker() -> TimingChecker {
        TimingChecker::new(8, TimingParams::ddr2_800())
    }

    #[test]
    fn legal_sequence_is_clean() {
        let t = TimingParams::ddr2_800();
        let mut c = checker();
        c.observe(&DramCommand::activate(BankId(0), 3), DramCycle::ZERO);
        c.observe(&DramCommand::read(BankId(0), 3, 0), t.t_rcd.after_zero());
        c.observe(&DramCommand::precharge(BankId(0)), t.t_ras.after_zero());
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    #[test]
    fn catches_trcd_violation() {
        let mut c = checker();
        c.observe(&DramCommand::activate(BankId(0), 3), DramCycle::ZERO);
        c.observe(&DramCommand::read(BankId(0), 3, 0), DramCycle::new(2));
        assert_eq!(c.violations()[0].constraint, "tRCD");
    }

    #[test]
    fn catches_row_mismatch() {
        let t = TimingParams::ddr2_800();
        let mut c = checker();
        c.observe(&DramCommand::activate(BankId(0), 3), DramCycle::ZERO);
        c.observe(&DramCommand::read(BankId(0), 4, 0), t.t_rcd.after_zero());
        assert!(c.violations().iter().any(|v| v.constraint == "state"));
    }

    #[test]
    fn catches_double_activate() {
        let mut c = checker();
        c.observe(&DramCommand::activate(BankId(0), 3), DramCycle::ZERO);
        c.observe(&DramCommand::activate(BankId(0), 4), DramCycle::new(100));
        assert!(c.violations().iter().any(|v| v.constraint == "state"));
    }

    #[test]
    fn catches_tras_violation() {
        let t = TimingParams::ddr2_800();
        let mut c = checker();
        c.observe(&DramCommand::activate(BankId(0), 3), DramCycle::ZERO);
        c.observe(
            &DramCommand::precharge(BankId(0)),
            (t.t_ras - 1).after_zero(),
        );
        assert!(c.violations().iter().any(|v| v.constraint == "tRAS"));
    }

    #[test]
    fn catches_tfaw_violation() {
        let t = TimingParams::ddr2_800();
        let mut c = checker();
        for b in 0..4u32 {
            c.observe(
                &DramCommand::activate(BankId(b), 1),
                (u64::from(b) * t.t_rrd).after_zero(),
            );
        }
        // Fifth ACT only 4·tRRD after the first: inside the tFAW window.
        c.observe(
            &DramCommand::activate(BankId(4), 1),
            (4 * t.t_rrd).after_zero(),
        );
        assert!(c.violations().iter().any(|v| v.constraint == "tFAW"));
    }

    #[test]
    fn catches_command_bus_conflict() {
        let mut c = checker();
        c.observe(&DramCommand::activate(BankId(0), 1), DramCycle::new(5));
        c.observe(&DramCommand::activate(BankId(1), 1), DramCycle::new(5));
        assert!(c.violations().iter().any(|v| v.constraint == "cmd-bus"));
    }

    fn on(channel: u32, cycle: u64, bank: u32, cmd: CmdKind) -> Event {
        Event::DramCommandIssued {
            dram_cycle: DramCycle::new(cycle),
            channel,
            bank,
            cmd,
            row: Some(3),
            thread: None,
        }
    }

    /// Each channel has its own command bus and tRRD window: a same-cycle
    /// and a back-to-back pair of ACTs across two channels is legal, and a
    /// tRCD-violating READ is charged to the channel it was issued on.
    #[test]
    fn the_audit_demultiplexes_channels() {
        let cfg = DramConfig {
            channels: 2,
            ..DramConfig::ddr2_800()
        };
        let mut audit = TimingAudit::new(&cfg);
        // tRRD = 3 cycles: 13 and 14 are back to back across channels.
        let act = CmdKind::Activate;
        for event in [
            on(0, 10, 0, act),
            on(1, 10, 0, act),
            on(0, 13, 1, act),
            on(1, 14, 1, act),
        ] {
            audit.record(&event);
        }
        assert_eq!(audit.check(), Ok(()));
        // tRCD = 6 cycles: a READ at 15 is one early for the ACT at 10.
        audit.record(&on(1, 15, 0, CmdKind::Read));
        assert!(audit.channel(0).violations().is_empty());
        let v = audit.channel(1).violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].constraint, "tRCD");
        let msg = audit.check().unwrap_err();
        assert!(msg.starts_with("timing violation on channel 1: "), "{msg}");
    }
}
