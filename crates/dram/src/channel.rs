//! A DRAM channel: banks plus the shared command/address and data buses.

use crate::bank::Bank;
use crate::command::{BankId, CommandKind, DramCommand};
use crate::config::DramConfig;
use crate::refresh::RefreshState;
use crate::timing::TimingParams;
use crate::DramCycle;
#[cfg(debug_assertions)]
use crate::TimingChecker;
use stfm_telemetry::{CmdKind, Event, Sink};

/// Maps a device command onto the telemetry vocabulary.
fn trace_parts(kind: &CommandKind) -> (CmdKind, Option<u32>) {
    match *kind {
        CommandKind::Activate { row } => (CmdKind::Activate, Some(row)),
        CommandKind::Precharge => (CmdKind::Precharge, None),
        CommandKind::Read { row, .. } => (CmdKind::Read, Some(row)),
        CommandKind::Write { row, .. } => (CmdKind::Write, Some(row)),
    }
}

/// Number of ACTIVATEs bounded by the tFAW window.
const FAW_WINDOW: usize = 4;

/// One DRAM channel: a set of banks behind a shared command/address bus and
/// a shared bidirectional data bus.
///
/// Cross-bank constraints enforced here:
///
/// * one command per DRAM cycle on the command/address bus;
/// * data-bus occupancy (each burst holds the bus for `BL/2` cycles) and
///   read↔write turnaround (`tWTR` after write data before any READ);
/// * `tRRD` between ACTIVATEs and at most four ACTIVATEs per `tFAW` window;
/// * periodic all-bank refresh (see [`RefreshState`]).
#[derive(Debug, Clone)]
pub struct Channel {
    timing: TimingParams,
    banks: Vec<Bank>,
    /// Cycle after which the command bus is free.
    cmd_bus_free: DramCycle,
    /// Cycle after which the data bus is free.
    data_bus_free: DramCycle,
    /// Earliest cycle a READ may issue (write-to-read turnaround).
    next_read_issue: DramCycle,
    /// Earliest cycle a WRITE may issue (read-to-write: bus occupancy).
    next_write_issue: DramCycle,
    /// Earliest cycle any ACTIVATE may issue (tRRD).
    next_activate_any: DramCycle,
    /// Issue cycles of the most recent ACTIVATEs (tFAW sliding window).
    recent_activates: [DramCycle; FAW_WINDOW],
    refresh: RefreshState,
    /// Self-audit: an independent checker fed every issued command, so
    /// simulations built with debug assertions validate their own
    /// command streams. Absent from plain release builds, where the
    /// audit would only cost time.
    #[cfg(debug_assertions)]
    audit: TimingChecker,
    /// Commands issued, by rough class, for statistics.
    stats: ChannelStats,
}

/// Earliest issue cycles of one bank's two command classes; see
/// [`Channel::class_edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassEdges {
    /// The column command to the open row (what a row hit needs); `None`
    /// on a closed bank, where nothing can hit.
    pub hit: Option<DramCycle>,
    /// What a row miss needs next: PRECHARGE when a row is open, ACTIVATE
    /// when the bank is closed.
    pub miss: DramCycle,
}

impl ClassEdges {
    /// The edge of a request's class: `hit` for a row hit, else `miss`.
    /// A row hit implies an open row, so `hit` is present then.
    #[inline]
    pub fn of(&self, row_hit: bool) -> DramCycle {
        match self.hit {
            Some(at) if row_hit => at,
            _ => self.miss,
        }
    }

    /// The earlier edge among the classes present in a bank's waiting
    /// list (`None` when neither is).
    #[inline]
    pub fn earliest(&self, has_hit: bool, has_miss: bool) -> Option<DramCycle> {
        match (has_hit, has_miss) {
            (true, true) => Some(self.of(true).min(self.miss)),
            (true, false) => Some(self.of(true)),
            (false, true) => Some(self.miss),
            (false, false) => None,
        }
    }
}

/// Command counts observed by a channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// ACTIVATE commands issued.
    pub activates: u64,
    /// PRECHARGE commands issued.
    pub precharges: u64,
    /// READ commands issued.
    pub reads: u64,
    /// WRITE commands issued.
    pub writes: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
}

impl Channel {
    /// Creates an idle channel for `config`.
    pub fn new(config: &DramConfig) -> Self {
        Channel {
            timing: config.timing,
            banks: (0..config.banks).map(|_| Bank::new()).collect(),
            cmd_bus_free: DramCycle::ZERO,
            data_bus_free: DramCycle::ZERO,
            next_read_issue: DramCycle::ZERO,
            next_write_issue: DramCycle::ZERO,
            next_activate_any: DramCycle::ZERO,
            recent_activates: [DramCycle::ZERO; FAW_WINDOW],
            refresh: RefreshState::new(config.refresh_enabled, config.timing.t_refi),
            #[cfg(debug_assertions)]
            audit: TimingChecker::new(config.banks, config.timing),
            stats: ChannelStats::default(),
        }
    }

    /// Feeds the embedded self-audit checker and panics on the first
    /// timing violation.
    #[cfg(debug_assertions)]
    fn audit_with(&mut self, f: impl FnOnce(&mut TimingChecker)) {
        f(&mut self.audit);
        if let Some(v) = self.audit.violations().first() {
            panic!("timing self-audit: {v}");
        }
    }

    /// The channel's timing parameters.
    #[inline]
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Number of banks.
    #[inline]
    pub fn num_banks(&self) -> u32 {
        self.banks.len() as u32
    }

    /// Immutable view of a bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn bank(&self, bank: BankId) -> &Bank {
        &self.banks[bank.0 as usize]
    }

    /// Command statistics so far.
    #[inline]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Advances channel housekeeping to cycle `now`: starts a due refresh if
    /// the channel has drained, and retires a finished one. Call once per
    /// DRAM cycle before scheduling.
    ///
    /// Returns `Some((start, end))` when a refresh begins this cycle, so
    /// the controller can report it as an `Event::RefreshIssued`.
    pub fn tick(&mut self, now: DramCycle) -> Option<(DramCycle, DramCycle)> {
        self.refresh.retire(now);
        if self.refresh.due(now) && self.drained(now) {
            // Implicit precharge-all (tRP) followed by the refresh (tRFC).
            let duration = self.timing.t_rp + self.timing.t_rfc;
            self.refresh.start(now, duration);
            let reopen = now + duration;
            for b in &mut self.banks {
                b.force_close(reopen);
            }
            self.cmd_bus_free = self.cmd_bus_free.max(reopen);
            self.data_bus_free = self.data_bus_free.max(reopen);
            self.stats.refreshes += 1;
            #[cfg(debug_assertions)]
            self.audit_with(|chk| chk.observe_refresh(now, reopen));
            return Some((now, reopen));
        }
        None
    }

    /// True when no bank operation or bus transfer is in flight, so a
    /// refresh can begin.
    fn drained(&self, now: DramCycle) -> bool {
        now >= self.data_bus_free && self.banks.iter().all(|b| !b.is_busy(now))
    }

    /// Checks every channel- and bank-level constraint for issuing `cmd` at
    /// cycle `now`. A command for which this returns `true` is *ready* in
    /// the paper's sense (Section 2.4, footnote 4).
    pub fn can_issue(&self, cmd: &DramCommand, now: DramCycle) -> bool {
        if self.refresh.blocking(now) || now < self.cmd_bus_free {
            return false;
        }
        let bank_ok = self
            .banks
            .get(cmd.bank.0 as usize)
            .is_some_and(|b| b.can_issue(cmd, now));
        if !bank_ok {
            return false;
        }
        match cmd.kind {
            CommandKind::Activate { .. } => {
                now >= self.next_activate_any && now >= self.faw_earliest()
            }
            CommandKind::Read { .. } => {
                now >= self.next_read_issue && now + self.timing.t_cl >= self.data_bus_free
            }
            CommandKind::Write { .. } => {
                now >= self.next_write_issue && now + self.timing.t_cwl >= self.data_bus_free
            }
            CommandKind::Precharge => true,
        }
    }

    /// The earliest cycle `at >= now` at which [`Channel::can_issue`]
    /// would accept `cmd`, assuming the channel state is frozen until then
    /// (no other command issues, no refresh starts). `None` when the bank's
    /// row-buffer state precondition fails — waiting alone can never make
    /// the command legal.
    ///
    /// This is an exact mirror of `can_issue`: every constraint there is of
    /// the form `now >= threshold`, so the earliest legal cycle is the
    /// maximum of the thresholds (cross-validated by a randomized test).
    pub fn earliest_issue(&self, cmd: &DramCommand, now: DramCycle) -> Option<DramCycle> {
        let bank = self.banks.get(cmd.bank.0 as usize)?;
        let mut at = now.max(self.cmd_bus_free).max(bank.earliest_issue(cmd)?);
        if let Some(end) = self.refresh.busy_end() {
            at = at.max(end);
        }
        let t = &self.timing;
        match cmd.kind {
            CommandKind::Activate { .. } => {
                at = at.max(self.next_activate_any).max(self.faw_earliest());
            }
            CommandKind::Read { .. } => {
                at = at
                    .max(self.next_read_issue)
                    .max(self.data_bus_free.saturating_sub(t.t_cl));
            }
            CommandKind::Write { .. } => {
                at = at
                    .max(self.next_write_issue)
                    .max(self.data_bus_free.saturating_sub(t.t_cwl));
            }
            CommandKind::Precharge => {}
        }
        Some(at)
    }

    /// The earliest issue cycles, clamped to `now`, of `bank`'s two command
    /// classes for a read (`write == false`) or write access, read straight
    /// from the bank's and the channel's threshold fields: every row hit of
    /// a bank needs the same column command and every row miss the same
    /// PRECHARGE (row open) or ACTIVATE (bank closed), and DRAM timing
    /// depends on the command's kind only, so these two cycles carry the
    /// readiness of every request waiting on the bank. Each equals
    /// [`Channel::earliest_issue`] of the corresponding command (same
    /// frozen-state assumption), and is `<= now` exactly when
    /// [`Channel::can_issue`] accepts it — without building a
    /// [`DramCommand`]. A randomized test holds the three in agreement.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn class_edges(&self, bank: BankId, write: bool, now: DramCycle) -> ClassEdges {
        let mut floor = now.max(self.cmd_bus_free);
        if let Some(end) = self.refresh.busy_end() {
            floor = floor.max(end);
        }
        let (hit, miss) = self.banks[bank.0 as usize].class_edges(write);
        let (turnaround, latency) = if write {
            (self.next_write_issue, self.timing.t_cwl)
        } else {
            (self.next_read_issue, self.timing.t_cl)
        };
        ClassEdges {
            hit: hit.map(|at| {
                at.max(floor)
                    .max(turnaround)
                    .max(self.data_bus_free.saturating_sub(latency))
            }),
            miss: if hit.is_some() {
                miss.max(floor)
            } else {
                miss.max(floor)
                    .max(self.next_activate_any)
                    .max(self.faw_earliest())
            },
        }
    }

    /// The cycle at which the next refresh-related state change happens,
    /// given a frozen channel (no commands issue in between): the end of
    /// the in-flight refresh, or the start cycle of the next one
    /// (`max(next_due, drain completion)` — both monotone conditions).
    /// `None` when refresh is disabled.
    pub fn next_refresh_event(&self, now: DramCycle) -> Option<DramCycle> {
        if !self.refresh.enabled() {
            return None;
        }
        if let Some(end) = self.refresh.busy_end() {
            // Inclusive: at `now == end` the retire itself is the event,
            // so an agenda entry placed at `end` stays exact until the
            // tick that consumes it (the retire is performed by
            // `Channel::tick`, which only runs on real ticks).
            if end >= now {
                return Some(end);
            }
        }
        Some(self.refresh.next_due().max(self.earliest_drained()))
    }

    /// The earliest cycle at which the channel counts as drained, so a
    /// refresh can begin: data bus idle and every bank quiescent.
    pub fn earliest_drained(&self) -> DramCycle {
        self.banks
            .iter()
            .fold(self.data_bus_free, |acc, b| acc.max(b.busy_until()))
    }

    /// Earliest cycle at which a new ACTIVATE satisfies tFAW.
    #[inline]
    fn faw_earliest(&self) -> DramCycle {
        if self.stats.activates < FAW_WINDOW as u64 {
            // Fewer than four ACTIVATEs ever issued: no tFAW bound yet.
            DramCycle::ZERO
        } else {
            // recent_activates[0] is the oldest of the last four.
            self.recent_activates[0] + self.timing.t_faw
        }
    }

    /// Issues `cmd` at cycle `now`, updating all bus and bank state.
    ///
    /// Returns the completion cycle: for READ/WRITE, the end of the data
    /// burst; for ACTIVATE/PRECHARGE, the end of the row operation.
    ///
    /// # Panics
    ///
    /// Panics if `cmd` is not ready ([`Channel::can_issue`] is false).
    pub fn issue(&mut self, cmd: &DramCommand, now: DramCycle) -> DramCycle {
        assert!(
            self.can_issue(cmd, now),
            "illegal {cmd} at DRAM cycle {now}"
        );
        self.cmd_bus_free = now + 1;
        let t = self.timing;
        match cmd.kind {
            CommandKind::Activate { .. } => {
                self.next_activate_any = now + t.t_rrd;
                self.recent_activates.rotate_left(1);
                self.recent_activates[FAW_WINDOW - 1] = now;
                self.stats.activates += 1;
            }
            CommandKind::Precharge => self.stats.precharges += 1,
            CommandKind::Read { .. } => {
                let data_start = now + t.t_cl;
                self.data_bus_free = data_start + t.burst_cycles();
                // A write burst may not start until the read burst ends.
                self.next_write_issue = self
                    .next_write_issue
                    .max(self.data_bus_free.saturating_sub(t.t_cwl));
                self.stats.reads += 1;
            }
            CommandKind::Write { .. } => {
                let data_start = now + t.t_cwl;
                let data_end = data_start + t.burst_cycles();
                self.data_bus_free = data_end;
                // Write-to-read turnaround: tWTR after the write data ends.
                self.next_read_issue = self.next_read_issue.max(data_end + t.t_wtr);
                self.stats.writes += 1;
            }
        }
        #[cfg(debug_assertions)]
        self.audit_with(|chk| chk.observe(cmd, now));
        self.banks[cmd.bank.0 as usize].issue(cmd, now, &self.timing)
    }

    /// [`Channel::issue`] plus telemetry: reports the command to `sink` as
    /// an [`Event::DramCommandIssued`] before issuing it. The channel does
    /// not know its own index or the owning thread, so the controller
    /// supplies both.
    pub fn issue_traced(
        &mut self,
        cmd: &DramCommand,
        now: DramCycle,
        channel: u32,
        thread: Option<u32>,
        sink: &mut dyn Sink,
    ) -> DramCycle {
        if sink.is_enabled() {
            let (kind, row) = trace_parts(&cmd.kind);
            sink.record(&Event::DramCommandIssued {
                dram_cycle: now,
                channel,
                bank: cmd.bank.0,
                cmd: kind,
                row,
                thread,
            });
        }
        self.issue(cmd, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_refresh() -> DramConfig {
        DramConfig {
            refresh_enabled: false,
            ..DramConfig::ddr2_800()
        }
    }

    #[test]
    fn uncontended_row_hit_latency() {
        let cfg = no_refresh();
        let mut ch = Channel::new(&cfg);
        let t = cfg.timing;
        ch.issue(&DramCommand::activate(BankId(0), 1), DramCycle::ZERO);
        let done = ch.issue(&DramCommand::read(BankId(0), 1, 0), t.t_rcd.after_zero());
        assert_eq!(done, (t.t_rcd + t.read_latency()).after_zero());
    }

    #[test]
    fn command_bus_is_one_per_cycle() {
        let cfg = no_refresh();
        let mut ch = Channel::new(&cfg);
        ch.issue(&DramCommand::activate(BankId(0), 1), DramCycle::ZERO);
        // A second command in cycle 0 — even to another bank — must wait.
        assert!(!ch.can_issue(&DramCommand::activate(BankId(1), 1), DramCycle::ZERO));
        // tRRD also applies; a PRECHARGE-class command only waits for the bus.
        let mut ch2 = Channel::new(&cfg);
        ch2.issue(&DramCommand::activate(BankId(0), 1), DramCycle::ZERO);
        ch2.issue(
            &DramCommand::activate(BankId(1), 1),
            cfg.timing.t_rrd.after_zero(),
        );
        assert!(ch2.stats().activates == 2);
    }

    #[test]
    fn trrd_spaces_activates() {
        let cfg = no_refresh();
        let mut ch = Channel::new(&cfg);
        ch.issue(&DramCommand::activate(BankId(0), 1), DramCycle::ZERO);
        let act = DramCommand::activate(BankId(1), 1);
        assert!(!ch.can_issue(&act, (cfg.timing.t_rrd - 1).after_zero()));
        assert!(ch.can_issue(&act, cfg.timing.t_rrd.after_zero()));
    }

    #[test]
    fn tfaw_limits_activate_bursts() {
        let cfg = no_refresh();
        let t = cfg.timing;
        let mut ch = Channel::new(&cfg);
        let mut now = DramCycle::ZERO;
        for b in 0..4 {
            assert!(ch.can_issue(&DramCommand::activate(BankId(b), 1), now));
            ch.issue(&DramCommand::activate(BankId(b), 1), now);
            now += t.t_rrd;
        }
        // Fifth ACTIVATE: must wait for the first + tFAW.
        let fifth = DramCommand::activate(BankId(4), 1);
        assert!(!ch.can_issue(&fifth, now));
        assert!(!ch.can_issue(&fifth, (t.t_faw - 1).after_zero()));
        assert!(ch.can_issue(&fifth, t.t_faw.after_zero()));
    }

    #[test]
    fn data_bus_serializes_reads_across_banks() {
        let cfg = no_refresh();
        let t = cfg.timing;
        let mut ch = Channel::new(&cfg);
        ch.issue(&DramCommand::activate(BankId(0), 1), DramCycle::ZERO);
        ch.issue(&DramCommand::activate(BankId(1), 1), t.t_rrd.after_zero());
        ch.issue(&DramCommand::read(BankId(0), 1, 0), t.t_rcd.after_zero());
        // Bank 1's read is CAS-ready at t_rrd + t_rcd but the data bus is
        // occupied until t_rcd + t_cl + BL/2; reads pipeline, so the next
        // read may issue once its data start clears the bus.
        let rd1 = DramCommand::read(BankId(1), 1, 0);
        let earliest = (t.t_rcd + t.burst_cycles()).after_zero(); // data_start parity
        assert!(!ch.can_issue(&rd1, earliest - 1));
        assert!(ch.can_issue(&rd1, earliest));
    }

    #[test]
    fn write_to_read_turnaround() {
        let cfg = no_refresh();
        let t = cfg.timing;
        let mut ch = Channel::new(&cfg);
        ch.issue(&DramCommand::activate(BankId(0), 1), DramCycle::ZERO);
        ch.issue(&DramCommand::write(BankId(0), 1, 0), t.t_rcd.after_zero());
        let rd = DramCommand::read(BankId(0), 1, 1);
        let write_data_end = t.t_rcd + t.t_cwl + t.burst_cycles();
        let earliest = (write_data_end + t.t_wtr).after_zero();
        assert!(!ch.can_issue(&rd, earliest - 1));
        assert!(ch.can_issue(&rd, earliest));
    }

    #[test]
    fn refresh_closes_rows_and_blocks() {
        let cfg = DramConfig::ddr2_800();
        let t = cfg.timing;
        let mut ch = Channel::new(&cfg);
        ch.issue(&DramCommand::activate(BankId(0), 1), DramCycle::ZERO);
        // Run past tREFI with the channel idle; tick should start a refresh.
        let due = t.t_refi.after_zero();
        ch.tick(due);
        assert_eq!(ch.bank(BankId(0)).open_row(), None);
        assert!(!ch.can_issue(&DramCommand::activate(BankId(0), 1), due));
        let end = due + t.t_rp + t.t_rfc;
        ch.tick(end);
        assert!(ch.can_issue(&DramCommand::activate(BankId(0), 1), end));
    }

    #[test]
    fn banks_are_busy_during_in_flight_operations() {
        let cfg = no_refresh();
        let mut ch = Channel::new(&cfg);
        ch.issue(&DramCommand::activate(BankId(2), 1), DramCycle::ZERO);
        let busy = |c: u64| -> Vec<u32> {
            let at = DramCycle::new(c);
            (0..8).filter(|&b| ch.bank(BankId(b)).is_busy(at)).collect()
        };
        assert_eq!(busy(1), [2]);
        assert!(busy(1000).is_empty());
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::checker::TimingChecker;
    use crate::rng::SmallRng;

    /// Drives a channel with randomized *intents*; every command the
    /// channel reports as ready and issues must satisfy the independent
    /// TimingChecker. This cross-validates the two disjoint encodings of
    /// the DDR2 rules over arbitrary interleavings. Deterministic seeded
    /// sweep (the workspace carries no property-testing dependency).
    #[test]
    fn random_ready_commands_are_always_legal() {
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0xC4A2_0000 ^ seed);
            let cfg = DramConfig {
                refresh_enabled: false,
                ..DramConfig::ddr2_800()
            };
            let mut ch = Channel::new(&cfg);
            let mut checker = TimingChecker::new(cfg.banks, cfg.timing);
            let mut now = DramCycle::ZERO;
            for _ in 0..200 {
                let bank = BankId(rng.random_range(0u32..8));
                let row = rng.random_range(0u32..4);
                let kind = rng.random_range(0u32..4);
                now += rng.random_range(1u64..4);
                let cmd = match (kind, ch.bank(bank).open_row()) {
                    (0, None) => DramCommand::activate(bank, row),
                    (0, Some(r)) if r != row => DramCommand::precharge(bank),
                    (0, Some(r)) => DramCommand::read(bank, r, 0),
                    (1, Some(r)) => DramCommand::read(bank, r, row),
                    (2, Some(r)) => DramCommand::write(bank, r, row),
                    (_, Some(_)) => DramCommand::precharge(bank),
                    (_, None) => DramCommand::activate(bank, row),
                };
                if ch.can_issue(&cmd, now) {
                    ch.issue(&cmd, now);
                    checker.observe(&cmd, now);
                }
            }
            assert!(
                checker.violations().is_empty(),
                "seed {seed}: {:?}",
                checker.violations().first()
            );
        }
    }

    /// [`Channel::earliest_issue`] must be the exact threshold of
    /// [`Channel::can_issue`] under frozen state: `can_issue` is false
    /// strictly before the returned cycle and true at it. All constraints
    /// are monotone in `now`, so checking the boundary pair suffices.
    #[test]
    fn earliest_issue_is_the_exact_can_issue_threshold() {
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0xEA57_0000 ^ seed);
            let cfg = DramConfig {
                refresh_enabled: seed % 2 == 0,
                ..DramConfig::ddr2_800()
            };
            let mut ch = Channel::new(&cfg);
            let mut now = DramCycle::ZERO;
            for _ in 0..200 {
                now += rng.random_range(1u64..6);
                ch.tick(now);
                // Probe a spread of commands against the current state.
                for k in 0..4u32 {
                    let bank = BankId(rng.random_range(0u32..8));
                    let row = rng.random_range(0u32..4);
                    let cmd = match k {
                        0 => DramCommand::activate(bank, row),
                        1 => DramCommand::precharge(bank),
                        2 => DramCommand::read(bank, row, 0),
                        _ => DramCommand::write(bank, row, 0),
                    };
                    match ch.earliest_issue(&cmd, now) {
                        None => {
                            // Row-state precondition failed: waiting never
                            // helps while the state is frozen.
                            assert!(!ch.can_issue(&cmd, now), "seed {seed}: {cmd} at {now}");
                            assert!(!ch.can_issue(&cmd, now + 100_000));
                        }
                        Some(at) => {
                            assert!(at >= now);
                            assert!(
                                ch.can_issue(&cmd, at),
                                "seed {seed}: {cmd} not ready at {at}"
                            );
                            if at > now {
                                assert!(
                                    !ch.can_issue(&cmd, at - 1),
                                    "seed {seed}: {cmd} ready before {at}"
                                );
                            }
                        }
                    }
                }
                // Evolve the state with a random legal command, if any.
                let bank = BankId(rng.random_range(0u32..8));
                let row = rng.random_range(0u32..4);
                let cmd = match ch.bank(bank).open_row() {
                    None => DramCommand::activate(bank, row),
                    Some(_) if rng.random_range(0u32..3) == 0 => DramCommand::precharge(bank),
                    Some(r) if rng.random_range(0u32..2) == 0 => DramCommand::read(bank, r, 0),
                    Some(r) => DramCommand::write(bank, r, 0),
                };
                if ch.can_issue(&cmd, now) {
                    ch.issue(&cmd, now);
                }
            }
        }
    }

    /// Drives a channel through `steps` random legal commands (activates,
    /// column reads and writes, precharges, and the refreshes `tick`
    /// starts once the channel has drained) and, at every step, holds
    /// [`Channel::class_edges`] of every bank and both access kinds
    /// against its two references: each edge equals `earliest_issue` of
    /// the command it stands for, and is due exactly when `can_issue`
    /// accepts that command. The bank-level [`Bank::class_edges`] is held
    /// to `Bank::earliest_issue` and `Bank::can_issue` the same way.
    fn check_class_edges(seeds: std::ops::Range<u64>, steps: u32) {
        let mut refreshes = 0;
        for seed in seeds {
            let mut rng = SmallRng::seed_from_u64(0xED6E_0000 ^ seed);
            let cfg = DramConfig {
                refresh_enabled: seed % 2 == 0,
                ..DramConfig::ddr2_800()
            };
            let mut ch = Channel::new(&cfg);
            let mut now = DramCycle::ZERO;
            for _ in 0..steps {
                now += rng.random_range(1u64..6);
                ch.tick(now);
                for bank in (0..cfg.banks).map(BankId) {
                    let open = ch.bank(bank).open_row();
                    for write in [false, true] {
                        let edges = ch.class_edges(bank, write, now);
                        let column = |row| match write {
                            true => DramCommand::write(bank, row, 0),
                            false => DramCommand::read(bank, row, 0),
                        };
                        let miss = match open {
                            Some(_) => DramCommand::precharge(bank),
                            None => DramCommand::activate(bank, 1),
                        };
                        let at = format!("seed {seed}, {bank} at {now}");
                        assert_eq!(Some(edges.miss), ch.earliest_issue(&miss, now), "{at}");
                        assert_eq!(edges.miss <= now, ch.can_issue(&miss, now), "{at}");
                        let hit = open.map(column);
                        assert_eq!(
                            edges.hit,
                            hit.and_then(|c| ch.earliest_issue(&c, now)),
                            "{at}"
                        );
                        assert_eq!(
                            edges.hit.is_some_and(|e| e <= now),
                            hit.is_some_and(|c| ch.can_issue(&c, now)),
                            "{at}"
                        );
                        // The bank-level query, against the bank's own
                        // references.
                        let b = ch.bank(bank);
                        let (bank_hit, bank_miss) = b.class_edges(write);
                        assert_eq!(Some(bank_miss), b.earliest_issue(&miss), "{at}");
                        assert_eq!(bank_miss <= now, b.can_issue(&miss, now), "{at}");
                        assert_eq!(bank_hit, hit.and_then(|c| b.earliest_issue(&c)), "{at}");
                        assert_eq!(
                            bank_hit.is_some_and(|e| e <= now),
                            hit.is_some_and(|c| b.can_issue(&c, now)),
                            "{at}"
                        );
                        assert_eq!(edges.of(true), edges.hit.unwrap_or(edges.miss));
                        assert_eq!(edges.of(false), edges.miss);
                        assert_eq!(
                            edges.earliest(true, true),
                            Some(edges.of(true).min(edges.miss))
                        );
                    }
                }
                // A due refresh starts only on a drained channel: hold
                // new commands back until it has.
                if ch.refresh.due(now) {
                    continue;
                }
                let bank = BankId(rng.random_range(0..cfg.banks));
                let row = rng.random_range(0u32..4);
                let cmd = match (ch.bank(bank).open_row(), rng.random_range(0u32..6)) {
                    (None, _) => DramCommand::activate(bank, row),
                    (Some(_), 0) => DramCommand::precharge(bank),
                    (Some(r), 1..=3) => DramCommand::read(bank, r, row),
                    (Some(r), _) => DramCommand::write(bank, r, row),
                };
                if !ch.can_issue(&cmd, now) {
                    continue;
                }
                ch.issue(&cmd, now);
            }
            refreshes += ch.stats().refreshes;
        }
        assert!(refreshes > 0, "no refresh was exercised");
    }

    #[test]
    fn class_edges_match_earliest_issue_and_can_issue() {
        check_class_edges(0..16, 2_500);
    }

    /// The deep tier of the same property (CI runs it with
    /// `--include-ignored`, in release with debug assertions).
    #[test]
    #[ignore = "deep tier; run with --include-ignored"]
    fn class_edges_match_earliest_issue_and_can_issue_deep() {
        check_class_edges(16..272, 6_000);
    }
}
