//! DRAM energy accounting, in the style of the Micron DDR2 power
//! calculator: per-command energies derived from the datasheet IDD values,
//! plus state-dependent background power.
//!
//! [`EnergyModel`] is a passive [`Sink`], like [`crate::TimingAudit`]: a
//! fold over the telemetry event stream. Per channel it counts commands
//! by class and DRAM cycles spent with a bank open or with every bank
//! closed, tracking the open banks from ACTIVATE, PRECHARGE,
//! auto-precharge CAS and refresh events; [`EnergyModel::breakdown`]
//! multiplies the counts by [`PowerParams`] once. Attach it with
//! `MemorySystem::set_sink`; it never influences timing.

use crate::config::DramConfig;
use crate::timing::TimingParams;
use crate::{DramCycle, DramDelta};
use std::any::Any;
use stfm_telemetry::{CmdKind, Event, Sink};

/// Per-DIMM energy parameters in nanojoules / milliwatts.
///
/// Defaults follow the Micron MT47H128M8 (DDR2-800) datasheet IDD values at
/// VDD = 1.8 V, scaled by the 8 chips of the paper's single-rank DIMM:
///
/// * `E(ACT+PRE) = (IDD0 − IDD3N) · VDD · tRC`
/// * `E(RD) = (IDD4R − IDD3N) · VDD · tBURST`, similarly for writes
/// * `E(REF) = (IDD5 − IDD2N) · VDD · tRFC`
/// * background: IDD3N while any bank is open, IDD2N when all precharged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Energy of one ACTIVATE + (eventual) PRECHARGE pair, nJ. Booked on
    /// the ACTIVATE; the PRECHARGE itself is free.
    pub e_act_pre_nj: f64,
    /// Energy of one read burst, nJ.
    pub e_read_nj: f64,
    /// Energy of one write burst, nJ.
    pub e_write_nj: f64,
    /// Energy of one all-bank refresh, nJ.
    pub e_refresh_nj: f64,
    /// Background power while ≥ 1 bank is open (active standby), mW.
    pub p_active_standby_mw: f64,
    /// Background power with all banks precharged, mW.
    pub p_precharge_standby_mw: f64,
}

impl PowerParams {
    /// DDR2-800 x8 DIMM (8 chips) parameters.
    pub fn ddr2_800_dimm() -> Self {
        const CHIPS: f64 = 8.0;
        const VDD: f64 = 1.8;
        // Datasheet currents in mA.
        const IDD0: f64 = 90.0;
        const IDD2N: f64 = 35.0;
        const IDD3N: f64 = 45.0;
        const IDD4R: f64 = 185.0;
        const IDD4W: f64 = 190.0;
        const IDD5: f64 = 220.0;
        let t = TimingParams::ddr2_800();
        let ns = |cycles: DramDelta| cycles.as_f64() * 2.5;
        PowerParams {
            e_act_pre_nj: (IDD0 - IDD3N) * VDD * ns(t.t_rc) * 1e-3 * CHIPS,
            e_read_nj: (IDD4R - IDD3N) * VDD * ns(t.burst_cycles()) * 1e-3 * CHIPS,
            e_write_nj: (IDD4W - IDD3N) * VDD * ns(t.burst_cycles()) * 1e-3 * CHIPS,
            e_refresh_nj: (IDD5 - IDD2N) * VDD * ns(t.t_rfc) * 1e-3 * CHIPS,
            p_active_standby_mw: IDD3N * VDD * CHIPS,
            p_precharge_standby_mw: IDD2N * VDD * CHIPS,
        }
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        Self::ddr2_800_dimm()
    }
}

/// Cumulative energy breakdown of one channel, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Row activations (including the implied precharges).
    pub activate_nj: f64,
    /// Read bursts.
    pub read_nj: f64,
    /// Write bursts.
    pub write_nj: f64,
    /// Refresh operations.
    pub refresh_nj: f64,
    /// Background (standby) energy.
    pub background_nj: f64,
}

impl EnergyBreakdown {
    /// Total energy, nJ.
    pub fn total_nj(&self) -> f64 {
        self.activate_nj + self.read_nj + self.write_nj + self.refresh_nj + self.background_nj
    }
}

/// One channel's fold: integer tallies, the open banks, and the first
/// DRAM cycle not yet counted.
#[derive(Debug, Clone, Copy, Default)]
struct ChannelFold {
    activates: u64,
    reads: u64,
    writes: u64,
    refreshes: u64,
    /// DRAM cycles with at least one bank open (active standby).
    open_cycles: u64,
    /// DRAM cycles with every bank precharged (precharge standby).
    closed_cycles: u64,
    /// Bit `b` set while bank `b` has a row open.
    open: u64,
    next: DramCycle,
}

impl ChannelFold {
    /// Counts the cycles `self.next..until` under the current open set.
    fn advance(&mut self, until: DramCycle) {
        let n = until.saturating_since(self.next).get();
        if self.open == 0 {
            self.closed_cycles += n;
        } else {
            self.open_cycles += n;
        }
        self.next = self.next.max(until);
    }
}

/// Energy auditor: a [`Sink`] folding the event stream of every channel,
/// counted from DRAM cycle zero.
///
/// Each DRAM cycle is counted open or closed after that cycle's refresh
/// and before its commands, the order of a controller tick.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    params: PowerParams,
    channels: Vec<ChannelFold>,
}

impl EnergyModel {
    /// Creates an auditor for every channel of `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` has more than 64 banks per channel.
    pub fn new(config: &DramConfig, params: PowerParams) -> Self {
        assert!(config.banks <= 64, "{} banks: at most 64", config.banks);
        EnergyModel {
            params,
            channels: vec![ChannelFold::default(); config.channels as usize],
        }
    }

    /// The energy of every channel from cycle zero through `end_cycle`
    /// (inclusive; after a run, `MemorySystem::now`).
    pub fn breakdown(&self, end_cycle: DramCycle) -> EnergyBreakdown {
        let mut t = ChannelFold::default();
        for fold in &self.channels {
            let mut f = *fold;
            f.advance(end_cycle + 1);
            t.activates += f.activates;
            t.reads += f.reads;
            t.writes += f.writes;
            t.refreshes += f.refreshes;
            t.open_cycles += f.open_cycles;
            t.closed_cycles += f.closed_cycles;
        }
        let p = &self.params;
        // mW × 2.5 ns = pJ; /1000 → nJ per cycle.
        let e_open = p.p_active_standby_mw * 2.5 * 1e-3;
        let e_closed = p.p_precharge_standby_mw * 2.5 * 1e-3;
        EnergyBreakdown {
            activate_nj: t.activates as f64 * p.e_act_pre_nj,
            read_nj: t.reads as f64 * p.e_read_nj,
            write_nj: t.writes as f64 * p.e_write_nj,
            refresh_nj: t.refreshes as f64 * p.e_refresh_nj,
            background_nj: t.open_cycles as f64 * e_open + t.closed_cycles as f64 * e_closed,
        }
    }
}

impl Sink for EnergyModel {
    fn record(&mut self, event: &Event) {
        match *event {
            Event::DramCommandIssued {
                dram_cycle,
                channel,
                bank,
                cmd,
                auto_precharge,
                ..
            } => {
                let fold = &mut self.channels[channel as usize];
                // The issue cycle is counted before its command.
                fold.advance(dram_cycle + 1);
                let bit = 1u64 << bank;
                match cmd {
                    CmdKind::Activate => {
                        fold.activates += 1;
                        fold.open |= bit;
                    }
                    CmdKind::Precharge => fold.open &= !bit,
                    CmdKind::Read => fold.reads += 1,
                    CmdKind::Write => fold.writes += 1,
                    CmdKind::Refresh => fold.refreshes += 1,
                }
                if auto_precharge {
                    fold.open &= !bit;
                }
            }
            Event::RefreshIssued {
                dram_cycle,
                channel,
                ..
            } => {
                let fold = &mut self.channels[channel as usize];
                // The refresh closes every bank before its own cycle is
                // counted.
                fold.advance(dram_cycle);
                fold.refreshes += 1;
                fold.open = 0;
            }
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
    use crate::channel::Channel;
    use crate::command::{BankId, DramCommand};
    use crate::rng::SmallRng;

    fn model() -> EnergyModel {
        EnergyModel::new(&DramConfig::ddr2_800(), PowerParams::default())
    }

    fn command(cycle: u64, bank: u32, cmd: CmdKind) -> Event {
        Event::DramCommandIssued {
            dram_cycle: DramCycle::new(cycle),
            channel: 0,
            bank,
            cmd,
            row: None,
            thread: None,
            auto_precharge: false,
        }
    }

    #[test]
    fn derived_energies_are_plausible() {
        let p = PowerParams::ddr2_800_dimm();
        // ACT/PRE pair: (90−45) mA × 1.8 V × 60 ns × 8 chips ≈ 38.9 nJ.
        assert!((p.e_act_pre_nj - 38.88).abs() < 0.1, "{}", p.e_act_pre_nj);
        // Read burst: (185−45) × 1.8 × 10 ns × 8 ≈ 20.2 nJ.
        assert!((p.e_read_nj - 20.16).abs() < 0.1);
        assert!(p.e_write_nj > p.e_read_nj);
        assert!(p.p_active_standby_mw > p.p_precharge_standby_mw);
    }

    #[test]
    fn idle_channel_consumes_only_background() {
        let e = model();
        let b = e.breakdown(DramCycle::new(999));
        assert_eq!(b.activate_nj + b.read_nj + b.write_nj + b.refresh_nj, 0.0);
        // 1000 cycles × 2.5 ns at 504 mW = 1260 nJ.
        assert!((b.background_nj - 1260.0).abs() < 1.0);
        // Average power equals precharge standby.
        assert!((b.total_nj() / (1000.0 * 2.5) * 1e3 - 504.0).abs() < 1.0);
    }

    #[test]
    fn commands_book_their_class() {
        let mut e = model();
        e.record(&command(0, 0, CmdKind::Activate));
        e.record(&command(6, 0, CmdKind::Read));
        e.record(&command(10, 0, CmdKind::Write));
        e.record(&command(30, 0, CmdKind::Precharge));
        let b = e.breakdown(DramCycle::new(30));
        assert!(b.activate_nj > 0.0 && b.read_nj > 0.0 && b.write_nj > 0.0);
        assert_eq!(b.refresh_nj, 0.0);
        let expected = PowerParams::default();
        assert!(
            (b.total_nj()
                - b.background_nj
                - (expected.e_act_pre_nj + expected.e_read_nj + expected.e_write_nj))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn active_standby_costs_more() {
        let mut open = model();
        let closed = model();
        open.record(&command(0, 0, CmdKind::Activate));
        let end = DramCycle::new(99);
        assert!(open.breakdown(end).background_nj > closed.breakdown(end).background_nj);
    }

    /// The fold's integer counts equal a per-cycle oracle's exactly: two
    /// channels under a seeded random stream of ACT, PRE, CAS,
    /// auto-precharge CAS and refreshes, the oracle sampling every bank's
    /// open row each cycle after `tick` and before issue, and taking the
    /// per-class counts from the channels' own statistics.
    #[test]
    fn fold_counts_match_a_per_cycle_oracle() {
        let cfg = DramConfig {
            channels: 2,
            timing: TimingParams {
                t_refi: DramDelta::new(300),
                ..TimingParams::ddr2_800()
            },
            ..DramConfig::ddr2_800()
        };
        let end = DramCycle::new(3_000);
        let mut refreshes = 0;
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(0xE4E2_0000 ^ seed);
            let mut model = EnergyModel::new(&cfg, PowerParams::default());
            let mut chans = [Channel::new(&cfg), Channel::new(&cfg)];
            let mut open_closed = [[0u64; 2]; 2];
            for c in 0..=end.get() {
                let now = DramCycle::new(c);
                for (i, ch) in chans.iter_mut().enumerate() {
                    let channel = i as u32;
                    if let Some((start, end_cycle)) = ch.tick(now) {
                        model.record(&Event::RefreshIssued {
                            dram_cycle: start,
                            channel,
                            end_cycle,
                        });
                    }
                    let any_open = (0..cfg.banks).any(|b| ch.bank(BankId(b)).open_row().is_some());
                    open_closed[i][usize::from(!any_open)] += 1;
                    // Quiet stretches let the channel drain, so due
                    // refreshes start.
                    if c % 400 >= 300 || rng.random_range(0u32..3) != 0 {
                        continue;
                    }
                    let bank = BankId(rng.random_range(0u32..8));
                    let row = rng.random_range(0u32..4);
                    let cmd = match (rng.random_range(0u32..4), ch.bank(bank).open_row()) {
                        (_, None) => DramCommand::activate(bank, row),
                        (0, Some(_)) => DramCommand::precharge(bank),
                        (1, Some(r)) => DramCommand::write(bank, r, row),
                        (_, Some(r)) => DramCommand::read(bank, r, row),
                    };
                    if !ch.can_issue(&cmd, now) {
                        continue;
                    }
                    let auto_pre = cmd.is_column() && rng.random_bool(0.5);
                    ch.issue_traced(&cmd, auto_pre, now, channel, None, &mut model);
                }
            }
            for (i, ch) in chans.iter().enumerate() {
                let mut f = model.channels[i];
                f.advance(end + 1);
                let s = ch.stats();
                assert_eq!(
                    [
                        f.activates,
                        f.reads,
                        f.writes,
                        f.refreshes,
                        f.open_cycles,
                        f.closed_cycles
                    ],
                    [
                        s.activates,
                        s.reads,
                        s.writes,
                        s.refreshes,
                        open_closed[i][0],
                        open_closed[i][1]
                    ],
                    "seed {seed} channel {i}"
                );
                assert!(f.open_cycles > 0 && f.closed_cycles > 0);
                refreshes += s.refreshes;
            }
        }
        assert!(refreshes > 100, "only {refreshes} refreshes exercised");
    }
}
