//! Aggregation of the event stream into fixed-width time-series rows.

use std::any::Any;
use std::io::Write;

use crate::event::{CmdKind, Event};
use crate::sink::Sink;

/// Data-bus cycles one CAS burst occupies: DDR2-800's BL8 moves a line in
/// 4 DRAM cycles (`stfm_dram::TimingParams::ddr2_800().burst_cycles()`).
pub const CAS_DATA_CYCLES: u64 = 4;

/// Bytes one CAS burst moves: a cache line (`stfm_dram::LINE_BYTES`).
pub const LINE_BYTES: u64 = 64;

/// Configuration for an [`EpochSampler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    /// Width of one epoch in DRAM cycles.
    pub epoch_len: u64,
    /// Thread count, fixing the number of slowdown columns. Interval
    /// updates naming higher thread indices grow the columns anyway;
    /// this sets the minimum.
    pub threads: usize,
}

/// One closed epoch of aggregated activity.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRow {
    /// Zero-based epoch index.
    pub index: u64,
    /// First DRAM cycle of the epoch (inclusive).
    pub start: u64,
    /// Last DRAM cycle of the epoch (exclusive); less than
    /// `start + epoch_len` only for the final, partial epoch.
    pub end: u64,
    /// Requests entering the controller during the epoch.
    pub enqueued: u64,
    /// Read requests completing service during the epoch.
    pub serviced_reads: u64,
    /// Write requests completing service during the epoch.
    pub serviced_writes: u64,
    /// Activate commands issued.
    pub activates: u64,
    /// Precharge commands issued.
    pub precharges: u64,
    /// Column (CAS) commands issued.
    pub cas: u64,
    /// All-bank refreshes begun.
    pub refreshes: u64,
    /// DRAM cycles the data bus carried bursts (`cas * CAS_DATA_CYCLES`).
    pub bus_busy_cycles: u64,
    /// Integral of request-queue depth over the epoch's DRAM cycles.
    pub queue_depth_area: u64,
    /// Latest per-thread estimated slowdowns (carried forward across
    /// epochs; `None` until a scheduler reports one for the thread).
    pub slowdowns: Vec<Option<f64>>,
    /// Largest unfairness estimate any scheduler snapshot reported during
    /// the epoch; an epoch without one carries the latest value forward.
    pub unfairness: Option<f64>,
    /// Whether any interval update during the epoch reported the
    /// fairness rule active (`None` if the scheduler never said).
    pub fairness_rule_active: Option<bool>,
}

impl EpochRow {
    fn new(index: u64, start: u64) -> Self {
        EpochRow {
            index,
            start,
            end: start,
            enqueued: 0,
            serviced_reads: 0,
            serviced_writes: 0,
            activates: 0,
            precharges: 0,
            cas: 0,
            refreshes: 0,
            bus_busy_cycles: 0,
            queue_depth_area: 0,
            slowdowns: Vec::new(),
            unfairness: None,
            fairness_rule_active: None,
        }
    }

    /// Total requests serviced during the epoch.
    pub fn serviced(&self) -> u64 {
        self.serviced_reads + self.serviced_writes
    }

    /// Width of the epoch in DRAM cycles.
    pub fn width(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Fraction of CAS commands that hit an already-open row. Each
    /// activate is one row miss (closed row or conflict), so the hit
    /// count is `cas - activates`; 0.0 when no CAS issued.
    pub fn row_hit_rate(&self) -> f64 {
        if self.cas == 0 {
            0.0
        } else {
            self.cas.saturating_sub(self.activates) as f64 / self.cas as f64
        }
    }

    /// Fraction of the epoch's DRAM cycles the data bus carried bursts.
    pub fn bus_utilization(&self) -> f64 {
        let width = self.width();
        if width == 0 {
            0.0
        } else {
            (self.bus_busy_cycles as f64 / width as f64).min(1.0)
        }
    }

    /// Time-weighted mean request-queue depth across the epoch.
    pub fn avg_queue_depth(&self) -> f64 {
        let width = self.width();
        if width == 0 {
            0.0
        } else {
            self.queue_depth_area as f64 / width as f64
        }
    }
}

/// A [`Sink`] folding the event stream into [`EpochRow`]s.
///
/// Events must arrive in nondecreasing `dram_cycle` order (the
/// controller emits them that way); the sampler integrates queue depth
/// over time, splits the integral at epoch boundaries, and carries the
/// latest scheduler slowdown estimates forward so every epoch has a
/// value once the scheduler starts reporting.
///
/// Call [`EpochSampler::finish`] after the run to close the final
/// partial epoch, then [`EpochSampler::write_csv`] (or inspect
/// [`EpochSampler::rows`]).
#[derive(Debug, Clone)]
pub struct EpochSampler {
    config: EpochConfig,
    rows: Vec<EpochRow>,
    cur: EpochRow,
    /// Outstanding requests (may dip negative if the sampler attached
    /// after requests were already in flight; clamped at integration).
    depth: i64,
    last_cycle: u64,
    last_slowdowns: Vec<Option<f64>>,
    last_unfairness: Option<f64>,
    finished: bool,
}

impl EpochSampler {
    /// Creates a sampler with the given epoch geometry.
    pub fn new(config: EpochConfig) -> Self {
        assert!(config.epoch_len > 0, "epoch length must be positive");
        EpochSampler {
            config,
            rows: Vec::new(),
            cur: EpochRow::new(0, 0),
            depth: 0,
            last_cycle: 0,
            last_slowdowns: vec![None; config.threads],
            last_unfairness: None,
            finished: false,
        }
    }

    /// Closed epochs, oldest first. Only complete (and, after
    /// [`EpochSampler::finish`], the final partial) epochs appear.
    pub fn rows(&self) -> &[EpochRow] {
        &self.rows
    }

    /// Closes the in-progress epoch at `final_cycle` (typically the
    /// simulation's last DRAM cycle). Idempotent; later events are
    /// ignored once finished.
    pub fn finish(&mut self, final_cycle: u64) {
        if self.finished {
            return;
        }
        self.advance_to(final_cycle);
        let width = final_cycle.saturating_sub(self.cur.start);
        if width > 0 || self.cur.serviced() > 0 || self.cur.enqueued > 0 {
            self.close_current(final_cycle.max(self.cur.start));
        }
        self.finished = true;
    }

    /// Number of slowdown columns needed to print every row.
    fn slowdown_columns(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.slowdowns.len())
            .max()
            .unwrap_or(0)
            .max(self.config.threads)
    }

    /// The CSV header matching [`EpochSampler::write_csv`].
    pub fn csv_header(&self) -> String {
        let mut h = String::from(
            "epoch,start_dram,end_dram,enqueued,serviced,reads,writes,bytes,\
             activates,precharges,cas,refreshes,row_hit_rate,bus_util,\
             avg_queue_depth,unfairness,fairness_rule_active",
        );
        for t in 0..self.slowdown_columns() {
            h.push_str(&format!(",slowdown_t{t}"));
        }
        h
    }

    /// Writes the closed epochs as CSV (header + one row per epoch).
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "{}", self.csv_header())?;
        let cols = self.slowdown_columns();
        for row in &self.rows {
            write!(
                w,
                "{},{},{},{},{},{},{},{},{},{},{},{},{:.4},{:.4},{:.2},{},{}",
                row.index,
                row.start,
                row.end,
                row.enqueued,
                row.serviced(),
                row.serviced_reads,
                row.serviced_writes,
                row.serviced() * LINE_BYTES,
                row.activates,
                row.precharges,
                row.cas,
                row.refreshes,
                row.row_hit_rate(),
                row.bus_utilization(),
                row.avg_queue_depth(),
                row.unfairness
                    .map(|u| format!("{u:.4}"))
                    .unwrap_or_default(),
                row.fairness_rule_active
                    .map(|a| a.to_string())
                    .unwrap_or_default(),
            )?;
            for t in 0..cols {
                match row.slowdowns.get(t).copied().flatten() {
                    Some(s) => write!(w, ",{s:.4}")?,
                    None => write!(w, ",")?,
                }
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Integrates queue depth up to `cycle` within the current epoch.
    fn integrate_to(&mut self, cycle: u64) {
        if cycle > self.last_cycle {
            let dt = cycle - self.last_cycle;
            self.cur.queue_depth_area += self.depth.max(0) as u64 * dt;
            self.last_cycle = cycle;
        }
    }

    fn close_current(&mut self, end: u64) {
        let next = EpochRow::new(self.cur.index + 1, self.cur.start + self.config.epoch_len);
        let mut row = std::mem::replace(&mut self.cur, next);
        row.end = end;
        row.slowdowns = self.last_slowdowns.clone();
        row.unfairness = row.unfairness.or(self.last_unfairness);
        self.rows.push(row);
    }

    /// Crosses as many epoch boundaries as needed so `cycle` falls in
    /// the current epoch. Quiet epochs (no events at all) still emit
    /// rows, keeping the time series gap-free.
    fn advance_to(&mut self, cycle: u64) {
        loop {
            let cur_end = self.cur.start + self.config.epoch_len;
            if cycle < cur_end {
                break;
            }
            self.integrate_to(cur_end);
            self.close_current(cur_end);
        }
        self.integrate_to(cycle);
    }

    fn apply(&mut self, event: &Event) {
        match event {
            Event::DramCommandIssued { cmd, .. } => match cmd {
                CmdKind::Activate => self.cur.activates += 1,
                CmdKind::Precharge => self.cur.precharges += 1,
                CmdKind::Read | CmdKind::Write => {
                    self.cur.cas += 1;
                    self.cur.bus_busy_cycles += CAS_DATA_CYCLES;
                }
                // Refreshes are counted from `RefreshIssued`, below.
                CmdKind::Refresh => {}
            },
            Event::RequestEnqueued { .. } => {
                self.cur.enqueued += 1;
                self.depth += 1;
            }
            Event::RequestServiced { is_write, .. } => {
                if *is_write {
                    self.cur.serviced_writes += 1;
                } else {
                    self.cur.serviced_reads += 1;
                }
                self.depth -= 1;
            }
            Event::SchedulerIntervalUpdate {
                slowdowns,
                unfairness,
                fairness_rule_active,
                ..
            } => {
                for (thread, slowdown) in slowdowns {
                    let t = *thread as usize;
                    if t >= self.last_slowdowns.len() {
                        self.last_slowdowns.resize(t + 1, None);
                    }
                    self.last_slowdowns[t] = Some(*slowdown);
                }
                if let Some(u) = *unfairness {
                    self.last_unfairness = Some(u);
                    self.cur.unfairness = Some(self.cur.unfairness.map_or(u, |m| m.max(u)));
                }
                if let Some(active) = fairness_rule_active {
                    let so_far = self.cur.fairness_rule_active.unwrap_or(false);
                    self.cur.fairness_rule_active = Some(so_far || *active);
                }
            }
            Event::WriteDrainStart { .. } | Event::WriteDrainEnd { .. } => {}
            Event::RefreshIssued { .. } => self.cur.refreshes += 1,
            // Work-counter snapshots are performance accounting, not
            // simulator state. Epochs aggregate simulator state only.
            Event::EstimatorWork { .. } => {}
        }
    }
}

impl Sink for EpochSampler {
    fn record(&mut self, event: &Event) {
        if self.finished {
            return;
        }
        // Events are nondecreasing in time; guard against a stale stamp
        // rather than integrating backwards.
        let cycle = event.dram_cycle().get().max(self.last_cycle);
        self.advance_to(cycle);
        self.apply(event);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfm_cycles::{CpuCycle, CpuDelta, DramCycle};

    fn sampler(epoch_len: u64, threads: usize) -> EpochSampler {
        EpochSampler::new(EpochConfig { epoch_len, threads })
    }

    fn enqueue(cycle: u64, thread: u32, request: u64) -> Event {
        Event::RequestEnqueued {
            dram_cycle: DramCycle::new(cycle),
            cpu_cycle: CpuCycle::new(cycle * 10),
            channel: 0,
            bank: 0,
            thread,
            request,
            is_write: false,
        }
    }

    fn service(cycle: u64, thread: u32, request: u64) -> Event {
        Event::RequestServiced {
            dram_cycle: DramCycle::new(cycle),
            cpu_cycle: CpuCycle::new(cycle * 10),
            channel: 0,
            bank: 0,
            thread,
            request,
            is_write: false,
            latency_cpu: CpuDelta::new(300),
        }
    }

    fn cas(cycle: u64) -> Event {
        Event::DramCommandIssued {
            dram_cycle: DramCycle::new(cycle),
            channel: 0,
            bank: 0,
            cmd: CmdKind::Read,
            row: Some(1),
            thread: Some(0),
        }
    }

    fn activate(cycle: u64) -> Event {
        Event::DramCommandIssued {
            dram_cycle: DramCycle::new(cycle),
            channel: 0,
            bank: 0,
            cmd: CmdKind::Activate,
            row: Some(1),
            thread: Some(0),
        }
    }

    #[test]
    fn epochs_close_at_fixed_boundaries() {
        let mut s = sampler(100, 1);
        s.record(&cas(10));
        s.record(&cas(150));
        s.record(&cas(420));
        s.finish(500);
        let rows = s.rows();
        assert_eq!(rows.len(), 5, "epochs 0..5, quiet ones included");
        assert_eq!(rows[0].cas, 1);
        assert_eq!(rows[1].cas, 1);
        assert_eq!(rows[2].cas, 0, "quiet epoch still emitted");
        assert_eq!(rows[4].cas, 1);
        assert!(rows
            .iter()
            .enumerate()
            .all(|(i, r)| r.index == i as u64 && r.start == i as u64 * 100));
    }

    #[test]
    fn row_hit_rate_counts_activates_as_misses() {
        let mut s = sampler(1_000, 1);
        s.record(&activate(1));
        s.record(&cas(5));
        s.record(&cas(9));
        s.record(&cas(13));
        s.record(&activate(20));
        s.record(&cas(24));
        s.finish(1_000);
        let row = &s.rows()[0];
        assert_eq!(row.cas, 4);
        assert_eq!(row.activates, 2);
        assert!((row.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn queue_depth_is_time_weighted() {
        let mut s = sampler(100, 1);
        // Depth 1 over [10, 60), depth 0 elsewhere: area 50 over 100.
        s.record(&enqueue(10, 0, 1));
        s.record(&service(60, 0, 1));
        s.finish(100);
        let row = &s.rows()[0];
        assert_eq!(row.queue_depth_area, 50);
        assert!((row.avg_queue_depth() - 0.5).abs() < 1e-12);
        assert_eq!(row.enqueued, 1);
        assert_eq!(row.serviced(), 1);
    }

    #[test]
    fn depth_carries_across_epoch_boundary() {
        let mut s = sampler(100, 1);
        s.record(&enqueue(90, 0, 1));
        s.record(&service(150, 0, 1));
        s.finish(200);
        let rows = s.rows();
        assert_eq!(rows[0].queue_depth_area, 10, "depth 1 over [90, 100)");
        assert_eq!(rows[1].queue_depth_area, 50, "depth 1 over [100, 150)");
    }

    #[test]
    fn slowdowns_carry_forward_and_columns_grow() {
        let mut s = sampler(100, 1);
        s.record(&Event::SchedulerIntervalUpdate {
            dram_cycle: DramCycle::new(50),
            scheduler: "stfm",
            slowdowns: vec![(0, 1.5), (1, 2.0)],
            unfairness: Some(4.0 / 3.0),
            fairness_rule_active: Some(true),
        });
        // Epoch 2 fires the rule once and ends calm: its row keeps the
        // worst unfairness beside the flag.
        for (cycle, unfairness, active) in [(210, 1.5, true), (240, 1.0, false)] {
            s.record(&Event::SchedulerIntervalUpdate {
                dram_cycle: DramCycle::new(cycle),
                scheduler: "stfm",
                slowdowns: Vec::new(),
                unfairness: Some(unfairness),
                fairness_rule_active: Some(active),
            });
        }
        s.record(&cas(250));
        s.finish(400);
        let rows = s.rows();
        assert_eq!(rows[0].slowdowns, vec![Some(1.5), Some(2.0)]);
        assert_eq!(
            rows[2].slowdowns,
            vec![Some(1.5), Some(2.0)],
            "carried forward into later epochs"
        );
        assert_eq!(rows[0].fairness_rule_active, Some(true));
        assert_eq!(rows[1].fairness_rule_active, None, "per-epoch flag");
        assert_eq!(rows[1].unfairness, Some(4.0 / 3.0), "carried forward");
        assert_eq!(rows[3].unfairness, Some(1.0), "the latest carries");
        let header = s.csv_header();
        assert!(header.ends_with("slowdown_t0,slowdown_t1"), "{header}");
        let mut csv = Vec::new();
        s.write_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        let row2 = csv.lines().nth(3).unwrap();
        assert!(row2.contains(",1.5000,true,"), "{row2}");
    }

    #[test]
    fn csv_output_is_rectangular() {
        let mut s = sampler(100, 2);
        s.record(&enqueue(5, 0, 1));
        s.record(&cas(30));
        s.record(&service(40, 0, 1));
        s.finish(250);
        let mut out = Vec::new();
        s.write_csv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + s.rows().len());
        let width = lines[0].split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == width));
    }

    #[test]
    fn finish_is_idempotent_and_stops_recording() {
        let mut s = sampler(100, 1);
        s.record(&cas(10));
        s.finish(150);
        let n = s.rows().len();
        s.record(&cas(500));
        s.finish(600);
        assert_eq!(s.rows().len(), n);
    }
}
