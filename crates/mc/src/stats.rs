//! Controller-side statistics: per-thread service counts and latencies.

use crate::request::{AccessKind, Request, ThreadId};
use std::collections::BTreeMap;
use stfm_dram::{AccessCategory, CpuCycle};

/// Per-thread DRAM service statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadStats {
    /// Read requests completed.
    pub reads: u64,
    /// Write requests completed.
    pub writes: u64,
    /// Requests whose service began with the row already open.
    pub row_hits: u64,
    /// Requests whose service began with the bank closed.
    pub row_closed: u64,
    /// Requests whose service began with a different row open.
    pub row_conflicts: u64,
    /// Sum over completed reads of (finish − arrival) in CPU cycles.
    pub total_read_latency_cpu: u64,
    /// Largest single read latency observed, in CPU cycles.
    pub max_read_latency_cpu: u64,
}

impl ThreadStats {
    /// Fraction of serviced requests that were row-buffer hits
    /// (the paper's "RB hit rate", Table 3).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_closed + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Counter-wise difference `self − earlier` (warmup exclusion).
    ///
    /// `max_read_latency_cpu` is a running maximum, not a counter, so it
    /// cannot be differenced; it is taken from `self`, which is only a
    /// valid windowed maximum if [`SystemStats::reset_max_read_latency`]
    /// was called when the window opened — otherwise a warmup latency
    /// spike would leak into every later window. The system runner
    /// measures several overlapping windows in one run, which share no
    /// single reset point: it resets at every instruction mark (a
    /// window's warm-up or end) a thread crosses, so each snapshot holds
    /// the max of the segment since the previous mark, and sets a
    /// window's max to the max over the segments it spans.
    pub fn minus(&self, earlier: &ThreadStats) -> ThreadStats {
        ThreadStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            row_hits: self.row_hits - earlier.row_hits,
            row_closed: self.row_closed - earlier.row_closed,
            row_conflicts: self.row_conflicts - earlier.row_conflicts,
            total_read_latency_cpu: self.total_read_latency_cpu - earlier.total_read_latency_cpu,
            max_read_latency_cpu: self.max_read_latency_cpu,
        }
    }

    /// Mean read round-trip latency in CPU cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency_cpu as f64 / self.reads as f64
        }
    }
}

/// Whole-memory-system statistics. The commands issued are counted by
/// each channel's device ([`stfm_dram::Channel::stats`]).
#[derive(Debug, Clone, Default)]
pub struct SystemStats {
    threads: BTreeMap<ThreadId, ThreadStats>,
    /// Requests enqueued.
    pub enqueued: u64,
    /// Requests completed.
    pub completed: u64,
}

impl SystemStats {
    /// Statistics for `thread` (zeroed if it never issued a request).
    pub fn thread(&self, thread: ThreadId) -> ThreadStats {
        self.threads.get(&thread).copied().unwrap_or_default()
    }

    /// Threads observed so far.
    pub fn threads(&self) -> impl Iterator<Item = (ThreadId, &ThreadStats)> {
        self.threads.iter().map(|(t, s)| (*t, s))
    }

    /// Clears `thread`'s running max-read-latency so a new measurement
    /// window starts fresh (see [`ThreadStats::minus`]).
    pub fn reset_max_read_latency(&mut self, thread: ThreadId) {
        if let Some(ts) = self.threads.get_mut(&thread) {
            ts.max_read_latency_cpu = 0;
        }
    }

    pub(crate) fn record_completion(&mut self, req: &Request, finish_cpu: CpuCycle) {
        self.completed += 1;
        let ts = self.threads.entry(req.thread).or_default();
        match req.kind {
            AccessKind::Read => {
                ts.reads += 1;
                let lat = finish_cpu.saturating_since(req.arrival_cpu).get();
                ts.total_read_latency_cpu += lat;
                ts.max_read_latency_cpu = ts.max_read_latency_cpu.max(lat);
            }
            AccessKind::Write => ts.writes += 1,
        }
        match req.category {
            Some(AccessCategory::Hit) => ts.row_hits += 1,
            Some(AccessCategory::Closed) => ts.row_closed += 1,
            Some(AccessCategory::Conflict) => ts.row_conflicts += 1,
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_thread_stats_are_zero() {
        let s = SystemStats::default();
        assert_eq!(s.thread(ThreadId(9)), ThreadStats::default());
        assert_eq!(s.thread(ThreadId(9)).row_hit_rate(), 0.0);
        assert_eq!(s.thread(ThreadId(9)).avg_read_latency(), 0.0);
    }

    #[test]
    fn windowed_max_latency_excludes_earlier_spikes() {
        use crate::request::{Request, RequestId, RequestState};
        use stfm_dram::{BankId, ChannelId, DecodedAddr, PhysAddr};
        let req = |arrival: u64| Request {
            id: RequestId(0),
            thread: ThreadId(0),
            addr: PhysAddr(0),
            loc: DecodedAddr {
                channel: ChannelId(0),
                bank: BankId(0),
                row: 0,
                col: 0,
            },
            kind: AccessKind::Read,
            arrival_cpu: CpuCycle::new(arrival),
            state: RequestState::Queued,
            service_started: None,
            category: None,
        };
        let mut sys = SystemStats::default();
        // Warmup: one pathological 10_000-cycle read.
        sys.record_completion(&req(0), CpuCycle::new(10_000));
        let baseline = sys.thread(ThreadId(0));
        sys.reset_max_read_latency(ThreadId(0));
        // Measurement window: a 100-cycle read.
        sys.record_completion(&req(20_000), CpuCycle::new(20_100));
        let window = sys.thread(ThreadId(0)).minus(&baseline);
        assert_eq!(window.reads, 1);
        assert_eq!(window.total_read_latency_cpu, 100);
        // Without the reset this would report the warmup spike (10_000).
        assert_eq!(window.max_read_latency_cpu, 100);
        // Resetting an unknown thread is a no-op.
        sys.reset_max_read_latency(ThreadId(42));
    }

    #[test]
    fn hit_rate_computation() {
        let ts = ThreadStats {
            row_hits: 3,
            row_closed: 1,
            row_conflicts: 0,
            ..Default::default()
        };
        assert!((ts.row_hit_rate() - 0.75).abs() < 1e-12);
    }
}
