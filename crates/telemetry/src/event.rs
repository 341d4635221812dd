//! The typed event vocabulary and its hand-rolled JSON encoding.

use std::fmt::Write as _;
use stfm_cycles::{CpuCycle, CpuDelta, DramCycle};

/// The kind of DRAM command an [`Event::DramCommandIssued`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmdKind {
    /// Row activate (RAS).
    Activate,
    /// Row precharge.
    Precharge,
    /// Column read (CAS).
    Read,
    /// Column write (CAS).
    Write,
    /// All-bank auto refresh.
    Refresh,
}

impl CmdKind {
    /// Stable lowercase name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            CmdKind::Activate => "activate",
            CmdKind::Precharge => "precharge",
            CmdKind::Read => "read",
            CmdKind::Write => "write",
            CmdKind::Refresh => "refresh",
        }
    }
}

/// One simulator occurrence, stamped with the cycle it happened on.
///
/// Identifiers are primitives (channel/bank/thread as `u32`, request ids
/// as `u64`); cycle stamps use the clock-domain newtypes from
/// `stfm-cycles`, which sits below this crate, so a DRAM-cycle stamp can
/// never be confused with a CPU-cycle one.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The controller issued a DRAM command on a channel's command bus.
    DramCommandIssued {
        /// DRAM cycle of issue.
        dram_cycle: DramCycle,
        /// Channel index.
        channel: u32,
        /// Bank index within the channel.
        bank: u32,
        /// Command kind.
        cmd: CmdKind,
        /// Target row for activates and CAS commands.
        row: Option<u32>,
        /// Owning thread of the serviced request, when attributable.
        thread: Option<u32>,
    },
    /// A request entered a controller request buffer.
    RequestEnqueued {
        /// DRAM cycle of arrival at the controller.
        dram_cycle: DramCycle,
        /// CPU cycle of arrival.
        cpu_cycle: CpuCycle,
        /// Channel index.
        channel: u32,
        /// Bank index within the channel.
        bank: u32,
        /// Owning thread.
        thread: u32,
        /// Controller-assigned request id.
        request: u64,
        /// True for writes.
        is_write: bool,
    },
    /// A request finished service (data transferred, latency known).
    RequestServiced {
        /// DRAM cycle of completion.
        dram_cycle: DramCycle,
        /// CPU cycle of completion.
        cpu_cycle: CpuCycle,
        /// Channel index.
        channel: u32,
        /// Bank index within the channel.
        bank: u32,
        /// Owning thread.
        thread: u32,
        /// Controller-assigned request id.
        request: u64,
        /// True for writes.
        is_write: bool,
        /// Arrival-to-completion latency in CPU cycles.
        latency_cpu: CpuDelta,
    },
    /// Periodic scheduler-state snapshot (per sampling interval).
    SchedulerIntervalUpdate {
        /// DRAM cycle of the snapshot.
        dram_cycle: DramCycle,
        /// Scheduler name (`SchedulerPolicy::name`).
        scheduler: &'static str,
        /// Per-thread estimated slowdowns, `(thread, slowdown)` pairs.
        /// Empty for schedulers that do not estimate slowdowns.
        slowdowns: Vec<(u32, f64)>,
        /// Estimated unfairness (max/min slowdown), when the scheduler
        /// tracks it.
        unfairness: Option<f64>,
        /// Whether the fairness rule currently overrides the baseline
        /// ranking (STFM's `S_max/S_min > alpha` condition).
        fairness_rule_active: Option<bool>,
    },
    /// A channel entered write-drain mode.
    WriteDrainStart {
        /// DRAM cycle the drain began.
        dram_cycle: DramCycle,
        /// Channel index.
        channel: u32,
        /// Writes queued when the drain began.
        queued_writes: u32,
    },
    /// A channel left write-drain mode.
    WriteDrainEnd {
        /// DRAM cycle the drain ended.
        dram_cycle: DramCycle,
        /// Channel index.
        channel: u32,
        /// Writes still queued when the drain ended.
        queued_writes: u32,
    },
    /// An all-bank auto refresh began on a channel.
    RefreshIssued {
        /// DRAM cycle the refresh began.
        dram_cycle: DramCycle,
        /// Channel index.
        channel: u32,
        /// DRAM cycle the channel becomes usable again.
        end_cycle: DramCycle,
    },
    /// End-of-run snapshot of scheduler/estimator work counters
    /// (emitted only on explicit request — never from the tick path, so
    /// differential stream comparisons stay loop-agnostic). All counts
    /// are cumulative over the run; see `stfm-mc`'s `SchedCounters` and
    /// `stfm-core`'s `StfmWork` for field semantics (the estimator
    /// counters are zero under every other policy).
    EstimatorWork {
        /// DRAM cycle of the snapshot (normally the final cycle).
        dram_cycle: DramCycle,
        /// Scheduler name (`SchedulerPolicy::name`).
        scheduler: &'static str,
        /// O(queue) estimator walks (full rebuilds).
        full_rebuilds: u64,
        /// O(1) incremental estimator updates.
        incremental_updates: u64,
        /// Decision passes that recomputed per-thread slowdowns: one per
        /// real DRAM cycle.
        decides_recomputed: u64,
        /// Always 0: every decision pass recomputes. Kept only because
        /// the frozen benchmark reads the field; ROADMAP item 16 removes
        /// it.
        decides_carried: u64,
        /// Channel scheduling passes run.
        sched_visits: u64,
        /// Bank walks run: passes over one bank's waiting list that pick
        /// its winner and slip and find its class presence. A walk calls
        /// the policy's `rank` only for requests whose rank is not
        /// cached.
        rank_scans: u64,
        /// Per-bank decisions served from the cross-tick cache without a
        /// walk.
        rank_carried: u64,
    },
    /// A fault the serve layer detected and degraded around (it lives in
    /// wall-clock time, outside any simulation, so `dram_cycle` is zero).
    ServeFault {
        /// Always [`DramCycle::ZERO`]: serve faults are not simulator
        /// occurrences, but sinks and samplers require a stamp.
        dram_cycle: DramCycle,
        /// Which resilience mechanism fired: `"worker"` (a cell's run),
        /// `"client"` (the output stream) or `"cache"` (the on-disk
        /// caches).
        domain: &'static str,
        /// Fault kind within the domain: a worker's `"timeout_retry"`,
        /// `"timeout"`, `"panic"`, `"truncated"` or `"spec"`; a client's
        /// `"disconnect"`; the cache's `"quarantined"`, recorded each
        /// time the session's count of quarantined files grows, with the
        /// new count in `detail`.
        kind: &'static str,
        /// What the fault hit: a worker fault's cell key; empty for a
        /// client or cache fault.
        subject: String,
        /// Free-form context (panic message, retry disposition, ...).
        detail: String,
    },
}

impl Event {
    /// Stable snake_case event name used in JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            Event::DramCommandIssued { .. } => "dram_command_issued",
            Event::RequestEnqueued { .. } => "request_enqueued",
            Event::RequestServiced { .. } => "request_serviced",
            Event::SchedulerIntervalUpdate { .. } => "scheduler_interval_update",
            Event::WriteDrainStart { .. } => "write_drain_start",
            Event::WriteDrainEnd { .. } => "write_drain_end",
            Event::RefreshIssued { .. } => "refresh_issued",
            Event::EstimatorWork { .. } => "estimator_work",
            Event::ServeFault { .. } => "serve_fault",
        }
    }

    /// The DRAM cycle the event is stamped with.
    pub fn dram_cycle(&self) -> DramCycle {
        match *self {
            Event::DramCommandIssued { dram_cycle, .. }
            | Event::RequestEnqueued { dram_cycle, .. }
            | Event::RequestServiced { dram_cycle, .. }
            | Event::SchedulerIntervalUpdate { dram_cycle, .. }
            | Event::WriteDrainStart { dram_cycle, .. }
            | Event::WriteDrainEnd { dram_cycle, .. }
            | Event::RefreshIssued { dram_cycle, .. }
            | Event::EstimatorWork { dram_cycle, .. }
            | Event::ServeFault { dram_cycle, .. } => dram_cycle,
        }
    }

    /// One-line JSON object encoding (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push('{');
        push_str_field(&mut s, "event", self.name());
        match self {
            Event::DramCommandIssued {
                dram_cycle,
                channel,
                bank,
                cmd,
                row,
                thread,
            } => {
                push_u64_field(&mut s, "dram_cycle", dram_cycle.get());
                push_u64_field(&mut s, "channel", u64::from(*channel));
                push_u64_field(&mut s, "bank", u64::from(*bank));
                push_str_field(&mut s, "cmd", cmd.as_str());
                if let Some(row) = row {
                    push_u64_field(&mut s, "row", u64::from(*row));
                }
                if let Some(thread) = thread {
                    push_u64_field(&mut s, "thread", u64::from(*thread));
                }
            }
            Event::RequestEnqueued {
                dram_cycle,
                cpu_cycle,
                channel,
                bank,
                thread,
                request,
                is_write,
            } => {
                push_u64_field(&mut s, "dram_cycle", dram_cycle.get());
                push_u64_field(&mut s, "cpu_cycle", cpu_cycle.get());
                push_u64_field(&mut s, "channel", u64::from(*channel));
                push_u64_field(&mut s, "bank", u64::from(*bank));
                push_u64_field(&mut s, "thread", u64::from(*thread));
                push_u64_field(&mut s, "request", *request);
                push_str_field(&mut s, "op", if *is_write { "write" } else { "read" });
            }
            Event::RequestServiced {
                dram_cycle,
                cpu_cycle,
                channel,
                bank,
                thread,
                request,
                is_write,
                latency_cpu,
            } => {
                push_u64_field(&mut s, "dram_cycle", dram_cycle.get());
                push_u64_field(&mut s, "cpu_cycle", cpu_cycle.get());
                push_u64_field(&mut s, "channel", u64::from(*channel));
                push_u64_field(&mut s, "bank", u64::from(*bank));
                push_u64_field(&mut s, "thread", u64::from(*thread));
                push_u64_field(&mut s, "request", *request);
                push_str_field(&mut s, "op", if *is_write { "write" } else { "read" });
                push_u64_field(&mut s, "latency_cpu", latency_cpu.get());
            }
            Event::SchedulerIntervalUpdate {
                dram_cycle,
                scheduler,
                slowdowns,
                unfairness,
                fairness_rule_active,
            } => {
                push_u64_field(&mut s, "dram_cycle", dram_cycle.get());
                push_str_field(&mut s, "scheduler", scheduler);
                s.push_str("\"slowdowns\":{");
                for (i, (thread, slowdown)) in slowdowns.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{thread}\":");
                    push_f64(&mut s, *slowdown);
                }
                s.push_str("},");
                if let Some(u) = unfairness {
                    s.push_str("\"unfairness\":");
                    push_f64(&mut s, *u);
                    s.push(',');
                }
                if let Some(active) = fairness_rule_active {
                    let _ = write!(s, "\"fairness_rule_active\":{active},");
                }
            }
            Event::WriteDrainStart {
                dram_cycle,
                channel,
                queued_writes,
            }
            | Event::WriteDrainEnd {
                dram_cycle,
                channel,
                queued_writes,
            } => {
                push_u64_field(&mut s, "dram_cycle", dram_cycle.get());
                push_u64_field(&mut s, "channel", u64::from(*channel));
                push_u64_field(&mut s, "queued_writes", u64::from(*queued_writes));
            }
            Event::RefreshIssued {
                dram_cycle,
                channel,
                end_cycle,
            } => {
                push_u64_field(&mut s, "dram_cycle", dram_cycle.get());
                push_u64_field(&mut s, "channel", u64::from(*channel));
                push_u64_field(&mut s, "end_cycle", end_cycle.get());
            }
            Event::EstimatorWork {
                dram_cycle,
                scheduler,
                full_rebuilds,
                incremental_updates,
                decides_recomputed,
                decides_carried,
                sched_visits,
                rank_scans,
                rank_carried,
            } => {
                push_u64_field(&mut s, "dram_cycle", dram_cycle.get());
                push_str_field(&mut s, "scheduler", scheduler);
                push_u64_field(&mut s, "full_rebuilds", *full_rebuilds);
                push_u64_field(&mut s, "incremental_updates", *incremental_updates);
                push_u64_field(&mut s, "decides_recomputed", *decides_recomputed);
                push_u64_field(&mut s, "decides_carried", *decides_carried);
                push_u64_field(&mut s, "sched_visits", *sched_visits);
                push_u64_field(&mut s, "rank_scans", *rank_scans);
                push_u64_field(&mut s, "rank_carried", *rank_carried);
            }
            Event::ServeFault {
                dram_cycle,
                domain,
                kind,
                subject,
                detail,
            } => {
                push_u64_field(&mut s, "dram_cycle", dram_cycle.get());
                push_str_field(&mut s, "domain", domain);
                push_str_field(&mut s, "kind", kind);
                push_str_field(&mut s, "subject", subject);
                push_str_field(&mut s, "detail", detail);
            }
        }
        // Every field-push leaves a trailing comma; replace the last one.
        debug_assert!(s.ends_with(','));
        s.pop();
        s.push('}');
        s
    }
}

fn push_str_field(s: &mut String, key: &str, value: &str) {
    let _ = write!(s, "\"{key}\":\"");
    for ch in value.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push_str("\",");
}

fn push_u64_field(s: &mut String, key: &str, value: u64) {
    let _ = write!(s, "\"{key}\":{value},");
}

/// JSON has no NaN/Infinity literals; encode non-finite values as null.
fn push_f64(s: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(s, "{value}");
    } else {
        s.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shapes_are_wellformed() {
        let events = vec![
            Event::DramCommandIssued {
                dram_cycle: DramCycle::new(10),
                channel: 0,
                bank: 3,
                cmd: CmdKind::Activate,
                row: Some(42),
                thread: Some(1),
            },
            Event::RequestEnqueued {
                dram_cycle: DramCycle::new(5),
                cpu_cycle: CpuCycle::new(50),
                channel: 1,
                bank: 0,
                thread: 0,
                request: 7,
                is_write: true,
            },
            Event::SchedulerIntervalUpdate {
                dram_cycle: DramCycle::new(100),
                scheduler: "stfm",
                slowdowns: vec![(0, 1.25), (1, f64::NAN)],
                unfairness: Some(1.9),
                fairness_rule_active: Some(true),
            },
            Event::RefreshIssued {
                dram_cycle: DramCycle::new(7800),
                channel: 0,
                end_cycle: DramCycle::new(7905),
            },
        ];
        for e in &events {
            let j = e.to_json();
            assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
            assert!(j.contains(&format!("\"event\":\"{}\"", e.name())), "{j}");
            assert!(!j.contains(",}"), "dangling comma in {j}");
            assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        }
        let j = events[2].to_json();
        assert!(j.contains("\"slowdowns\":{\"0\":1.25,\"1\":null}"), "{j}");
        assert!(j.contains("\"fairness_rule_active\":true"), "{j}");
    }

    #[test]
    fn estimator_work_encodes_in_json() {
        let e = Event::EstimatorWork {
            dram_cycle: DramCycle::new(1234),
            scheduler: "stfm",
            full_rebuilds: 2,
            incremental_updates: 99,
            decides_recomputed: 10,
            decides_carried: 40,
            sched_visits: 50,
            rank_scans: 7,
            rank_carried: 43,
        };
        let j = e.to_json();
        assert!(j.contains("\"event\":\"estimator_work\""), "{j}");
        assert!(j.contains("\"full_rebuilds\":2"), "{j}");
        assert!(j.contains("\"rank_carried\":43"), "{j}");
        assert!(!j.contains(",}"), "dangling comma in {j}");
    }

    #[test]
    fn serve_fault_encodes_in_json() {
        let e = Event::ServeFault {
            dram_cycle: DramCycle::ZERO,
            domain: "worker",
            kind: "panic",
            subject: "0011223344556677".to_string(),
            detail: "index out of bounds, len 4\n(retrying)".to_string(),
        };
        let j = e.to_json();
        assert!(j.contains("\"event\":\"serve_fault\""), "{j}");
        assert!(j.contains("\"domain\":\"worker\""), "{j}");
        assert!(j.contains("\"kind\":\"panic\""), "{j}");
        assert!(j.contains("\\n(retrying)"), "newline must be escaped: {j}");
        assert!(!j.contains(",}"), "dangling comma in {j}");
    }

    #[test]
    fn dram_cycle_accessor_covers_all_variants() {
        let e = Event::WriteDrainEnd {
            dram_cycle: DramCycle::new(77),
            channel: 2,
            queued_writes: 0,
        };
        assert_eq!(e.dram_cycle(), 77);
        assert_eq!(e.name(), "write_drain_end");
    }
}
