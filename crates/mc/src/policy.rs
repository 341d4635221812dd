//! The scheduler-policy abstraction.
//!
//! The controller reproduces the paper's two-level scheduler (Section 2.3)
//! functionally: for every bank it selects the highest-priority *request*
//! according to the active [`SchedulerPolicy`], derives that request's next
//! DRAM command from the current bank state, and — among the banks whose
//! selected command is *ready* (issuable without violating any timing
//! constraint) — issues the command of the globally highest-priority
//! request. Policies therefore only rank requests; all timing legality is
//! the controller's and the device model's problem.

use crate::request::Request;
use stfm_dram::{Channel, ChannelId, DramCommand, DramCycle};
use stfm_telemetry::{Event, Sink};

/// Estimator work counters a policy may expose for performance
/// accounting (see [`SchedulerPolicy::work_counters`]). All counts are
/// cumulative over the policy's lifetime; they are bookkeeping only and
/// never feed back into scheduling decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyWork {
    /// O(queue) walks over a request buffer (full estimator rebuilds).
    pub full_rebuilds: u64,
    /// O(1) incremental state updates driven by lifecycle transitions.
    pub incremental_updates: u64,
    /// Per-cycle decision passes that actually recomputed slowdowns.
    pub decides_recomputed: u64,
    /// Per-cycle decision passes served from the cached previous result.
    pub decides_carried: u64,
}

/// Lexicographic priority key; **larger compares as higher priority**.
///
/// Conventional field usage (policies are free to deviate):
/// `[class, primary, tiebreak]`, with the last level usually
/// `u64::MAX - request id` to implement oldest-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub [u64; 3]);

impl Rank {
    /// The lowest possible rank.
    pub const MIN: Rank = Rank([0; 3]);

    /// Oldest-first tiebreak helper: smaller id → larger value.
    #[inline]
    pub fn older_first(id: crate::request::RequestId) -> u64 {
        u64::MAX - id.0
    }
}

/// Read-only view of one channel handed to policies while ranking.
#[derive(Debug, Clone, Copy)]
pub struct SchedQuery<'a> {
    /// Which channel is being scheduled.
    pub channel_id: ChannelId,
    /// Current DRAM cycle.
    pub now: DramCycle,
    /// Device state (bank open rows, bus occupancy, ...).
    pub channel: &'a Channel,
    /// All live entries of this channel's request buffer (queued,
    /// in-service, and just-completed requests awaiting reaping).
    pub requests: &'a [Request],
    /// Controller-maintained per-bank waiting-request index (ascending
    /// positions into `requests`), present on the hot path; hand-built
    /// test queries leave it `None` and fall back to scanning.
    pub(crate) bank_waiting: Option<&'a [Vec<usize>]>,
}

impl SchedQuery<'_> {
    /// True if `req`'s next access would hit the currently open row.
    #[inline]
    pub fn is_row_hit(&self, req: &Request) -> bool {
        self.channel.bank(req.loc.bank).open_row() == Some(req.loc.row)
    }

    /// True if `req`'s next command satisfies its *bank-local* timing
    /// constraints at `now` — the paper's "ready" notion (footnote 4),
    /// ignoring shared-bus availability. A request blocked by its own
    /// bank's timing shadow is not ready and would have waited even with
    /// the thread running alone.
    pub fn is_bank_ready(&self, req: &Request) -> bool {
        let cmd = req.next_command(self.channel);
        self.channel.bank(req.loc.bank).can_issue(&cmd, self.now)
    }
}

impl<'a> SchedQuery<'a> {
    /// Iterates this channel's *waiting* requests targeting `bank`, in
    /// ascending buffer position (= enqueue order). Served from the
    /// controller's per-bank index when available, otherwise by scanning
    /// `requests`; the yielded sequence is identical either way, so
    /// policies can use this unconditionally.
    pub fn waiting_in_bank(&self, bank: u32) -> WaitingInBank<'a> {
        WaitingInBank {
            inner: match self.bank_waiting {
                Some(lists) => BankIter::Indexed {
                    idx: lists[bank as usize].iter(),
                    requests: self.requests,
                },
                None => BankIter::Scan {
                    iter: self.requests.iter(),
                    bank,
                },
            },
        }
    }
}

/// Iterator over one bank's waiting requests; see
/// [`SchedQuery::waiting_in_bank`].
pub struct WaitingInBank<'a> {
    inner: BankIter<'a>,
}

enum BankIter<'a> {
    Indexed {
        idx: std::slice::Iter<'a, usize>,
        requests: &'a [Request],
    },
    Scan {
        iter: std::slice::Iter<'a, Request>,
        bank: u32,
    },
}

impl<'a> Iterator for WaitingInBank<'a> {
    type Item = &'a Request;

    fn next(&mut self) -> Option<&'a Request> {
        match &mut self.inner {
            BankIter::Indexed { idx, requests } => idx.next().map(|&i| &requests[i]),
            BankIter::Scan { iter, bank } => iter
                .by_ref()
                .find(|r| r.is_waiting() && r.loc.bank.0 == *bank),
        }
    }
}

/// Read-only view of the whole memory system (all channels), handed to
/// policies once per DRAM cycle for global bookkeeping such as STFM's
/// `BankWaitingParallelism` recomputation.
///
/// The view is backed either by the controller's channel array directly
/// (the hot path — no per-cycle allocation) or by one caller-provided
/// [`SchedQuery`] (policy unit tests). Iterate with
/// [`SystemView::channels`]; queries are `Copy` and constructed on demand.
pub struct SystemView<'a> {
    /// Current DRAM cycle.
    pub now: DramCycle,
    backing: ViewBacking<'a>,
}

enum ViewBacking<'a> {
    /// A single channel, stored inline (test convenience).
    One(SchedQuery<'a>),
    /// The controller's channel array, viewed without allocating.
    Ctrls(&'a [crate::controller::ChannelCtrl]),
}

impl<'a> SystemView<'a> {
    /// A view of a single channel (the common case in policy unit tests).
    pub fn single(q: SchedQuery<'a>) -> Self {
        SystemView {
            now: q.now,
            backing: ViewBacking::One(q),
        }
    }

    pub(crate) fn from_ctrls(now: DramCycle, ctrls: &'a [crate::controller::ChannelCtrl]) -> Self {
        SystemView {
            now,
            backing: ViewBacking::Ctrls(ctrls),
        }
    }

    /// Number of channels in the view.
    pub fn num_channels(&self) -> usize {
        match &self.backing {
            ViewBacking::One(_) => 1,
            ViewBacking::Ctrls(cs) => cs.len(),
        }
    }

    /// The scheduling query for channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn channel(&self, i: usize) -> SchedQuery<'a> {
        match &self.backing {
            ViewBacking::One(q) => {
                assert!(i == 0, "channel {i} out of range");
                *q
            }
            ViewBacking::Ctrls(cs) => cs[i].query(ChannelId(i as u32), self.now),
        }
    }

    /// Iterates over all channels' queries in channel-id order.
    pub fn channels(&self) -> impl Iterator<Item = SchedQuery<'a>> + '_ {
        (0..self.num_channels()).map(|i| self.channel(i))
    }
}

/// A DRAM scheduling policy.
///
/// Implementations: [`crate::FrFcfs`], [`crate::Fcfs`],
/// [`crate::FrFcfsCap`], [`crate::Nfq`], and the STFM scheduler in the
/// `stfm-core` crate.
pub trait SchedulerPolicy {
    /// Short policy name for reports and telemetry events (e.g.
    /// `"FR-FCFS"`).
    fn name(&self) -> &'static str;

    /// Ranks a live request. The controller calls this for every
    /// non-completed request each time it schedules; the highest-ranked
    /// request per bank is driven, and the highest-ranked ready command
    /// across banks issues.
    fn rank(&self, req: &Request, q: &SchedQuery<'_>) -> Rank;

    /// Called once per DRAM cycle, before any ranking, with a view of the
    /// entire system. Policies update cycle-granular state here (e.g. STFM
    /// recomputes slowdowns, NFQ refreshes its inversion-prevention sets).
    fn on_dram_cycle(&mut self, _sys: &SystemView<'_>) {}

    /// Called when a request enters the request buffer. `tshared` is the
    /// requesting core's cumulative memory-stall-cycle counter, which the
    /// paper communicates to the controller with every request.
    fn on_enqueue(&mut self, _req: &Request, _tshared: u64) {}

    /// Called after `cmd` (belonging to `req`) has issued at `q.now`.
    fn on_command(&mut self, _cmd: &DramCommand, _req: &Request, _q: &SchedQuery<'_>) {}

    /// Called when a request's data burst completes.
    fn on_complete(&mut self, _req: &Request) {}

    /// Optional introspection hook: policies that expose internal state
    /// (e.g. STFM's slowdown estimates) return `Some(self)` so harnesses
    /// can downcast. Default: no introspection.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Telemetry hook, called by the controller once per sampling
    /// interval when a trace sink is attached. The default reports only
    /// the policy name; policies with per-thread estimates (STFM's
    /// slowdowns and fairness-rule state) override this to fill in the
    /// [`Event::SchedulerIntervalUpdate`] payload.
    ///
    /// Implementations must treat `self` as read-only in spirit: the
    /// event reflects state, never changes it, so attaching a sink
    /// cannot perturb scheduling decisions.
    fn record_interval(&self, now: DramCycle, sink: &mut dyn Sink) {
        sink.record(&Event::SchedulerIntervalUpdate {
            dram_cycle: now,
            scheduler: self.name(),
            slowdowns: Vec::new(),
            unfairness: None,
            fairness_rule_active: None,
        });
    }

    /// Settles a span of elided cycles: replicate the persistent effects
    /// of `cycles` consecutive [`SchedulerPolicy::on_dram_cycle`] calls
    /// (at `sys.now`, `sys.now + 1`, …) under the guarantee that the
    /// request buffers, device state, and request lifecycles in `sys`
    /// are frozen for the whole span (no command can issue, nothing
    /// arrives or completes, and [`SchedulerPolicy::next_event_hint`] is
    /// not crossed). The policy must end up **bit-identical** to `cycles`
    /// stepped calls; derived state that the next real `on_dram_cycle`
    /// recomputes from scratch before anything reads it may be left
    /// stale.
    ///
    /// The default runs the cycle hook once, which is exact for every
    /// policy whose hook is idempotent on frozen state: the first skipped
    /// cycle may observe changes since the last stepped call (an arrival
    /// to prune against, a new bank head starting its timer at `sys.now`,
    /// an exhausted batch to re-form), and every further call would find
    /// the same buffers and rewrite the same persistent state. A policy
    /// whose hook accumulates per cycle (STFM's interference drain) must
    /// override this with the span's closed form.
    fn fast_forward(&mut self, sys: &SystemView<'_>, _cycles: u64) {
        self.on_dram_cycle(sys);
    }

    /// Identifies the current *decision state* of the policy for the
    /// controller's cross-tick rank cache. Two calls returning the same
    /// `Some(epoch)` promise that [`SchedulerPolicy::rank`] is a pure
    /// function of the request and the channel's bank state between them
    /// — i.e. no policy-internal state that feeds ranking has changed,
    /// and no rank flips purely because `q.now` advanced. Return `None`
    /// (the default) to disable decision carrying entirely; stateless
    /// policies return a constant, stateful ones bump an internal counter
    /// whenever rank-relevant state moves.
    fn decision_epoch(&self) -> Option<u64> {
        None
    }

    /// Cumulative estimator work counters, if the policy tracks them
    /// (STFM does; see [`PolicyWork`]). Used by benches and regression
    /// tests to assert the estimator does O(events) work, not O(cycles).
    fn work_counters(&self) -> Option<PolicyWork> {
        None
    }

    /// The next DRAM cycle at which this policy's per-cycle state
    /// transitions in a way [`SchedulerPolicy::fast_forward`] cannot
    /// replicate (e.g. STFM's interval reset). The controller never
    /// elides the returned cycle. `None` means no such boundary.
    fn next_event_hint(&self) -> Option<DramCycle> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;

    #[test]
    fn rank_orders_lexicographically() {
        assert!(Rank([1, 0, 0]) > Rank([0, u64::MAX, u64::MAX]));
        assert!(Rank([1, 5, 0]) > Rank([1, 4, u64::MAX]));
        assert!(Rank::MIN < Rank([0, 0, 1]));
    }

    #[test]
    fn older_first_inverts_ids() {
        assert!(Rank::older_first(RequestId(1)) > Rank::older_first(RequestId(2)));
    }
}
