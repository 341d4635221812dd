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
///
/// The channel's requests are reached through [`SchedQuery::waiting`],
/// [`SchedQuery::waiting_in_bank`] and, for debug audits,
/// [`SchedQuery::live`]: the controller's buffer has vacant slots that no
/// policy may see.
#[derive(Debug, Clone, Copy)]
pub struct SchedQuery<'a> {
    /// Which channel is being scheduled.
    pub channel_id: ChannelId,
    /// Current DRAM cycle.
    pub now: DramCycle,
    /// Device state (bank open rows, bus occupancy, ...).
    pub channel: &'a Channel,
    pub(crate) buffer: Buffer<'a>,
}

/// Where a [`SchedQuery`]'s requests live.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Buffer<'a> {
    /// The controller's slot buffer (vacant slots hold completed
    /// requests) and its per-bank waiting lists of slot indices, each in
    /// arrival order.
    Slots {
        slots: &'a [Request],
        bank_waiting: &'a [Vec<usize>],
    },
    /// A hand-built request slice (policy unit tests), scanned.
    Slice(&'a [Request]),
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
    /// arrival (= id) order. Served from the controller's per-bank list,
    /// or by scanning a hand-built test slice; the yielded sequence is
    /// the same either way.
    #[inline]
    pub fn waiting_in_bank(&self, bank: u32) -> WaitingInBank<'a> {
        WaitingInBank {
            inner: match self.buffer {
                Buffer::Slots {
                    slots,
                    bank_waiting,
                } => BankIter::Indexed {
                    idx: bank_waiting[bank as usize].iter(),
                    slots,
                },
                Buffer::Slice(requests) => BankIter::Scan {
                    iter: requests.iter(),
                    bank,
                },
            },
        }
    }

    /// Iterates this channel's waiting requests bank by bank, each bank
    /// in arrival order — [`SchedQuery::waiting_in_bank`] over every
    /// bank.
    pub fn waiting(&self) -> impl Iterator<Item = &'a Request> + 'a {
        let q = *self;
        (0..self.channel.num_banks()).flat_map(move |bank| q.waiting_in_bank(bank))
    }

    /// Iterates every request the channel holds — waiting and in service
    /// — in no particular order. A whole-buffer walk: for debug audits,
    /// not for per-cycle or per-command paths.
    pub fn live(&self) -> impl Iterator<Item = &'a Request> + 'a {
        let (Buffer::Slots { slots: all, .. } | Buffer::Slice(all)) = self.buffer;
        // A vacant slot holds the completed request it last carried.
        all.iter().filter(|r| !r.is_completed())
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
        slots: &'a [Request],
    },
    Scan {
        iter: std::slice::Iter<'a, Request>,
        bank: u32,
    },
}

impl<'a> Iterator for WaitingInBank<'a> {
    type Item = &'a Request;

    #[inline]
    fn next(&mut self) -> Option<&'a Request> {
        match &mut self.inner {
            BankIter::Indexed { idx, slots } => idx.next().map(|&i| &slots[i]),
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
            ViewBacking::Ctrls(cs) => cs[i].query(self.now),
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
/// [`crate::FrFcfsCap`], [`crate::Nfq`], [`crate::ParBs`], and the STFM
/// scheduler in the `stfm-core` crate.
///
/// The `Any` supertrait lets harnesses reach a concrete policy's own
/// state (STFM's estimates) by upcasting `&dyn SchedulerPolicy` to
/// `&dyn Any` and downcasting.
pub trait SchedulerPolicy: std::any::Any {
    /// Short policy name for reports and telemetry events (e.g.
    /// `"FR-FCFS"`).
    fn name(&self) -> &'static str;

    /// Ranks a waiting request. The controller calls this for the
    /// waiting requests of the eligible access kind when it walks a bank
    /// whose ranks are not cached, and once for an arrival to a bank
    /// whose ranks are; the highest-ranked request per bank is driven,
    /// and the highest-ranked ready command across banks issues.
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
    /// arrives or completes). The policy must end up **bit-identical** to
    /// `cycles` stepped calls; derived state that the next real
    /// `on_dram_cycle` recomputes from scratch before anything reads it
    /// may be left stale.
    ///
    /// The default runs the cycle hook once, which is exact for every
    /// policy whose hook is idempotent on frozen state: the first skipped
    /// cycle may observe changes since the last stepped call (an arrival
    /// to prune against, a new bank head starting its timer at `sys.now`,
    /// an exhausted batch to re-form), and every further call would find
    /// the same buffers and rewrite the same persistent state. A policy
    /// whose hook accumulates per cycle (STFM's interference drain and
    /// interval resets) must override this with the span's closed form.
    fn fast_forward(&mut self, sys: &SystemView<'_>, _cycles: u64) {
        self.on_dram_cycle(sys);
    }

    /// Returns, and forgets, the banks whose ranks the policy's own state
    /// changed since the last call: bit [`crate::bank_slot`] per
    /// `(channel, bank)`.
    ///
    /// The controller caches each bank's winner and the rank of each of
    /// its waiting requests across ticks. It drops the ranks itself only
    /// when the bank's row changes (ACTIVATE, PRECHARGE, an
    /// auto-precharge, a refresh) or the eligible access kind flips; an
    /// arrival is ranked once and merged, and a column command keeps
    /// every other request's rank. It calls this once per DRAM cycle,
    /// right after [`SchedulerPolicy::on_dram_cycle`] and before it
    /// ranks any bank, and drops the reported banks' winners and ranks.
    /// So a policy whose [`SchedulerPolicy::rank`] reads its own state
    /// reports every bank whose ranks that state moved, whichever hook
    /// moved them; a hook other than `on_dram_cycle` may only move ranks
    /// in its own request's channel. A policy whose ranks read `q.now`
    /// reports every slot. The default, `0`, is exact when ranks depend
    /// only on the request and the bank's state. Debug builds check every
    /// carried winner and cached rank against a walk that calls
    /// [`SchedulerPolicy::rank`] on every request.
    fn take_stale_banks(&mut self) -> u64 {
        0
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
