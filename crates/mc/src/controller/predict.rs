//! The event loop's outlook: each channel's cached earliest edge, and the
//! deferred policy residue of elided ticks. State: [`Outlook`], whose
//! fields no other module sees; the [`MemorySystem`] methods here are the
//! event loop's interface to it.

use super::{queries, ChannelCtrl, MemorySystem};
use crate::policy::{SchedulerPolicy, SystemView};
use crate::request::AccessKind;
use stfm_dram::{BankId, DramCycle};

/// What the memory system expects to happen next, per channel, and the
/// elided cycles whose policy hook is still owed.
pub(super) struct Outlook {
    /// Per-channel cached earliest edge (`channel_edge`), meaningful only
    /// while the channel is clean. Channels are few enough that a flat
    /// scan for the minimum beats maintaining a heap agenda.
    next: Vec<Option<DramCycle>>,
    /// Channels whose cached earliest edge is stale and needs a rescan.
    dirty: Vec<bool>,
    /// The first cycle and the count of the elided ticks whose per-cycle
    /// policy residue is still deferred (see [`MemorySystem::elide_span`]).
    residue: Option<(DramCycle, u64)>,
}

impl Outlook {
    /// Every channel dirty, nothing deferred.
    pub(super) fn new(channels: usize) -> Self {
        Outlook {
            next: vec![None; channels],
            dirty: vec![true; channels],
            residue: None,
        }
    }

    /// Marks dirty every channel whose cached edge is due by `now`. An
    /// edge stays exact until consumed: a channel cannot change at a tick
    /// before it unless a request arrived, which `merge_arrival` handles.
    pub(super) fn consume(&mut self, now: DramCycle) {
        for (dirty, edge) in self.dirty.iter_mut().zip(&self.next) {
            if edge.is_some_and(|e| e <= now) {
                *dirty = true;
            }
        }
    }

    /// Whether channel `i` provably does nothing at `now`: it is clean and
    /// its earliest edge lies ahead. Stepped runs never clear a dirty bit,
    /// so the stepped oracle never takes this shortcut.
    pub(super) fn idle(&self, i: usize, now: DramCycle) -> bool {
        !self.dirty[i] && self.next[i].is_none_or(|e| e > now)
    }
}

impl MemorySystem {
    /// Folds a just-enqueued request (in `slot` of channel `chan`) into
    /// the channel's cached earliest edge without a rescan.
    ///
    /// An enqueue adds one request and touches nothing else, so the
    /// cached edge stays exact *unless* the arrival changes the
    /// channel's outlook wholesale: the write-drain hysteresis now flips
    /// at the next tick, or a read arrival flips the read/write election
    /// away from the writes whose edges were folded in. Those cases (and
    /// a channel that is already dirty) fall back to the dirty bit; the
    /// common case just folds in the newcomer's own command edge.
    pub(super) fn merge_arrival(&mut self, chan: usize, slot: usize) {
        let o = &mut self.outlook;
        if o.dirty[chan] {
            return;
        }
        let ctrl = &self.channels[chan];
        let req = &ctrl.queue.slots()[slot];
        // Both tests see the post-arrival state, exactly what a rescan at
        // the next tick would evaluate. The election turns from writes to
        // reads when this read is the one waiting read and no drain runs.
        let kind = ctrl.drain.eligible_kind(&ctrl.queue);
        let flipped = req.kind == AccessKind::Read && ctrl.queue.waiting_reads() == 1;
        if ctrl.drain.will_flip(&ctrl.queue) || (flipped && kind == AccessKind::Read) {
            o.dirty[chan] = true;
            return;
        }
        if req.kind != kind {
            return; // not electable now; its edge appears when it is
        }
        let row_hit = ctrl.channel.bank(req.loc.bank).open_row() == Some(req.loc.row);
        let at = ctrl
            .channel
            .class_edges(req.loc.bank, req.kind == AccessKind::Write, self.now)
            .of(row_hit);
        o.next[chan] = Some(o.next[chan].map_or(at, |e| e.min(at)));
    }

    /// Records DRAM cycles `start..start + n` as *elided*: the run loop has
    /// established via [`MemorySystem::predict_next`] that a tick at each
    /// would change nothing but the policy's per-cycle hook, which is
    /// deferred to [`MemorySystem::flush_residue`]. The current cycle
    /// still advances, so telemetry on concurrent enqueues stays exact.
    pub fn elide_span(&mut self, start: DramCycle, n: u64) {
        debug_assert!(n > 0);
        debug_assert_eq!(start, self.now + 1, "elided cycles must be consecutive");
        self.outlook.residue.get_or_insert((start, 0)).1 += n;
        self.now = start + (n - 1);
    }

    /// Settles the deferred per-cycle residue of elided ticks: the
    /// policy's cycle hook, in closed form via
    /// [`crate::SchedulerPolicy::fast_forward`]. That is bit-identical to
    /// having stepped, because the channel state was frozen across the
    /// span (per-cycle views differ only in `now`). Runs automatically at
    /// the top of [`MemorySystem::tick`] and [`MemorySystem::try_enqueue`];
    /// public so the run loop can force it at the end of a run before the
    /// policy is inspected.
    pub fn flush_residue(&mut self) {
        if let Some((start, n)) = self.outlook.residue.take() {
            let queries = queries(&self.channels, start);
            let view = SystemView::new(start, &queries[..self.channels.len()]);
            self.policy.fast_forward(&view, n);
        }
    }

    /// The exact next DRAM cycle at which [`MemorySystem::tick`] would do
    /// anything beyond the deferred per-cycle residue, assuming no new
    /// request arrives — what the event-driven run loop elides up to.
    /// `None` means the memory system is fully idle forever absent new
    /// input. A return of `Some(e)` with `e > now` guarantees that a tick
    /// issues nothing, completes nothing, and emits nothing at every
    /// cycle in `now..e`.
    ///
    /// Incremental: only channels whose cached edge was consumed (or
    /// whose outlook an arrival changed) since the last call are
    /// rescanned (`channel_edge`); clean channels reuse their cached
    /// edge. Debug builds re-derive every channel's edge from scratch —
    /// bypassing the dirty bits and the banks' cached class presence —
    /// and assert agreement.
    pub fn predict_next(&mut self, now: DramCycle) -> Option<DramCycle> {
        let (o, policy) = (&mut self.outlook, &*self.policy);
        debug_assert!(
            o.residue.is_none(),
            "predict_next called with unsettled residue"
        );
        for (i, ctrl) in self.channels.iter_mut().enumerate() {
            if std::mem::take(&mut o.dirty[i]) {
                o.next[i] = channel_edge(ctrl, now, Some(policy));
            }
        }
        // Clamp: a request that arrived mid-tick, after its channel's
        // scheduling phase had already run, can carry an edge at that very
        // cycle — by query time the edge is *due*, not future. Frozen
        // channel state keeps an issuable command issuable, so `now` is
        // its exact firing cycle (the next tick dirties the channel).
        let mut next = o.next.iter().flatten().min().map(|&e| e.max(now));
        debug_assert_eq!(
            next,
            self.channels
                .iter_mut()
                .filter_map(|c| channel_edge(c, now, None))
                .min(),
            "cached channel edges diverged from a full scan at {now}"
        );
        // The one global edge, the next telemetry sample (a real tick
        // emits it), is cheap, so it is recomputed on every call.
        if self.sink.is_enabled() {
            let s = self.next_sample.max(now);
            next = Some(next.map_or(s, |n| n.min(s)));
        }
        next
    }
}

/// The per-channel edge scan: the earliest cycle, clamped to `now`, at
/// which `ctrl` can do anything absent new arrivals — the minimum over its
/// drain fence, the data-done watermark, each bank's class edges for the
/// classes it holds ([`ChannelCtrl::classes`]), and the next refresh
/// transition. The first edge already due ends the scan.
fn channel_edge(
    ctrl: &mut ChannelCtrl,
    now: DramCycle,
    policy: Option<&dyn SchedulerPolicy>,
) -> Option<DramCycle> {
    if ctrl.drain.will_flip(&ctrl.queue) {
        return Some(now);
    }
    let kind = ctrl.drain.eligible_kind(&ctrl.queue);
    let mut earliest = ctrl.queue.next_data_done();
    let write = kind == AccessKind::Write;
    for b in 0..ctrl.channel.num_banks() as usize {
        if earliest.is_some_and(|e| e <= now) {
            return Some(now);
        }
        if ctrl.queue.waiting(b).is_empty() {
            continue;
        }
        let (hit, miss) = ctrl.classes(b, kind, policy, now);
        let edges = ctrl.channel.class_edges(BankId(b as u32), write, now);
        if let Some(at) = edges.earliest(hit, miss) {
            earliest = Some(earliest.map_or(at, |e| e.min(at)));
        }
    }
    if let Some(at) = ctrl.channel.next_refresh_event(now) {
        earliest = Some(earliest.map_or(at, |e| e.min(at)));
    }
    earliest.map(|e| e.max(now))
}
