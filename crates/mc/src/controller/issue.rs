//! The bank and channel schedulers (paper §2.3): each bank's best
//! request, carried across ticks, and the channel's one ready command per
//! cycle. State: [`BankSchedulers`], one per channel. Each rule that
//! drops a bank's cache is one method on it (see [`BankCache`]); a
//! scheduling pass ([`ChannelCtrl::schedule`]) also reads the buffer and
//! the drain election, and issues through the device and the buffer.

use super::queue::RequestBuffer;
use super::ChannelCtrl;
use crate::policy::{Rank, SchedQuery, SchedulerPolicy};
use crate::request::{AccessKind, Request, RequestId};
use stfm_dram::{BankId, DramCycle};
use stfm_telemetry::Sink;

/// Cumulative scheduling-work counters for one run (summed over
/// channels by [`super::MemorySystem::sched_counters`]). Bookkeeping only:
/// counters never feed back into scheduling decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Scheduling passes over a channel (one per non-idle tick per
    /// channel; the event loop skips idle channels).
    pub sched_visits: u64,
    /// Bank walks, at a scheduling visit or in the edge scan.
    /// A walk calls [`SchedulerPolicy::rank`] only for requests whose rank
    /// is not cached; an arrival is ranked without one.
    pub rank_scans: u64,
    /// Per-bank decisions at scheduling visits served from the cross-tick
    /// cache without a walk.
    pub rank_carried: u64,
}

/// One bank's carried selection: the outcome of its last walk, kept
/// across ticks (see [`BankCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Not known; the next scheduling visit walks the bank.
    Stale,
    /// No request of the entry's kind waits in the bank.
    Empty,
    /// The winner of the walk plus the best row-hit fallback.
    Top {
        /// Highest-ranked request of the entry's kind.
        top: Pick,
        /// Whether `top` hits the open row (its command class).
        top_hit: bool,
        /// Best-ranked row hit other than `top` (the "slip" candidate
        /// driven while `top`'s command is not ready), if any.
        slip: Option<Pick>,
    },
}

/// One bank's cache: what its last walk found, for one access kind.
///
/// A walk ([`walk`]) passes once over the bank's waiting requests of
/// `kind` and yields the [`Decision`] and the class presence together.
/// Each part is dropped by exactly what can change it, one method of
/// [`BankSchedulers`] per rule:
///
/// * a refresh ([`BankSchedulers::refresh`]) or a row change by ACTIVATE
///   or PRECHARGE ([`BankSchedulers::row_change`]) drops all of it —
///   every row-hit classification moves;
/// * a column command ([`BankSchedulers::column_command`]) takes one
///   request out of the list: it drops the decision and the class
///   presence, and keeps the other requests' cached ranks, which read
///   neither that request nor the row;
/// * an arrival of `kind` is folded in ([`BankSchedulers::arrival`]): its
///   class becomes present, and while the ranks are cached it is ranked
///   once and merged into the decision;
/// * a policy report ([`SchedulerPolicy::take_stale_banks`], applied by
///   [`BankSchedulers::policy_report`]) drops the decision and the cached
///   ranks, never the class presence, which carries timing shape, not
///   rank;
/// * a channel whose eligible kind is no longer `kind` finds the entry
///   stale as a whole.
///
/// Readiness is never cached: a carried decision is re-checked at the
/// current cycle against the bank's class edges
/// ([`stfm_dram::Channel::class_edges`]) — all row hits of a bank share
/// one command shape (as do all row misses), so the class of the top and
/// of the slip carries the issuability of every other candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BankCache {
    /// The access kind the entry describes.
    kind: AccessKind,
    /// Whether the waiting list holds a `kind` row hit and a `kind` row
    /// miss; `None` when unknown.
    classes: Option<ClassPresence>,
    /// Whether `slot_rank` holds the rank of every waiting `kind` request.
    ranked: bool,
    /// The carried selection.
    decision: Decision,
}

impl BankCache {
    /// An entry for `kind` that knows nothing.
    const fn stale(kind: AccessKind) -> Self {
        BankCache {
            kind,
            classes: None,
            ranked: false,
            decision: Decision::Stale,
        }
    }
}

/// A selected request: `(slot, rank, id)`.
type Pick = (usize, Rank, RequestId);

/// Whether a bank's waiting list holds an eligible `(row-hit, row-miss)`.
type ClassPresence = (bool, bool);

/// The order a walk picks by: `(rank, older_first(id))`, unique per
/// request, so a selection never depends on visiting order.
#[inline]
fn pick_key(p: &Pick) -> (Rank, u64) {
    (p.1, Rank::older_first(p.2))
}

/// Folds one more `kind` request into a bank's selection: `pick` becomes
/// the top if it outranks it, and otherwise the slip if it is a row hit
/// that outranks the slip. Folding every candidate into
/// [`Decision::Empty`] gives the walk's decision; folding an arrival
/// into a carried one gives exactly what a walk with it would.
#[inline]
fn fold(decision: &mut Decision, pick: Pick, hit: bool) {
    match decision {
        Decision::Top { top, top_hit, slip } => {
            if pick_key(&pick) > pick_key(top) {
                // The old top outranks every other hit, so if it is a
                // hit it is the new slip.
                if *top_hit {
                    *slip = Some(*top);
                }
                *top = pick;
                *top_hit = hit;
            } else if hit && slip.is_none_or(|s| pick_key(&pick) > pick_key(&s)) {
                *slip = Some(pick);
            }
        }
        Decision::Empty => {
            *decision = Decision::Top {
                top: pick,
                top_hit: hit,
                slip: None,
            }
        }
        // What was unknown stays unknown.
        Decision::Stale => {}
    }
}

/// One pass over a bank's waiting list `list`: the [`Decision`] over its
/// `kind` requests and their class presence, with `open` the bank's open
/// row. `rank_of` supplies each candidate's rank — cached, or from the
/// policy.
fn walk(
    slots: &[Request],
    list: &[usize],
    kind: AccessKind,
    open: Option<u32>,
    mut rank_of: impl FnMut(usize) -> Rank,
) -> (Decision, ClassPresence) {
    let mut decision = Decision::Empty;
    let (mut any_hit, mut any_miss) = (false, false);
    for &s in list {
        let r = &slots[s];
        if r.kind != kind {
            continue;
        }
        let hit = open == Some(r.loc.row);
        any_hit |= hit;
        any_miss |= !hit;
        fold(&mut decision, (s, rank_of(s), r.id), hit);
    }
    (decision, (any_hit, any_miss))
}

/// One channel's bank schedulers: each bank's carried walk, each slot's
/// cached rank, and the scheduling-work counters.
pub(super) struct BankSchedulers {
    /// Per-slot cached rank, current for a bank's waiting requests while
    /// its [`BankCache::ranked`] is set.
    slot_rank: Vec<Rank>,
    /// Per-bank cached walks, carried across ticks.
    bank_cache: Vec<BankCache>,
    /// This channel's scheduling work.
    pub(super) counters: SchedCounters,
}

impl BankSchedulers {
    /// Stale caches for `banks` banks over a buffer of `capacity` slots.
    pub(super) fn new(banks: u32, capacity: usize) -> Self {
        BankSchedulers {
            slot_rank: vec![Rank::MIN; capacity],
            // The kind is arbitrary: a stale entry knows nothing.
            bank_cache: vec![BankCache::stale(AccessKind::Read); banks as usize],
            counters: SchedCounters::default(),
        }
    }

    /// A refresh precharged every bank: every walk is stale.
    pub(super) fn refresh(&mut self) {
        for e in &mut self.bank_cache {
            *e = BankCache::stale(e.kind);
        }
    }

    /// `bank`'s row changed: every row-hit classification moved.
    pub(super) fn row_change(&mut self, bank: usize) {
        let e = &mut self.bank_cache[bank];
        *e = BankCache::stale(e.kind);
    }

    /// A column command took one request out of `bank`'s list; the row,
    /// and every other cached rank, stands.
    pub(super) fn column_command(&mut self, bank: usize) {
        let e = &mut self.bank_cache[bank];
        e.classes = None;
        e.decision = Decision::Stale;
    }

    /// The policy reported that the ranks of the banks in `mask` (bit `b`
    /// for bank `b`) moved; their class presence reads no rank.
    pub(super) fn policy_report(&mut self, mask: u64) {
        for (b, e) in self.bank_cache.iter_mut().enumerate() {
            if mask >> b & 1 == 1 {
                e.ranked = false;
                e.decision = Decision::Stale;
            }
        }
    }

    /// Folds `req`, just inserted in `slot`, into its bank's entry:
    /// exactly what a walk with it would find.
    pub(super) fn arrival(
        &mut self,
        q: &SchedQuery<'_>,
        req: &Request,
        slot: usize,
        policy: &dyn SchedulerPolicy,
    ) {
        let entry = &mut self.bank_cache[req.loc.bank.0 as usize];
        if entry.kind != req.kind {
            return;
        }
        let hit = q.is_row_hit(req);
        if let Some((any_hit, any_miss)) = &mut entry.classes {
            *(if hit { any_hit } else { any_miss }) = true;
        }
        if entry.ranked {
            let rank = policy.rank(req, q);
            self.slot_rank[slot] = rank;
            fold(&mut entry.decision, (slot, rank, req.id), hit);
        }
    }

    /// Walks `bank` for `kind` ([`walk`]), caches what it finds and
    /// returns it. Ranks come from `slot_rank` while cached, else from
    /// `policy`, and are cached for the next walk.
    fn walk_bank(
        &mut self,
        q: &SchedQuery<'_>,
        queue: &RequestBuffer,
        bank: usize,
        kind: AccessKind,
        policy: &dyn SchedulerPolicy,
    ) -> (Decision, ClassPresence) {
        self.counters.rank_scans += 1;
        let entry = &mut self.bank_cache[bank];
        let ranked = entry.kind == kind && entry.ranked;
        let open = q.channel.bank(BankId(bank as u32)).open_row();
        let (slots, slot_rank) = (queue.slots(), &mut self.slot_rank);
        let (decision, classes) = walk(slots, queue.waiting(bank), kind, open, |s| {
            if !ranked {
                slot_rank[s] = policy.rank(&slots[s], q);
            }
            slot_rank[s]
        });
        *entry = BankCache {
            kind,
            classes: Some(classes),
            ranked: true,
            decision,
        };
        (decision, classes)
    }

    /// Debug-build check of `bank`'s cache entry against a walk that calls
    /// `rank` on every request: the carried class presence always, and
    /// with `ranks` — once the policy has reported every rank move, at a
    /// scheduling visit — the carried decision and every cached rank.
    fn audit_bank(
        &self,
        q: &SchedQuery<'_>,
        queue: &RequestBuffer,
        bank: usize,
        policy: &dyn SchedulerPolicy,
        ranks: bool,
    ) {
        if !cfg!(debug_assertions) {
            return;
        }
        let (entry, now) = (&self.bank_cache[bank], q.now);
        let open = q.channel.bank(BankId(bank as u32)).open_row();
        let slots = queue.slots();
        let (decision, classes) = walk(slots, queue.waiting(bank), entry.kind, open, |s| {
            if !ranks {
                return Rank::MIN;
            }
            let rank = policy.rank(&slots[s], q);
            assert!(
                !entry.ranked || self.slot_rank[s] == rank,
                "cached rank of slot {s} (bank {bank}) is stale at {now}"
            );
            rank
        });
        if let Some(carried) = entry.classes {
            assert_eq!(
                carried, classes,
                "cached class presence of bank {bank} diverged from a fresh walk at {now}"
            );
        }
        if ranks && entry.decision != Decision::Stale {
            assert_eq!(
                entry.decision, decision,
                "carried decision of bank {bank} diverged from a fresh walk at {now}"
            );
        }
    }
}

impl ChannelCtrl {
    /// Selects and issues at most one command on the channel: the channel
    /// scheduler over the bank schedulers' decisions. Each bank drives its
    /// top request; while that request's next command is not ready (tRAS,
    /// tRP, bus...), lower-priority requests may slip in *row-hit column
    /// accesses only* — they keep the bank busy but never destroy
    /// row-buffer state against the selected request's interest, as in
    /// hardware two-level schedulers (paper footnote 4).
    pub(super) fn schedule(
        &mut self,
        policy: &mut dyn SchedulerPolicy,
        now: DramCycle,
        sink: &mut dyn Sink,
    ) {
        let sched = &mut self.sched;
        sched.counters.sched_visits += 1;
        let kind = self.drain.eligible_kind(&self.queue);

        // Phase 1: per-bank top request, then the globally best *ready*
        // command. A bank's decision is carried across ticks in its cache
        // entry ([`BankCache`]) and walked again only once dropped;
        // issuability is re-evaluated at `now` every cycle against the
        // bank's class edges, so DRAM timing is never cached. Selection
        // is order-independent: the key `(rank, older_first(id))` is
        // unique per request.
        let write = kind == AccessKind::Write;
        let q = self.queue.query(self.id, &self.channel, now);
        let mut best: Option<Pick> = None;
        for bank in 0..self.channel.num_banks() as usize {
            if self.queue.waiting(bank).is_empty() {
                continue;
            }
            let entry = sched.bank_cache[bank];
            let decision = if entry.kind == kind && entry.decision != Decision::Stale {
                sched.counters.rank_carried += 1;
                entry.decision
            } else {
                sched.walk_bank(&q, &self.queue, bank, kind, &*policy).0
            };
            sched.audit_bank(&q, &self.queue, bank, &*policy, true);
            let Decision::Top { top, top_hit, slip } = decision else {
                continue;
            };
            let edges = self.channel.class_edges(BankId(bank as u32), write, now);
            let candidate = if edges.of(top_hit) <= now {
                Some(top)
            } else {
                // All row hits share one command shape: if the best one
                // cannot issue, none can.
                slip.filter(|_| edges.of(true) <= now)
            };
            if let Some(c) = candidate {
                if best.is_none_or(|b| pick_key(&c) > pick_key(&b)) {
                    best = Some(c);
                }
            }
        }
        let Some((slot, ..)) = best else {
            return;
        };
        // The one command built per visit: the winner's.
        let req = &self.queue.slots()[slot];
        let cmd = req.next_command(&self.channel);
        let bank = cmd.bank.0 as usize;

        // Phase 2 (mutable): issue and update request state. Rows stay
        // open after a column access (Table 2: open-page policy).
        let pre_open = self.channel.bank(cmd.bank).open_row();
        let (id, thread) = (self.id.0, Some(req.thread.0));
        let done = self.channel.issue_traced(&cmd, now, id, thread, sink);
        self.queue.issued(slot, &cmd, pre_open, now, done);
        // Other banks are untouched: their ranks depend only on their own
        // state and on policy state, whose moves the policy reports.
        if cmd.is_column() {
            sched.column_command(bank);
        } else {
            sched.row_change(bank);
        }
        let q = self.queue.query(self.id, &self.channel, now);
        policy.on_command(&cmd, &self.queue.slots()[slot], &q);
    }

    /// `bank`'s class presence for `kind`: with `policy`, carried or from
    /// a walk that caches it; without, fresh from the waiting list,
    /// bypassing the cache (the debug cross-check of the edge scan).
    pub(super) fn classes(
        &mut self,
        bank: usize,
        kind: AccessKind,
        policy: Option<&dyn SchedulerPolicy>,
        now: DramCycle,
    ) -> ClassPresence {
        let q = self.queue.query(self.id, &self.channel, now);
        let Some(policy) = policy else {
            let open = q.channel.bank(BankId(bank as u32)).open_row();
            return walk(
                self.queue.slots(),
                self.queue.waiting(bank),
                kind,
                open,
                |_| Rank::MIN,
            )
            .1;
        };
        let entry = self.sched.bank_cache[bank];
        let classes = match entry.classes.filter(|_| entry.kind == kind) {
            Some(classes) => classes,
            None => self.sched.walk_bank(&q, &self.queue, bank, kind, policy).1,
        };
        self.sched.audit_bank(&q, &self.queue, bank, policy, false);
        classes
    }
}
