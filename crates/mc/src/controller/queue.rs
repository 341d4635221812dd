//! The request buffer of one channel, and the [`SchedQuery`] it lends to
//! policies. State: [`RequestBuffer`], whose fields no other module sees:
//! a request enters by `insert`, is `issued` and leaves by `reap`.

use crate::policy::SchedQuery;
use crate::request::{AccessKind, Request, RequestId, RequestState, ThreadId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use stfm_dram::{
    AccessCategory, Channel, ChannelId, ClockRatio, CpuCycle, DramCommand, DramCycle, PhysAddr,
    CONTROLLER_OVERHEAD,
};

/// A serviced request handed back to the requesting core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Id assigned at enqueue time.
    pub id: RequestId,
    /// Requesting thread.
    pub thread: ThreadId,
    /// Read or write.
    pub kind: AccessKind,
    /// The line address the request was enqueued with, so the requester
    /// can match a fill to its miss without a table keyed by `id`.
    pub addr: PhysAddr,
    /// CPU cycle at which the data is available to the core.
    pub finish_cpu: CpuCycle,
}

/// An in-service request: `(data-done cycle, id, slot)`, which sorts into
/// completion-stream order.
type InService = (DramCycle, RequestId, usize);

/// One channel's request buffer and the indexes kept over it.
///
/// A request keeps one buffer slot from enqueue to reap, so no index ever
/// moves. Invariants (checked in debug builds by `audit`):
///
/// * every slot is either live or vacant: a vacant slot is on `free`
///   exactly once and holds the completed request it last carried; a live
///   one holds a waiting or in-service request;
/// * `in_service` holds exactly the in-service requests;
/// * `bank_waiting[b]` holds the slots of exactly the requests with
///   [`Request::is_waiting`] targeting bank `b`, in ascending id
///   (= arrival) order;
/// * `queued[kind as usize]` counts the live requests of each
///   [`AccessKind`];
/// * `waiting_reads` counts live reads still in the `Queued` state.
pub(super) struct RequestBuffer {
    /// The requests, indexed by slot.
    slots: Vec<Request>,
    /// Vacant slots, reused last in, first out.
    free: Vec<usize>,
    /// In-service requests, earliest `(data_done, id)` on top: the top is
    /// the data-done watermark (nothing completes before it), and pops
    /// come out in completion-stream order.
    in_service: BinaryHeap<Reverse<InService>>,
    /// Per-bank waiting-request slots, in id order.
    bank_waiting: Vec<Vec<usize>>,
    /// Buffered reads and writes (any state), indexed by `kind as usize`.
    queued: [usize; 2],
    /// Buffered reads still waiting (no column command issued).
    waiting_reads: usize,
}

impl RequestBuffer {
    /// An empty buffer over `banks` banks, sized for `capacity` requests.
    pub(super) fn new(banks: u32, capacity: usize) -> Self {
        RequestBuffer {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            in_service: BinaryHeap::with_capacity(capacity),
            bank_waiting: (0..banks).map(|_| Vec::new()).collect(),
            queued: [0; 2],
            waiting_reads: 0,
        }
    }

    /// Buffered `kind` requests, in any state.
    pub(super) fn queued(&self, kind: AccessKind) -> usize {
        self.queued[kind as usize]
    }

    /// Buffered reads still waiting for their column command.
    pub(super) fn waiting_reads(&self) -> usize {
        self.waiting_reads
    }

    /// The requests, indexed by slot (a vacant slot holds a completed one).
    pub(super) fn slots(&self) -> &[Request] {
        &self.slots
    }

    /// The slots of `bank`'s waiting requests, in arrival order.
    pub(super) fn waiting(&self, bank: usize) -> &[usize] {
        &self.bank_waiting[bank]
    }

    /// The query a policy ranks this buffer's requests with.
    pub(super) fn query<'a>(
        &'a self,
        channel_id: ChannelId,
        channel: &'a Channel,
        now: DramCycle,
    ) -> SchedQuery<'a> {
        SchedQuery {
            channel_id,
            now,
            channel,
            slots: &self.slots,
            bank_waiting: &self.bank_waiting,
        }
    }

    /// The data-done watermark: the earliest `data_done` of an in-service
    /// request (`None` when none is in service). Nothing completes before
    /// it, so the per-tick reap and the edge scan look no further.
    pub(super) fn next_data_done(&self) -> Option<DramCycle> {
        self.in_service
            .peek()
            .map(|Reverse((data_done, ..))| *data_done)
    }

    /// Puts a new request in a vacant slot (or a new one at the end) and
    /// indexes it; returns the slot.
    pub(super) fn insert(&mut self, req: Request) -> usize {
        debug_assert!(req.is_waiting());
        let (bank, kind) = (req.loc.bank.0 as usize, req.kind);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = req;
                slot
            }
            None => {
                self.slots.push(req);
                self.slots.len() - 1
            }
        };
        // Ids ascend with arrival, so appending keeps the list in id
        // order whichever slot the newcomer took.
        self.bank_waiting[bank].push(slot);
        self.queued[kind as usize] += 1;
        self.waiting_reads += usize::from(kind == AccessKind::Read);
        slot
    }

    /// Records `cmd`, issued at `now` for `slot`'s request on a bank whose
    /// open row was `pre_open`: the first command starts its service, and
    /// the column command puts it in service until `done`.
    pub(super) fn issued(
        &mut self,
        slot: usize,
        cmd: &DramCommand,
        pre_open: Option<u32>,
        now: DramCycle,
        done: DramCycle,
    ) {
        let req = &mut self.slots[slot];
        if req.service_started.is_none() {
            req.service_started = Some(now);
            req.category = Some(AccessCategory::classify(pre_open, req.loc.row));
        }
        if cmd.is_column() {
            req.state = RequestState::InService { data_done: done };
            self.in_service.push(Reverse((done, req.id, slot)));
            self.index_unwait(slot);
            self.audit();
        }
    }

    /// Removes `slot` from its bank's waiting list (the request left the
    /// `Queued` state via a column command). The list is in id order,
    /// not slot order, so the slot is found by position.
    fn index_unwait(&mut self, slot: usize) {
        let r = &self.slots[slot];
        let list = &mut self.bank_waiting[r.loc.bank.0 as usize];
        if let Some(pos) = list.iter().position(|&s| s == slot) {
            list.remove(pos);
        } else {
            debug_assert!(false, "waiting slot missing from bank list");
        }
        if r.kind == AccessKind::Read {
            self.waiting_reads -= 1;
        }
    }

    /// Reaps the requests whose data burst is over by `now`, in
    /// completion-stream order `(data_done, id)`: each is completed
    /// [`CONTROLLER_OVERHEAD`] after its data, shown to `done`, appended
    /// to `out` and its slot freed. Returns whether any was reaped.
    pub(super) fn reap(
        &mut self,
        now: DramCycle,
        out: &mut Vec<Completion>,
        mut done: impl FnMut(&Request, CpuCycle),
    ) -> bool {
        let mut reaped = false;
        while let Some(&Reverse((data_done, _, slot))) = self.in_service.peek() {
            if data_done > now {
                break;
            }
            self.in_service.pop();
            reaped = true;
            let finish_cpu = ClockRatio::PAPER.dram_to_cpu(data_done + CONTROLLER_OVERHEAD);
            let req = &mut self.slots[slot];
            req.state = RequestState::Completed { finish_cpu };
            self.queued[req.kind as usize] -= 1;
            done(req, finish_cpu);
            out.push(Completion {
                id: req.id,
                thread: req.thread,
                kind: req.kind,
                addr: req.addr,
                finish_cpu,
            });
            // The slot is vacant now; the completed request stays in it
            // until an arrival takes the slot.
            self.free.push(slot);
        }
        if reaped {
            self.audit();
        }
        reaped
    }

    /// Debug-build check of all slot and index invariants.
    fn audit(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut vacant = vec![false; self.slots.len()];
        for &s in &self.free {
            assert!(!vacant[s], "slot {s} is on the free list twice");
            vacant[s] = true;
        }
        for (s, r) in self.slots.iter().enumerate() {
            assert_eq!(
                vacant[s],
                r.is_completed(),
                "slot {s}: the free list and the buffer disagree"
            );
        }
        let live = || self.slots.iter().filter(|r| !r.is_completed());
        let reads = live().filter(|r| r.kind == AccessKind::Read).count();
        assert_eq!(self.queued, [reads, live().count() - reads]);
        let waiting_reads = live()
            .filter(|r| r.kind == AccessKind::Read && r.is_waiting())
            .count();
        assert_eq!(self.waiting_reads, waiting_reads);
        let mut heap: Vec<InService> = self.in_service.iter().map(|e| e.0).collect();
        let mut in_service: Vec<InService> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(s, r)| match r.state {
                RequestState::InService { data_done } => Some((data_done, r.id, s)),
                _ => None,
            })
            .collect();
        heap.sort_unstable();
        in_service.sort_unstable();
        assert_eq!(heap, in_service, "the heap is not the in-service set");
        let mut seen = 0usize;
        for (b, list) in self.bank_waiting.iter().enumerate() {
            assert!(
                list.windows(2)
                    .all(|w| self.slots[w[0]].id < self.slots[w[1]].id),
                "bank {b}'s list is out of id order"
            );
            for &s in list {
                let r = &self.slots[s];
                assert!(r.is_waiting() && r.loc.bank.0 as usize == b);
            }
            seen += list.len();
        }
        assert_eq!(seen, live().filter(|r| r.is_waiting()).count());
    }
}
