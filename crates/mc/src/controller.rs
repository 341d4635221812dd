//! The DRAM memory controller and the multi-channel memory system.

use crate::policy::{Buffer, Rank, SchedQuery, SchedulerPolicy, SystemView};
use crate::request::{AccessKind, Request, RequestId, RequestState, ThreadId};
use crate::stats::{SystemStats, ThreadStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use stfm_dram::{
    AccessCategory, AddressMapping, BankId, Channel, ChannelId, ClassEdges, ClockRatio, CpuCycle,
    DramConfig, DramCycle, DramDelta, EnergyBreakdown, EnergyModel, PhysAddr, TimingChecker,
};
use stfm_telemetry::{Event, NullSink, Sink};

/// Default spacing of [`Event::SchedulerIntervalUpdate`] emissions, in
/// DRAM cycles, when a trace sink is attached (~5 µs of DDR2-800 time —
/// fine enough to watch STFM's interval rule react, coarse enough to
/// keep traces small).
pub const DEFAULT_SAMPLE_INTERVAL: DramDelta = DramDelta::new(2_000);

/// Most channels a [`MemorySystem`] takes. Per-bank policy state is
/// indexed by [`bank_slot`], and sets of banks are 64-bit slot masks.
pub const MAX_CHANNELS: u32 = 4;

/// Most banks per channel a [`MemorySystem`] takes; see [`MAX_CHANNELS`].
pub const MAX_BANKS: u32 = 16;

/// Number of `(channel, bank)` slots: `MAX_CHANNELS * MAX_BANKS` = 64,
/// one bit each in a `u64` slot mask.
pub const BANK_SLOTS: usize = (MAX_CHANNELS * MAX_BANKS) as usize;

/// The slot of `(channel, bank)`: `channel * MAX_BANKS + bank`, below
/// [`BANK_SLOTS`] for every geometry a [`MemorySystem`] accepts.
#[inline]
pub fn bank_slot(channel: u32, bank: u32) -> usize {
    debug_assert!(
        channel < MAX_CHANNELS && bank < MAX_BANKS,
        "channel {channel} bank {bank} is outside the slot packing"
    );
    (channel * MAX_BANKS + bank) as usize
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Leave rows open after column accesses (the paper's baseline,
    /// Table 2: "FR-FCFS/open-page policy"). Exploits row-buffer locality;
    /// row conflicts pay the full precharge + activate penalty.
    #[default]
    OpenPage,
    /// Auto-precharge each column access unless another queued request
    /// targets the same row. Trades away locality for conflict-free
    /// reopening — the classic alternative for low-locality workloads.
    ClosedPage,
}

/// Controller capacity and write-drain parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Request-buffer entries available to reads, per channel
    /// (paper Table 2: 128).
    pub read_capacity: usize,
    /// Write data-buffer entries, per channel (paper Table 2: 32).
    pub write_capacity: usize,
    /// Queued-write count that switches the channel into drain mode.
    pub drain_high: usize,
    /// Queued-write count at which drain mode ends.
    pub drain_low: usize,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
}

impl ControllerConfig {
    /// Paper Table 2 defaults.
    pub const fn paper_baseline() -> Self {
        ControllerConfig {
            read_capacity: 128,
            write_capacity: 32,
            drain_high: 24,
            drain_low: 8,
            row_policy: RowPolicy::OpenPage,
        }
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

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

/// Cumulative scheduling-work counters for one run (summed over
/// channels by [`MemorySystem::sched_counters`]). Bookkeeping only:
/// counters never feed back into scheduling decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Scheduling passes over a channel (one per non-idle tick per
    /// channel). The event loop's idle-channel skip makes this strictly
    /// smaller than in a stepped run of the same workload.
    pub sched_visits: u64,
    /// Full per-bank rank passes (every eligible waiting request ranked).
    pub rank_scans: u64,
    /// Per-bank decisions served from the cross-tick cache without a
    /// rank pass.
    pub rank_carried: u64,
}

/// One bank's cached rank-pass outcome, carried across ticks.
///
/// Validity argument: a cached selection is exact while (a) the bank's
/// waiting list and the row-buffer state of *this* bank are unchanged —
/// enqueues, command issues and refreshes all invalidate; slots never
/// move, so a reap does not — (b) the policy has not reported the bank
/// through [`SchedulerPolicy::take_stale_banks`], and (c) the channel's
/// eligible access kind is unchanged (checked via `cache_kind`).
/// Readiness is never cached: the stored top/slip are re-checked at the
/// current cycle against the bank's class edges
/// ([`Channel::class_edges`]) — all row-hits of a bank share one command
/// shape (as do all row-misses), so the stored class of the top and the
/// best-row-hit fallback carry the issuability of every other candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BankCache {
    /// No cached selection; the next scheduling pass rebuilds it.
    Invalid,
    /// The waiting list holds no request of the eligible kind.
    NoEligible,
    /// Winner of the rank pass plus the best row-hit fallback.
    Top {
        /// Highest-ranked eligible request of the bank.
        top: Pick,
        /// Whether `top` hits the open row (its command class).
        top_hit: bool,
        /// Best-ranked row-hit other than `top` (the "slip" candidate
        /// driven while `top`'s command is not ready), if any.
        slip: Option<Pick>,
    },
}

/// A selected request: `(slot, rank, id)`.
type Pick = (usize, Rank, RequestId);

/// An in-service request: `(data-done cycle, id, slot)`, which sorts into
/// completion-stream order.
type InService = (DramCycle, RequestId, usize);

/// Whether a bank's waiting list holds an eligible `(row-hit, row-miss)`.
type ClassReps = (bool, bool);

/// One bank's cached class presence: whether its waiting list holds an
/// eligible row-hit and an eligible row-miss (see
/// [`MemorySystem::class_reps`]). *When* either class can issue is never
/// cached — [`Channel::class_edges`] answers that from the device's
/// threshold fields — so the cache holds no buffer index.
///
/// Unlike [`BankCache`], validity is purely *structural* — a cached
/// pair is exact while the bank's waiting list and its row-buffer state
/// are unchanged (command issues on the bank, refreshes, and the
/// eligible access kind flipping all invalidate; an enqueue is folded
/// in incrementally, since a newcomer can only make its own class
/// present). Policy state does not matter here: classes carry timing
/// shape, not rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RepCache {
    /// Nothing cached; the next query rescans the list.
    Invalid,
    /// Cached class presence for the given eligible kind (a mismatched
    /// kind reads as invalid).
    Reps {
        /// Eligible access kind the pair was computed under.
        kind: AccessKind,
        /// The waiting list holds an eligible row-hit.
        hit: bool,
        /// The waiting list holds an eligible row-miss.
        miss: bool,
    },
}

/// Per-channel controller state: the device plus its request buffer and
/// the incrementally maintained indexes over it.
///
/// A request keeps one buffer slot from enqueue to reap, so no index ever
/// moves. Invariants (checked in debug builds by [`ChannelCtrl::audit`]):
///
/// * every slot is either live or vacant: a vacant slot is on `free`
///   exactly once and holds the completed request it last carried; a live
///   one holds a waiting or in-service request;
/// * `in_service` holds exactly the in-service requests;
/// * `bank_waiting[b]` holds the slots of exactly the requests with
///   [`Request::is_waiting`] targeting bank `b`, in ascending id
///   (= arrival) order;
/// * `queued_reads` / `queued_writes` count the live requests per
///   [`AccessKind`];
/// * `waiting_reads` counts live reads still in the `Queued` state.
#[derive(Debug)]
pub(crate) struct ChannelCtrl {
    pub(crate) channel: Channel,
    /// The request buffer, indexed by slot.
    slots: Vec<Request>,
    /// Vacant slots, reused last in, first out.
    free: Vec<usize>,
    /// In-service requests, earliest `(data_done, id)` on top: the top is
    /// the data-done watermark (nothing completes before it), and pops
    /// come out in completion-stream order.
    in_service: BinaryHeap<Reverse<InService>>,
    drain_active: bool,
    checker: Option<TimingChecker>,
    energy: Option<EnergyModel>,
    /// Per-bank waiting-request slots, in id order.
    bank_waiting: Vec<Vec<usize>>,
    /// Buffered reads (any state).
    queued_reads: usize,
    /// Buffered writes (any state).
    queued_writes: usize,
    /// Buffered reads still waiting (no column command issued).
    waiting_reads: usize,
    /// Scratch for per-bank candidate ranks, reused across cycles so the
    /// hot path never allocates.
    rank_scratch: Vec<(usize, Rank)>,
    /// Per-bank cached rank-pass winners, carried across ticks;
    /// see [`BankCache`].
    bank_cache: Vec<BankCache>,
    /// Per-bank cached class presence for the edge scan; see
    /// [`RepCache`].
    rep_cache: Vec<RepCache>,
    /// The eligible kind `bank_cache` was filled under; a flip wipes
    /// every entry.
    cache_kind: AccessKind,
    /// Scheduling passes over this channel.
    sched_visits: u64,
    /// Full per-bank rank passes run.
    rank_scans: u64,
    /// Bank decisions served from `bank_cache` without a rank pass.
    rank_carried: u64,
}

impl ChannelCtrl {
    fn queued_count(&self, kind: AccessKind) -> usize {
        match kind {
            AccessKind::Read => self.queued_reads,
            AccessKind::Write => self.queued_writes,
        }
    }

    /// True when the write-drain hysteresis flips at the channel's next
    /// scheduling pass. It is evaluated against queue counts that change
    /// *after* `update_drain` last ran (reaps and enqueues come later in
    /// the tick), so a pending flip fences the channel's whole outlook:
    /// nothing may be elided until the transition, and its telemetry
    /// event, has landed on its exact cycle.
    fn drain_will_flip(&self, cfg: &ControllerConfig) -> bool {
        if self.drain_active {
            self.queued_writes <= cfg.drain_low
        } else {
            self.queued_writes >= cfg.drain_high
        }
    }

    /// The read/write election: writes while draining or when no read
    /// waits, reads otherwise. Past the drain fence it is frozen while no
    /// request arrives or completes.
    fn eligible_kind(&self) -> AccessKind {
        if self.drain_active || self.waiting_reads == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    pub(crate) fn query(&self, channel_id: ChannelId, now: DramCycle) -> SchedQuery<'_> {
        SchedQuery {
            channel_id,
            now,
            channel: &self.channel,
            buffer: Buffer::Slots {
                slots: &self.slots,
                bank_waiting: &self.bank_waiting,
            },
        }
    }

    /// The data-done watermark: the earliest `data_done` of an in-service
    /// request (`None` when none is in service). Nothing completes before
    /// it, so the per-tick reap and the agenda scans look no further.
    fn next_data_done(&self) -> Option<DramCycle> {
        self.in_service
            .peek()
            .map(|Reverse((data_done, ..))| *data_done)
    }

    /// Wipes the cached decisions of the banks set in `mask` (bit `b` for
    /// bank `b`; `u64::MAX` for all of them).
    fn invalidate_banks(&mut self, mask: u64) {
        for (b, e) in self.bank_cache.iter_mut().enumerate() {
            if mask >> b & 1 == 1 {
                *e = BankCache::Invalid;
            }
        }
    }

    /// The bank's class presence, served from [`RepCache`] when valid and
    /// recomputed (and cached) from the waiting list otherwise.
    fn reps(&mut self, bank: usize, eligible: AccessKind) -> ClassReps {
        let fresh = |c: &Self| {
            MemorySystem::class_reps(&c.slots, &c.channel, &c.bank_waiting[bank], eligible)
        };
        if let RepCache::Reps { kind, hit, miss } = self.rep_cache[bank] {
            if kind == eligible {
                debug_assert_eq!(
                    (hit, miss),
                    fresh(self),
                    "cached class presence diverged from a fresh scan"
                );
                return (hit, miss);
            }
        }
        let (hit, miss) = fresh(self);
        self.rep_cache[bank] = RepCache::Reps {
            kind: eligible,
            hit,
            miss,
        };
        (hit, miss)
    }

    /// Puts a new request in a vacant slot (or a new one at the end) and
    /// indexes it; returns the slot.
    fn enqueue(&mut self, req: Request) -> usize {
        debug_assert!(req.is_waiting());
        let bank = req.loc.bank.0 as usize;
        let kind = req.kind;
        let is_hit = self.channel.bank(req.loc.bank).open_row() == Some(req.loc.row);
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
        // The newcomer may outrank the cached winner of its bank.
        self.bank_cache[bank] = BankCache::Invalid;
        // And it makes its own class present, whatever else waits.
        if let RepCache::Reps {
            kind: rep_kind,
            hit,
            miss,
        } = &mut self.rep_cache[bank]
        {
            if *rep_kind == kind {
                *(if is_hit { hit } else { miss }) = true;
            }
        }
        match kind {
            AccessKind::Read => {
                self.queued_reads += 1;
                self.waiting_reads += 1;
            }
            AccessKind::Write => self.queued_writes += 1,
        }
        slot
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

    /// Debug-build check of all slot and index invariants.
    #[cfg(debug_assertions)]
    fn audit(&self) {
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
        assert_eq!(self.queued_reads, reads);
        assert_eq!(self.queued_writes, live().count() - reads);
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

    #[cfg(not(debug_assertions))]
    fn audit(&self) {}
}

/// The shared DRAM memory system: one controller per channel, driven by a
/// single [`SchedulerPolicy`].
///
/// Usage per DRAM cycle: call [`MemorySystem::tick`], then reap
/// [`MemorySystem::drain_completions`]. Requests enter through
/// [`MemorySystem::try_enqueue`], which applies back-pressure by returning
/// `None` when the target channel's buffer class is full.
pub struct MemorySystem {
    config: DramConfig,
    ctrl_config: ControllerConfig,
    mapping: AddressMapping,
    channels: Vec<ChannelCtrl>,
    policy: Box<dyn SchedulerPolicy>,
    next_id: u64,
    now: DramCycle,
    completions: Vec<Completion>,
    stats: SystemStats,
    sink: Box<dyn Sink>,
    sample_interval: DramDelta,
    next_sample: DramCycle,
    /// Per-channel cached earliest edge (the folded minimum of that
    /// channel's upcoming drain-fence, data-completion, command-issue,
    /// and refresh edges); meaningful only while the channel is clean.
    /// [`MemorySystem::predict_next`] takes the minimum across channels
    /// directly — channel counts are small enough that a flat scan beats
    /// maintaining a heap agenda.
    chan_next: Vec<Option<DramCycle>>,
    /// Channels whose cached earliest edge is stale and needs a rescan.
    chan_dirty: Vec<bool>,
    /// Count of accepted enqueues, ever — the event loop's arrival
    /// detector for cutting an elision span short.
    arrivals: u64,
    /// Bumped at every tick in which any request is reaped from a buffer.
    /// Buffer-class occupancy ([`MemorySystem::try_enqueue`]'s acceptance
    /// test) can only *decrease* at a reap, so a rejection observed at
    /// epoch `e` provably repeats until the epoch changes — the cores'
    /// retry gates key on this to stay inert across back-pressured spans.
    reap_epoch: u64,
    /// Elided ticks whose per-cycle policy/energy residue is still
    /// deferred (see [`MemorySystem::elide_tick`]).
    pending_elided: u64,
    /// First cycle of the deferred residue span.
    residue_start: DramCycle,
}

impl MemorySystem {
    /// Creates a memory system for `config` scheduled by `policy`.
    pub fn new(config: DramConfig, policy: Box<dyn SchedulerPolicy>) -> Self {
        Self::with_controller_config(config, ControllerConfig::paper_baseline(), policy)
    }

    /// Creates a memory system with explicit controller parameters.
    ///
    /// # Panics
    ///
    /// Panics if `config` has more than [`MAX_CHANNELS`] channels or
    /// [`MAX_BANKS`] banks per channel.
    pub fn with_controller_config(
        config: DramConfig,
        ctrl_config: ControllerConfig,
        policy: Box<dyn SchedulerPolicy>,
    ) -> Self {
        assert!(
            config.channels <= MAX_CHANNELS && config.banks <= MAX_BANKS,
            "{} channels x {} banks: per-bank policy state packs (channel, bank) \
             as channel * {MAX_BANKS} + bank, so at most {MAX_CHANNELS} channels \
             x {MAX_BANKS} banks",
            config.channels,
            config.banks
        );
        let mapping = AddressMapping::new(&config);
        let capacity = ctrl_config.read_capacity + ctrl_config.write_capacity;
        let channels = (0..config.channels)
            .map(|_| ChannelCtrl {
                channel: Channel::new(&config),
                slots: Vec::with_capacity(capacity),
                free: Vec::with_capacity(capacity),
                in_service: BinaryHeap::with_capacity(capacity),
                drain_active: false,
                checker: None,
                energy: None,
                bank_waiting: (0..config.banks).map(|_| Vec::new()).collect(),
                queued_reads: 0,
                queued_writes: 0,
                waiting_reads: 0,
                rank_scratch: Vec::new(),
                bank_cache: vec![BankCache::Invalid; config.banks as usize],
                rep_cache: vec![RepCache::Invalid; config.banks as usize],
                // Arbitrary: every entry starts invalid.
                cache_kind: AccessKind::Read,
                sched_visits: 0,
                rank_scans: 0,
                rank_carried: 0,
            })
            .collect();
        let n = config.channels as usize;
        MemorySystem {
            config,
            ctrl_config,
            mapping,
            channels,
            policy,
            next_id: 0,
            now: DramCycle::ZERO,
            completions: Vec::new(),
            stats: SystemStats::default(),
            sink: Box::new(NullSink),
            sample_interval: DEFAULT_SAMPLE_INTERVAL,
            next_sample: DramCycle::ZERO,
            chan_next: vec![None; n],
            chan_dirty: vec![true; n],
            arrivals: 0,
            reap_epoch: 0,
            pending_elided: 0,
            residue_start: DramCycle::ZERO,
        }
    }

    /// Attaches a telemetry sink, replacing the previous one (the
    /// default is a [`NullSink`], under which all emission sites are
    /// no-ops). Sinks only observe; simulation results are bit-identical
    /// with any sink attached.
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) {
        self.sink = sink;
    }

    /// Detaches and returns the telemetry sink (a [`NullSink`] takes its
    /// place), so callers can downcast and extract recorded data.
    pub fn take_sink(&mut self) -> Box<dyn Sink> {
        std::mem::replace(&mut self.sink, Box::new(NullSink))
    }

    /// Sets the spacing of scheduler interval-update events in DRAM
    /// cycles (default [`DEFAULT_SAMPLE_INTERVAL`]). Values below 1 are
    /// clamped to 1.
    pub fn set_sample_interval(&mut self, interval: DramDelta) {
        self.sample_interval = interval.max(DramDelta::new(1));
    }

    /// Enables the independent [`TimingChecker`] on every channel. All
    /// subsequently issued commands are audited; use
    /// [`MemorySystem::assert_timing_clean`] at the end of a run.
    pub fn enable_timing_checker(&mut self) {
        for c in &mut self.channels {
            c.checker = Some(TimingChecker::new(self.config.banks, self.config.timing));
        }
    }

    /// Enables per-channel energy accounting (Micron-power-calculator
    /// style). Read the aggregate with [`MemorySystem::energy`].
    pub fn enable_energy_model(&mut self) {
        for c in &mut self.channels {
            c.energy = Some(EnergyModel::default());
        }
    }

    /// Aggregate energy breakdown across channels, if accounting was
    /// enabled with [`MemorySystem::enable_energy_model`].
    pub fn energy(&self) -> Option<EnergyBreakdown> {
        let mut total = EnergyBreakdown::default();
        let mut any = false;
        for c in &self.channels {
            if let Some(e) = &c.energy {
                let b = e.breakdown();
                total.activate_nj += b.activate_nj;
                total.read_nj += b.read_nj;
                total.write_nj += b.write_nj;
                total.refresh_nj += b.refresh_nj;
                total.background_nj += b.background_nj;
                any = true;
            }
        }
        any.then_some(total)
    }

    /// Asserts that no audited command violated a DDR2 constraint.
    ///
    /// # Panics
    ///
    /// Panics with the first recorded violation, or if the checker was
    /// never enabled.
    pub fn assert_timing_clean(&self) {
        for c in &self.channels {
            match &c.checker {
                Some(checker) => checker.assert_clean(),
                None => panic!("timing checker not enabled"),
            }
        }
    }

    /// The current DRAM cycle (the `now` of the last
    /// [`MemorySystem::tick`] or elision). Constant across the CPU cycles
    /// of one DRAM cycle, which is what the cores' once-per-DRAM-cycle
    /// retry gates key on.
    #[inline]
    pub fn now(&self) -> DramCycle {
        self.now
    }

    /// The DRAM configuration in force.
    #[inline]
    pub fn dram_config(&self) -> &DramConfig {
        &self.config
    }

    /// The address mapping in force.
    #[inline]
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// The active scheduling policy.
    #[inline]
    pub fn policy(&self) -> &dyn SchedulerPolicy {
        &*self.policy
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Per-thread statistics (allocated lazily on first request).
    #[inline]
    pub fn thread_stats(&self, thread: ThreadId) -> ThreadStats {
        self.stats.thread(thread)
    }

    /// Clears `thread`'s running max-read-latency counter at a
    /// measurement-window boundary (see
    /// [`crate::stats::SystemStats::reset_max_read_latency`]).
    pub fn reset_max_read_latency(&mut self, thread: ThreadId) {
        self.stats.reset_max_read_latency(thread);
    }

    /// True if a `kind` request to `channel` can be accepted right now.
    fn can_accept_at(&self, channel: ChannelId, kind: AccessKind) -> bool {
        let ctrl = &self.channels[channel.0 as usize];
        let cap = match kind {
            AccessKind::Read => self.ctrl_config.read_capacity,
            AccessKind::Write => self.ctrl_config.write_capacity,
        };
        ctrl.queued_count(kind) < cap
    }

    /// Enqueues a request, or returns `None` when the target channel's
    /// buffer class is full (back-pressure).
    ///
    /// `tshared` is the requesting core's cumulative memory-stall counter,
    /// communicated to the controller with every request exactly as the
    /// paper's STFM hardware does (Section 5.1); thread-oblivious policies
    /// ignore it.
    pub fn try_enqueue(
        &mut self,
        thread: ThreadId,
        kind: AccessKind,
        addr: PhysAddr,
        now_cpu: CpuCycle,
        tshared: u64,
    ) -> Option<RequestId> {
        // An arrival can interrupt an elision span: settle the deferred
        // per-cycle residue before the policy observes the new request, so
        // hook ordering matches the stepped loop exactly.
        self.flush_residue();
        let line = addr.line_aligned(self.config.line_bytes);
        let loc = self.mapping.decode(line);
        if !self.can_accept_at(loc.channel, kind) {
            return None;
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let req = Request {
            id,
            thread,
            addr: line,
            loc,
            kind,
            arrival_cpu: now_cpu,
            state: RequestState::Queued,
            service_started: None,
            category: None,
        };
        self.policy.on_enqueue(&req, tshared);
        self.stats.record_enqueue(&req);
        if self.sink.is_enabled() {
            self.sink.record(&Event::RequestEnqueued {
                dram_cycle: self.now,
                cpu_cycle: now_cpu,
                channel: loc.channel.0,
                bank: loc.bank.0,
                thread: thread.0,
                request: id.0,
                is_write: kind == AccessKind::Write,
            });
        }
        let slot = self.channels[loc.channel.0 as usize].enqueue(req);
        self.arrivals += 1;
        self.merge_arrival(loc.channel.0 as usize, slot);
        Some(id)
    }

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
    fn merge_arrival(&mut self, chan: usize, slot: usize) {
        if self.chan_dirty[chan] {
            return;
        }
        let ctrl = &self.channels[chan];
        let req = &ctrl.slots[slot];
        // A read landing while the election pointed at writes (no waiting
        // reads) invalidates every folded-in write edge. Both tests see
        // the post-arrival state, exactly what a rescan at the next tick
        // would evaluate.
        let election_flipped =
            req.kind == AccessKind::Read && !ctrl.drain_active && ctrl.waiting_reads == 1;
        if ctrl.drain_will_flip(&self.ctrl_config) || election_flipped {
            self.chan_dirty[chan] = true;
            return;
        }
        if req.kind != ctrl.eligible_kind() {
            return; // not electable now; its edge appears when it is
        }
        let row_hit = ctrl.channel.bank(req.loc.bank).open_row() == Some(req.loc.row);
        let at = ctrl
            .channel
            .class_edges(req.loc.bank, req.kind == AccessKind::Write, self.now)
            .of(row_hit);
        self.chan_next[chan] = Some(self.chan_next[chan].map_or(at, |e| e.min(at)));
    }

    /// Count of accepted enqueues over the system's lifetime. The
    /// event-driven run loop snapshots this before eliding a cycle and
    /// cuts the span if it changed — an arrival invalidates the
    /// no-event-before-the-edge premise.
    #[inline]
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Generation stamp of buffer capacity: changes exactly when a tick
    /// reaps completed requests (the only way class occupancy decreases,
    /// hence the only way a [`MemorySystem::try_enqueue`] rejection can
    /// turn into an acceptance). While this is unchanged, a rejected send
    /// would be rejected again — see the cores' retry-gate protocol.
    #[inline]
    pub fn reap_epoch(&self) -> u64 {
        self.reap_epoch
    }

    /// Cumulative scheduling-work counters, summed over channels. Purely
    /// observational — reading them never perturbs simulation results.
    pub fn sched_counters(&self) -> SchedCounters {
        let mut total = SchedCounters::default();
        for c in &self.channels {
            total.sched_visits += c.sched_visits;
            total.rank_scans += c.rank_scans;
            total.rank_carried += c.rank_carried;
        }
        total
    }

    /// Advances the memory system to DRAM cycle `now`: housekeeping, policy
    /// cycle hook, at most one command per channel, and completion
    /// detection.
    ///
    /// # Panics
    ///
    /// Panics if `now` moves backwards.
    pub fn tick(&mut self, now: DramCycle) {
        assert!(
            now >= self.now,
            "time went backwards: {} -> {now}",
            self.now
        );
        // Settle any deferred residue from elided cycles before this
        // cycle's own policy hook runs (hook order must match stepping).
        self.flush_residue();
        // A channel's cached earliest edge stays exact until it is
        // consumed: command edges, completions, refreshes and drain flips
        // are all folded into it, and a channel cannot mutate at a tick
        // strictly before it unless a new request arrived (which
        // `merge_arrival` folds in or marks dirty).
        for (i, edge) in self.chan_next.iter().enumerate() {
            if edge.is_some_and(|e| e <= now) {
                self.chan_dirty[i] = true;
            }
        }
        self.now = now;

        // A clean channel whose earliest agenda edge lies strictly ahead
        // provably does nothing this cycle — the per-channel slice of the
        // elision soundness argument: no refresh transition, no drain
        // flip, no issuable command, no completion before the edge. Only
        // its background-energy residue runs. Stepped runs never clear
        // `chan_dirty`, so this fast path is exclusive to the event loop
        // and the stepped oracle is byte-for-byte unaffected.
        let chan_idle = |dirty: &[bool], next: &[Option<DramCycle>], i: usize| -> bool {
            !dirty[i] && next[i].is_none_or(|e| e > now)
        };

        for (i, ctrl) in self.channels.iter_mut().enumerate() {
            if chan_idle(&self.chan_dirty, &self.chan_next, i) {
                if let Some(energy) = &mut ctrl.energy {
                    energy.tick(ctrl.channel.open_banks() > 0);
                }
                continue;
            }
            if let Some((start, end)) = ctrl.channel.tick(now) {
                // The refresh precharges every bank: all cached row-hit
                // classifications (and thus rank winners and class
                // representatives) are stale.
                ctrl.invalidate_banks(u64::MAX);
                for e in &mut ctrl.rep_cache {
                    *e = RepCache::Invalid;
                }
                if let Some(checker) = &mut ctrl.checker {
                    checker.observe_refresh(start, end);
                }
                if let Some(energy) = &mut ctrl.energy {
                    energy.observe_refresh();
                }
                if self.sink.is_enabled() {
                    self.sink.record(&Event::RefreshIssued {
                        dram_cycle: start,
                        channel: i as u32,
                        end_cycle: end,
                    });
                }
            }
            if let Some(energy) = &mut ctrl.energy {
                energy.tick(ctrl.channel.open_banks() > 0);
            }
        }

        // Global per-cycle policy hook (slowdown updates, etc.). The view
        // borrows the channel array directly — no per-cycle allocation.
        let view = SystemView::from_ctrls(now, &self.channels);
        self.policy.on_dram_cycle(&view);
        // Drop the cached decisions of the banks whose ranks the policy's
        // own state moved since the last tick.
        let stale = self.policy.take_stale_banks();
        if stale != 0 {
            for (i, ctrl) in self.channels.iter_mut().enumerate() {
                ctrl.invalidate_banks(stale >> bank_slot(i as u32, 0));
            }
        }

        // Periodic scheduler snapshot for attached trace sinks.
        if self.sink.is_enabled() && now >= self.next_sample {
            self.policy.record_interval(now, &mut *self.sink);
            self.next_sample = now + self.sample_interval;
        }

        let completed_before = self.completions.len();
        for (i, ctrl) in self.channels.iter_mut().enumerate() {
            if chan_idle(&self.chan_dirty, &self.chan_next, i) {
                continue;
            }
            Self::update_drain(&self.ctrl_config, ctrl, i as u32, now, &mut *self.sink);
            Self::schedule_channel(
                ChannelId(i as u32),
                ctrl,
                &mut *self.policy,
                now,
                &mut self.stats,
                self.ctrl_config.row_policy,
                &mut *self.sink,
            );
            Self::reap_completions(
                ctrl,
                i as u32,
                &mut *self.policy,
                now,
                self.config.controller_overhead,
                &mut self.completions,
                &mut self.stats,
                &mut *self.sink,
            );
        }
        if self.completions.len() != completed_before {
            self.reap_epoch += 1;
        }
    }

    /// Returns (and clears) the requests completed since the last call.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Number of live (not yet completed) requests across all channels.
    pub fn outstanding(&self) -> usize {
        self.channels
            .iter()
            .map(|c| c.queued_reads + c.queued_writes)
            .sum()
    }

    /// Records DRAM cycle `now` as *elided*: the caller — the event-driven
    /// run loop — has established via [`MemorySystem::predict_next`] that
    /// a [`MemorySystem::tick`] at `now` would change nothing except the
    /// per-cycle policy and background-energy residue. That residue is
    /// deferred and settled by [`MemorySystem::flush_residue`] before any
    /// observer (an enqueue, the next real tick) can tell the difference.
    /// `self.now` still advances so telemetry timestamps on concurrent
    /// enqueues stay exact.
    pub fn elide_tick(&mut self, now: DramCycle) {
        debug_assert_eq!(now, self.now + 1, "elided cycles must be consecutive");
        if self.pending_elided == 0 {
            self.residue_start = now;
        }
        self.pending_elided += 1;
        self.now = now;
    }

    /// [`MemorySystem::elide_tick`] for a whole span `start..start + n` in
    /// one call (the run loop's whole-system jump).
    pub fn elide_span(&mut self, start: DramCycle, n: u64) {
        debug_assert!(n > 0);
        debug_assert_eq!(start, self.now + 1, "elided cycles must be consecutive");
        if self.pending_elided == 0 {
            self.residue_start = start;
        }
        self.pending_elided += n;
        self.now = start + (n - 1);
    }

    /// Settles the deferred per-cycle residue of elided ticks: the
    /// policy's cycle hook, in closed form via
    /// [`SchedulerPolicy::fast_forward`], and background-energy
    /// accounting. Both are bit-identical to having stepped, because the
    /// channel state was frozen across the span (per-cycle views differ
    /// only in `now`). Runs automatically at the top of
    /// [`MemorySystem::tick`] and [`MemorySystem::try_enqueue`]; public so
    /// the run loop can force it at the end of a run before the policy or
    /// energy model is inspected.
    pub fn flush_residue(&mut self) {
        if self.pending_elided == 0 {
            return;
        }
        let n = std::mem::take(&mut self.pending_elided);
        let view = SystemView::from_ctrls(self.residue_start, &self.channels);
        self.policy.fast_forward(&view, n);
        for ctrl in &mut self.channels {
            if let Some(energy) = &mut ctrl.energy {
                energy.tick_n(n, ctrl.channel.open_banks() > 0);
            }
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
    /// rescanned (`channel_edge`); clean channels reuse their
    /// `chan_next`. Debug builds re-derive every channel's edge from
    /// scratch — bypassing the dirty bits and the class-representative
    /// cache — and assert agreement.
    pub fn predict_next(&mut self, now: DramCycle) -> Option<DramCycle> {
        debug_assert_eq!(
            self.pending_elided, 0,
            "predict_next called with unsettled residue"
        );
        let cfg = &self.ctrl_config;
        for (i, ctrl) in self.channels.iter_mut().enumerate() {
            if std::mem::take(&mut self.chan_dirty[i]) {
                self.chan_next[i] = Self::channel_edge(cfg, ctrl, now, ChannelCtrl::reps);
            }
        }
        // Clamp: a request that arrived mid-tick, after its channel's
        // scheduling phase had already run, can carry an edge at that very
        // cycle — by query time the edge is *due*, not future. Frozen
        // channel state keeps an issuable command issuable, so `now` is
        // its exact firing cycle (the next tick dirties the channel).
        let mut next = self.chan_next.iter().flatten().min().map(|&e| e.max(now));
        debug_assert_eq!(
            next,
            self.channels
                .iter_mut()
                .filter_map(|c| Self::channel_edge(cfg, c, now, |c, bank, kind| {
                    Self::class_reps(&c.slots, &c.channel, &c.bank_waiting[bank], kind)
                }))
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

    /// The per-channel edge scan: the earliest cycle, clamped to `now`,
    /// at which `ctrl` can do anything absent new arrivals — the minimum
    /// over its drain fence, the data-done watermark, each bank's class
    /// edges ([`Channel::class_edges`]) for the classes its waiting list
    /// holds, and the next refresh transition. Since the result is
    /// clamped, the first edge that is already due ends the scan. `reps`
    /// says which classes a bank holds: the caching [`ChannelCtrl::reps`]
    /// on the live path, a fresh [`Self::class_reps`] scan in the debug
    /// cross-check.
    fn channel_edge(
        cfg: &ControllerConfig,
        ctrl: &mut ChannelCtrl,
        now: DramCycle,
        reps: fn(&mut ChannelCtrl, usize, AccessKind) -> ClassReps,
    ) -> Option<DramCycle> {
        if ctrl.drain_will_flip(cfg) {
            return Some(now);
        }
        let eligible_kind = ctrl.eligible_kind();
        let mut earliest = ctrl.next_data_done();
        let write = eligible_kind == AccessKind::Write;
        for b in 0..ctrl.bank_waiting.len() {
            if earliest.is_some_and(|e| e <= now) {
                return Some(now);
            }
            if ctrl.bank_waiting[b].is_empty() {
                continue;
            }
            let (hit, miss) = reps(ctrl, b, eligible_kind);
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

    fn update_drain(
        cfg: &ControllerConfig,
        ctrl: &mut ChannelCtrl,
        channel: u32,
        now: DramCycle,
        sink: &mut dyn Sink,
    ) {
        if !ctrl.drain_will_flip(cfg) {
            return;
        }
        ctrl.drain_active = !ctrl.drain_active;
        if !sink.is_enabled() {
            return;
        }
        let queued_writes = ctrl.queued_writes as u32;
        let event = if ctrl.drain_active {
            Event::WriteDrainStart {
                dram_cycle: now,
                channel,
                queued_writes,
            }
        } else {
            Event::WriteDrainEnd {
                dram_cycle: now,
                channel,
                queued_writes,
            }
        };
        sink.record(&event);
    }

    /// Selects and issues at most one command on `ctrl`'s channel.
    fn schedule_channel(
        channel_id: ChannelId,
        ctrl: &mut ChannelCtrl,
        policy: &mut dyn SchedulerPolicy,
        now: DramCycle,
        stats: &mut SystemStats,
        row_policy: RowPolicy,
        sink: &mut dyn Sink,
    ) {
        ctrl.sched_visits += 1;
        let eligible_kind = ctrl.eligible_kind();

        // Cross-tick decision carry: each bank's rank-pass winner is
        // cached and reused until that bank changes, the policy reports
        // it (`take_stale_banks`, applied in `tick`), or the eligible kind
        // flips. Only the *selection* is carried; issuability is
        // re-evaluated at `now` every cycle, so DRAM timing is never
        // cached.
        if eligible_kind != ctrl.cache_kind {
            ctrl.invalidate_banks(u64::MAX);
            ctrl.cache_kind = eligible_kind;
        }

        // Phase 1 (immutable): per-bank top request, then the globally
        // best *ready* command. Each bank visits only its own waiting
        // requests (the `bank_waiting` index), and every candidate's rank
        // is computed at most once per cycle (the scratch buffer carries
        // it into the hit-slip pass; a valid cache entry skips the pass
        // entirely). Selection is order-independent: the comparison key
        // `(rank, older_first(id))` is unique per request.
        let mut scratch = std::mem::take(&mut ctrl.rank_scratch);
        let mut bank_cache = std::mem::take(&mut ctrl.bank_cache);
        let mut rank_scans = 0u64;
        let mut rank_carried = 0u64;
        let best = {
            let q = ctrl.query(channel_id, now);
            // When a bank's hit and miss commands can issue: readiness
            // costs no command and no look at the buffer.
            let write = eligible_kind == AccessKind::Write;
            let edges = |bank: usize| ctrl.channel.class_edges(BankId(bank as u32), write, now);
            let mut best: Option<usize> = None;
            let mut best_key = (Rank::MIN, 0u64);
            for (bank, bank_list) in ctrl.bank_waiting.iter().enumerate() {
                if bank_list.is_empty() {
                    continue;
                }
                let candidate = match bank_cache[bank] {
                    BankCache::NoEligible => {
                        rank_carried += 1;
                        debug_assert!(bank_list
                            .iter()
                            .all(|&s| ctrl.slots[s].kind != eligible_kind));
                        None
                    }
                    BankCache::Top { top, top_hit, slip } => {
                        rank_carried += 1;
                        let c = Self::cached_candidate(edges(bank), now, top, top_hit, slip);
                        debug_assert_eq!(
                            c,
                            Self::fill_bank_cache(
                                &ctrl.slots,
                                &*policy,
                                &q,
                                bank_list,
                                eligible_kind,
                                edges(bank),
                                &mut Vec::new(),
                            )
                            .0,
                            "carried bank decision diverged from a fresh rank pass"
                        );
                        c
                    }
                    BankCache::Invalid => {
                        rank_scans += 1;
                        let (c, entry) = Self::fill_bank_cache(
                            &ctrl.slots,
                            &*policy,
                            &q,
                            bank_list,
                            eligible_kind,
                            edges(bank),
                            &mut scratch,
                        );
                        bank_cache[bank] = entry;
                        c
                    }
                };
                let Some((slot, rank, id)) = candidate else {
                    continue;
                };
                let key = (rank, Rank::older_first(id));
                if best.is_none() || key > best_key {
                    best = Some(slot);
                    best_key = key;
                }
            }
            best
        };
        scratch.clear();
        ctrl.rank_scratch = scratch;
        ctrl.bank_cache = bank_cache;
        ctrl.rank_scans += rank_scans;
        ctrl.rank_carried += rank_carried;

        let Some(slot) = best else {
            return;
        };
        // The one command built per visit: the winner's.
        let cmd = ctrl.slots[slot].next_command(&ctrl.channel);

        // Phase 2 (mutable): issue and update request state. Under the
        // closed-page policy, a column access auto-precharges unless some
        // other queued request still wants the same row.
        let pre_open = ctrl.channel.bank(cmd.bank).open_row();
        let auto_pre = row_policy == RowPolicy::ClosedPage
            && cmd.is_column()
            && !ctrl.bank_waiting[cmd.bank.0 as usize]
                .iter()
                .any(|&s| s != slot && ctrl.slots[s].loc.row == ctrl.slots[slot].loc.row);
        let thread = Some(ctrl.slots[slot].thread.0);
        let done = if auto_pre {
            ctrl.channel
                .issue_auto_precharge_traced(&cmd, now, channel_id.0, thread, sink)
        } else {
            ctrl.channel
                .issue_traced(&cmd, now, channel_id.0, thread, sink)
        };
        if let Some(checker) = &mut ctrl.checker {
            if auto_pre {
                checker.observe_auto_precharge(&cmd, now);
            } else {
                checker.observe(&cmd, now);
            }
        }
        if let Some(energy) = &mut ctrl.energy {
            energy.observe(&cmd);
        }
        let req = &mut ctrl.slots[slot];
        if req.service_started.is_none() {
            req.service_started = Some(now);
            req.category = Some(AccessCategory::classify(pre_open, req.loc.row));
        }
        if cmd.is_column() {
            req.state = RequestState::InService { data_done: done };
            ctrl.in_service.push(Reverse((done, req.id, slot)));
            ctrl.index_unwait(slot);
            ctrl.audit();
        }
        // The issue changed this bank's row state and/or candidate set;
        // its cached decision is stale. Other banks are untouched: their
        // ranks depend only on their own state and on policy state,
        // whose moves the policy reports.
        ctrl.bank_cache[cmd.bank.0 as usize] = BankCache::Invalid;
        ctrl.rep_cache[cmd.bank.0 as usize] = RepCache::Invalid;
        stats.record_command(&cmd);
        policy.on_command(&cmd, &ctrl.slots[slot], &ctrl.query(channel_id, now));
    }

    /// One bank's full selection pass: rank every eligible waiting
    /// request, take the top by `(rank, older_first(id))` and the
    /// best-ranked other row hit (the slip), and return the bank's cache
    /// entry with its issuable candidate at `q.now`
    /// ([`Self::cached_candidate`] over `edges`, the bank's class edges).
    /// Later ticks reuse the entry while the bank is unchanged; debug
    /// builds check every reused one against a fresh pass.
    ///
    /// The bank scheduler drives the top request's commands; while its
    /// next command is not ready (tRAS, tRP, bus...), lower-priority
    /// requests may slip in *row-hit column accesses only* — they keep
    /// the bank busy but never destroy row-buffer state against the
    /// selected request's interest. This mirrors hardware two-level
    /// schedulers that consider only ready commands (paper footnote 4).
    fn fill_bank_cache(
        slots: &[Request],
        policy: &dyn SchedulerPolicy,
        q: &SchedQuery<'_>,
        bank_list: &[usize],
        eligible_kind: AccessKind,
        edges: ClassEdges,
        scratch: &mut Vec<(usize, Rank)>,
    ) -> (Option<Pick>, BankCache) {
        scratch.clear();
        for &i in bank_list {
            let r = &slots[i];
            if r.kind == eligible_kind {
                scratch.push((i, policy.rank(r, q)));
            }
        }
        let Some((top_idx, top_rank)) = scratch
            .iter()
            .max_by_key(|(i, rank)| (*rank, Rank::older_first(slots[*i].id)))
            .copied()
        else {
            return (None, BankCache::NoEligible);
        };
        let top = (top_idx, top_rank, slots[top_idx].id);
        let top_hit = q.is_row_hit(&slots[top_idx]);
        let slip = scratch
            .iter()
            .filter(|(i, _)| *i != top_idx && q.is_row_hit(&slots[*i]))
            .max_by_key(|(i, rank)| (*rank, Rank::older_first(slots[*i].id)))
            .map(|&(i, rank)| (i, rank, slots[i].id));
        let candidate = Self::cached_candidate(edges, q.now, top, top_hit, slip);
        (candidate, BankCache::Top { top, top_hit, slip })
    }

    /// Evaluates a cached bank selection at `now` against the bank's
    /// class edges: the cached top if its class can issue, else the
    /// cached best row-hit if the column command can. Exact because,
    /// within a cache entry's validity window, the candidate set, ranks,
    /// and row-hit classifications are unchanged — and all row-hits share
    /// one command shape, so if the best one cannot issue, none can.
    fn cached_candidate(
        edges: ClassEdges,
        now: DramCycle,
        top: Pick,
        top_hit: bool,
        slip: Option<Pick>,
    ) -> Option<Pick> {
        if edges.of(top_hit) <= now {
            return Some(top);
        }
        slip.filter(|_| edges.of(true) <= now)
    }

    /// Whether one bank's waiting list holds an `eligible`-kind row-hit
    /// and an `eligible`-kind row-miss. DRAM timing depends only on the
    /// command kind (the row value merely gates validity), and
    /// [`Request::next_command`] maps every row-hit to the same
    /// column-access shape and every row-miss to the same
    /// precharge/activate shape — so the bank's two class edges
    /// ([`Channel::class_edges`]) carry the exact issuability and
    /// earliest-issue cycle of *all* the bank's candidates, making those
    /// scans O(1) per bank instead of O(waiting).
    fn class_reps(
        slots: &[Request],
        channel: &Channel,
        list: &[usize],
        eligible: AccessKind,
    ) -> ClassReps {
        let Some(&first) = list.first() else {
            return (false, false);
        };
        let open = channel.bank(slots[first].loc.bank).open_row();
        let (mut hit, mut miss) = (false, false);
        for &i in list {
            let r = &slots[i];
            if r.kind != eligible {
                continue;
            }
            if open == Some(r.loc.row) {
                hit = true;
            } else {
                miss = true;
            }
            if miss && (hit || open.is_none()) {
                break;
            }
        }
        (hit, miss)
    }

    /// Reaps the requests whose data burst is over: pops them off the
    /// in-service heap, which yields them in completion-stream order
    /// `(data_done, id)`, hands each back, and frees its slot.
    #[allow(clippy::too_many_arguments)]
    fn reap_completions(
        ctrl: &mut ChannelCtrl,
        channel: u32,
        policy: &mut dyn SchedulerPolicy,
        now: DramCycle,
        overhead: DramDelta,
        out: &mut Vec<Completion>,
        stats: &mut SystemStats,
        sink: &mut dyn Sink,
    ) {
        let mut reaped = false;
        while let Some(&Reverse((data_done, _, slot))) = ctrl.in_service.peek() {
            if data_done > now {
                break;
            }
            ctrl.in_service.pop();
            reaped = true;
            let finish_cpu = ClockRatio::PAPER.dram_to_cpu(data_done + overhead);
            let req = &mut ctrl.slots[slot];
            req.state = RequestState::Completed { finish_cpu };
            match req.kind {
                AccessKind::Read => ctrl.queued_reads -= 1,
                AccessKind::Write => ctrl.queued_writes -= 1,
            }
            stats.record_completion(req, finish_cpu);
            policy.on_complete(req);
            if sink.is_enabled() {
                sink.record(&Event::RequestServiced {
                    dram_cycle: now,
                    cpu_cycle: finish_cpu,
                    channel,
                    bank: req.loc.bank.0,
                    thread: req.thread.0,
                    request: req.id.0,
                    is_write: req.kind == AccessKind::Write,
                    latency_cpu: finish_cpu.saturating_since(req.arrival_cpu),
                });
            }
            out.push(Completion {
                id: req.id,
                thread: req.thread,
                kind: req.kind,
                addr: req.addr,
                finish_cpu,
            });
            // The slot is vacant now; the completed request stays in it
            // until an arrival takes the slot.
            ctrl.free.push(slot);
        }
        if reaped {
            ctrl.audit();
        }
    }
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("policy", &self.policy.name())
            .field("now", &self.now)
            .field("outstanding", &self.outstanding())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frfcfs::FrFcfs;
    fn no_refresh_cfg() -> DramConfig {
        DramConfig {
            refresh_enabled: false,
            ..DramConfig::ddr2_800()
        }
    }

    fn system() -> MemorySystem {
        MemorySystem::new(no_refresh_cfg(), Box::new(FrFcfs::new()))
    }

    fn run_until_idle(sys: &mut MemorySystem, mut now: DramCycle) -> (Vec<Completion>, DramCycle) {
        let mut done = Vec::new();
        while sys.outstanding() > 0 {
            sys.tick(now);
            done.extend(sys.drain_completions());
            now += 1;
            assert!(now < 1_000_000, "memory system wedged");
        }
        (done, now)
    }

    #[test]
    #[should_panic(expected = "at most 4 channels x 16 banks")]
    fn a_geometry_beyond_the_slot_packing_is_refused() {
        let _ = MemorySystem::new(no_refresh_cfg().with_banks(32), Box::new(FrFcfs::new()));
    }

    #[test]
    fn uncontended_round_trips_match_paper_table2() {
        // Paper Table 2: round-trip L2 miss latency for a 64-byte line:
        // row hit 35 ns (140 cycles), closed 50 ns (200), conflict 70 ns (280).
        let mut sys = system();
        sys.enable_timing_checker();

        // Closed: very first access to a bank.
        let id0 = sys
            .try_enqueue(
                ThreadId(0),
                AccessKind::Read,
                PhysAddr(0),
                CpuCycle::ZERO,
                0,
            )
            .unwrap();
        let (done, now) = run_until_idle(&mut sys, DramCycle::ZERO);
        assert_eq!(done[0].id, id0);
        assert_eq!(done[0].finish_cpu, 50 * 4); // 50 ns at 4 GHz

        // Hit: same row again.
        let t0 = ClockRatio::PAPER.dram_to_cpu(now);
        sys.try_enqueue(ThreadId(0), AccessKind::Read, PhysAddr(64), t0, 0)
            .unwrap();
        let (done, now) = run_until_idle(&mut sys, now);
        assert_eq!(done[0].finish_cpu - t0, 35 * 4); // 35 ns

        // Conflict: different row, same bank. Rows of the same bank are
        // row_bytes * banks apart *in the same XOR group*; using row+8
        // keeps the XOR'd bank identical (8 = banks, so row bits change by
        // 8 → low 3 row bits unchanged).
        let cfg = sys.dram_config().clone();
        let conflict_addr = u64::from(cfg.row_bytes()) * u64::from(cfg.banks) * 8;
        let d = sys.mapping().decode(PhysAddr(conflict_addr));
        assert_eq!(d.bank.0, 0, "test address must collide on bank 0");
        assert_ne!(d.row, 0);
        let t1 = ClockRatio::PAPER.dram_to_cpu(now);
        sys.try_enqueue(
            ThreadId(0),
            AccessKind::Read,
            PhysAddr(conflict_addr),
            t1,
            0,
        )
        .unwrap();
        let (done, _) = run_until_idle(&mut sys, now);
        // Table 2 lists 70 ns, but the paper's own timing parameters sum to
        // tRP + tRCD + tCL + BL/2 + overhead = 15+15+15+10+10 = 65 ns; we
        // match the parameters (see EXPERIMENTS.md).
        assert_eq!(done[0].finish_cpu - t1, 65 * 4);
        sys.assert_timing_clean();
    }

    #[test]
    fn completions_emit_in_deterministic_order() {
        // Channels are serviced independently, so one tick can complete
        // several requests. Emission order must be fully deterministic:
        // ascending channel, and within a channel ascending
        // (data-ready cycle, id) — never request-buffer order, which
        // compaction strategies may permute.
        use stfm_telemetry::{Event, RingSink};
        let cfg = DramConfig {
            refresh_enabled: false,
            ..DramConfig::for_cores(8)
        };
        assert!(cfg.channels > 1, "test needs a multi-channel config");
        let mut sys = MemorySystem::new(cfg, Box::new(FrFcfs::new()));
        sys.set_sink(Box::new(RingSink::new(4096)));
        for i in 0..64u64 {
            // Stride across banks and channels; ids ascend as enqueued.
            sys.try_enqueue(
                ThreadId((i % 8) as u32),
                AccessKind::Read,
                PhysAddr(i.wrapping_mul(0x0004_0940)),
                CpuCycle::ZERO,
                0,
            );
        }
        let mut now = DramCycle::ZERO;
        while sys.outstanding() > 0 {
            sys.tick(now);
            sys.drain_completions();
            now += 1;
            assert!(now < 1_000_000, "memory system wedged");
        }
        let mut sink = sys.take_sink();
        let ring = sink
            .as_any_mut()
            .downcast_mut::<RingSink>()
            .expect("ring sink");
        assert_eq!(ring.dropped(), 0);
        let serviced: Vec<(u64, u32, u64)> = ring
            .events()
            .filter_map(|e| match e {
                Event::RequestServiced {
                    dram_cycle,
                    channel,
                    request,
                    ..
                } => Some((dram_cycle.get(), *channel, *request)),
                _ => None,
            })
            .collect();
        let mut multi_completion_ticks = 0;
        for w in serviced.windows(2) {
            let ((c0, ch0, id0), (c1, ch1, id1)) = (w[0], w[1]);
            if c0 == c1 {
                multi_completion_ticks += 1;
                assert!(
                    ch0 < ch1 || (ch0 == ch1 && id0 < id1),
                    "same-cycle completions out of order: \
                     cycle {c0}: (ch {ch0}, id {id0}) then (ch {ch1}, id {id1})"
                );
            }
        }
        assert!(
            multi_completion_ticks > 0,
            "workload never completed two requests on one cycle; \
             the ordering path went unexercised"
        );
    }

    #[test]
    fn back_pressure_on_full_write_buffer() {
        let mut sys = system();
        let mut accepted = 0;
        for i in 0..100 {
            if sys
                .try_enqueue(
                    ThreadId(0),
                    AccessKind::Write,
                    PhysAddr(i * 1024 * 1024),
                    CpuCycle::ZERO,
                    0,
                )
                .is_some()
            {
                accepted += 1;
            }
        }
        assert_eq!(accepted, ControllerConfig::paper_baseline().write_capacity);
    }

    #[test]
    fn writes_drain_when_no_reads_pending() {
        let mut sys = system();
        sys.try_enqueue(
            ThreadId(0),
            AccessKind::Write,
            PhysAddr(0),
            CpuCycle::ZERO,
            0,
        )
        .unwrap();
        let (done, _) = run_until_idle(&mut sys, DramCycle::ZERO);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, AccessKind::Write);
    }

    #[test]
    fn reads_bypass_queued_writes() {
        let mut sys = system();
        // A handful of writes (below the drain threshold), then a read.
        for i in 0..4u64 {
            sys.try_enqueue(
                ThreadId(0),
                AccessKind::Write,
                PhysAddr(0x100_0000 + i * 4096 * 64),
                CpuCycle::ZERO,
                0,
            )
            .unwrap();
        }
        sys.try_enqueue(
            ThreadId(1),
            AccessKind::Read,
            PhysAddr(0x500_0000),
            CpuCycle::ZERO,
            0,
        )
        .unwrap();
        let mut first_done = None;
        let mut now = DramCycle::ZERO;
        while sys.outstanding() > 0 {
            sys.tick(now);
            for c in sys.drain_completions() {
                first_done.get_or_insert(c);
            }
            now += 1;
        }
        assert_eq!(first_done.unwrap().kind, AccessKind::Read);
    }

    #[test]
    fn all_requests_complete_exactly_once() {
        let mut sys = system();
        let mut ids = Vec::new();
        let mut now = DramCycle::ZERO;
        let mut done = Vec::new();
        for i in 0..200u64 {
            // Mixed strided traffic across banks and rows.
            let addr = PhysAddr((i * 64) ^ ((i % 7) << 20));
            if let Some(id) = sys.try_enqueue(
                ThreadId((i % 4) as u32),
                AccessKind::Read,
                addr,
                ClockRatio::PAPER.dram_to_cpu(now),
                0,
            ) {
                ids.push(id);
            }
            sys.tick(now);
            done.extend(sys.drain_completions());
            now += 1;
        }
        while sys.outstanding() > 0 {
            sys.tick(now);
            done.extend(sys.drain_completions());
            now += 1;
        }
        let mut completed: Vec<_> = done.iter().map(|c| c.id).collect();
        completed.sort();
        completed.dedup();
        assert_eq!(completed.len(), done.len(), "duplicate completion");
        assert_eq!(completed.len(), ids.len(), "lost request");
    }

    /// A request keeps its slot from enqueue to reap, and a freed slot
    /// takes the next arrival. Fill a channel to capacity, let the chaos
    /// policy finish requests in an order unrelated to their ids, tick
    /// with gaps so one reap often finishes several, and refill every
    /// freed slot at once: the completion stream must be the reference
    /// `(data_done, id)` sort, and every bank's waiting list must stay in
    /// arrival order whichever slots its requests took.
    #[test]
    fn freed_slots_are_refilled_without_reordering() {
        use crate::test_util::ChaosPolicy;
        use stfm_dram::rng::SmallRng;
        let cfg = ControllerConfig::paper_baseline();
        let capacity = cfg.read_capacity + cfg.write_capacity;
        let mut sys = MemorySystem::new(no_refresh_cfg(), Box::new(ChaosPolicy { seed: 7 }));
        let mut rng = SmallRng::seed_from_u64(0x51_07);
        let mut now = DramCycle::ZERO;
        let enqueue = |sys: &mut MemorySystem, kind, now, rng: &mut SmallRng| {
            let addr = PhysAddr(rng.random_range(0u64..1 << 16) * 4096 + 64);
            let thread = ThreadId(rng.random_range(0u32..4));
            sys.try_enqueue(thread, kind, addr, ClockRatio::PAPER.dram_to_cpu(now), 0)
        };
        // Both buffer classes to capacity.
        for kind in [AccessKind::Read, AccessKind::Write] {
            while enqueue(&mut sys, kind, now, &mut rng).is_some() {}
        }
        assert_eq!(sys.outstanding(), capacity);
        let mut accepted = capacity;
        let (mut done, mut multi_reaps) = (Vec::new(), 0);
        while sys.outstanding() > 0 {
            sys.tick(now);
            let reaped = sys.drain_completions();
            multi_reaps += usize::from(reaped.len() > 1);
            done.extend(reaped);
            // Refill with reads only: writes kept at capacity would hold
            // the channel in write drain for good.
            while accepted < 3_000 && enqueue(&mut sys, AccessKind::Read, now, &mut rng).is_some() {
                accepted += 1;
            }
            let ctrl = &sys.channels[0];
            assert!(ctrl.slots.len() <= capacity, "a freed slot was not reused");
            let q = ctrl.query(ChannelId(0), now);
            for bank in 0..q.channel.num_banks() {
                let ids: Vec<_> = q.waiting_in_bank(bank).map(|r| r.id).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "bank {bank}: {ids:?}");
            }
            now += rng.random_range(1u64..8);
            assert!(now < 10_000_000, "memory system wedged");
        }
        assert_eq!(done.len(), accepted);
        let mut reference = done.clone();
        reference.sort_by_key(|c| (c.finish_cpu, c.id));
        assert_eq!(
            done, reference,
            "completion stream out of (data_done, id) order"
        );
        assert!(
            done.windows(2).any(|w| w[0].id > w[1].id),
            "requests finished in id order: the scramble went unexercised"
        );
        assert!(multi_reaps > 0, "no reap finished two requests at once");
    }

    #[test]
    fn row_hit_streak_stats() {
        let mut sys = system();
        // 32 sequential lines: 1 closed access then 31 hits.
        for i in 0..32u64 {
            sys.try_enqueue(
                ThreadId(0),
                AccessKind::Read,
                PhysAddr(i * 64),
                CpuCycle::ZERO,
                0,
            )
            .unwrap();
        }
        let (_, _) = run_until_idle(&mut sys, DramCycle::ZERO);
        let ts = sys.thread_stats(ThreadId(0));
        assert_eq!(ts.reads, 32);
        assert_eq!(ts.row_hits, 31);
        assert_eq!(ts.row_closed, 1);
        assert_eq!(ts.row_conflicts, 0);
        assert!(ts.row_hit_rate() > 0.96);
    }
}

#[cfg(test)]
mod scheduling_tests {
    use super::*;
    use crate::fcfs::Fcfs;
    use stfm_dram::DramConfig;

    fn no_refresh_cfg() -> DramConfig {
        DramConfig {
            refresh_enabled: false,
            ..DramConfig::ddr2_800()
        }
    }

    /// While the top-ranked request's command waits out a timing window,
    /// lower-ranked row hits keep the bank busy (the hit-slip rule), but
    /// the top request still gets serviced promptly afterwards.
    #[test]
    fn row_hits_slip_while_top_request_waits() {
        // FCFS makes the oldest request top-ranked regardless of hits.
        let mut sys = MemorySystem::new(no_refresh_cfg(), Box::new(Fcfs::new()));
        let row_stride = u64::from(sys.dram_config().row_bytes()) * 8 * 8;

        // Open row 0 of bank 0 first.
        sys.try_enqueue(
            ThreadId(1),
            AccessKind::Read,
            PhysAddr(0),
            CpuCycle::ZERO,
            0,
        )
        .unwrap();
        let mut now = DramCycle::ZERO;
        while sys.outstanding() > 0 {
            sys.tick(now);
            sys.drain_completions();
            now += 1;
        }
        // Old conflict request from thread 0 to a different row of bank 0
        // (its PRECHARGE must wait out tRAS/tRTP windows)...
        sys.try_enqueue(
            ThreadId(0),
            AccessKind::Read,
            PhysAddr(row_stride),
            ClockRatio::PAPER.dram_to_cpu(now),
            0,
        )
        .unwrap();
        // ...immediately followed by younger row-0 hits from thread 1.
        for i in 1..9u64 {
            sys.try_enqueue(
                ThreadId(1),
                AccessKind::Read,
                PhysAddr(i * 64 * 8),
                ClockRatio::PAPER.dram_to_cpu(now),
                0,
            )
            .unwrap();
        }
        let mut done = Vec::new();
        let deadline = now + 100_000;
        while sys.outstanding() > 0 && now < deadline {
            sys.tick(now);
            done.extend(sys.drain_completions());
            now += 1;
        }
        assert_eq!(done.len(), 9);
        // Some of thread 1's hits completed before the old conflict request
        // (they slipped into its tRAS/tRP windows)...
        let conflict_pos = done.iter().position(|c| c.thread == ThreadId(0)).unwrap();
        assert!(conflict_pos > 0, "no hit slipped ahead");
        // ...but FCFS still bounded the bypass: the conflict request did
        // not finish last.
        assert!(
            conflict_pos < done.len() - 1,
            "top-ranked request was starved by slipping hits"
        );
    }

    /// Row-hit statistics survive the hit-slip rule: a pure hit stream
    /// under FCFS still reaches a high hit rate.
    #[test]
    fn fcfs_still_exploits_hits_within_a_single_stream() {
        let mut sys = MemorySystem::new(no_refresh_cfg(), Box::new(Fcfs::new()));
        for i in 0..64u64 {
            sys.try_enqueue(
                ThreadId(0),
                AccessKind::Read,
                PhysAddr(i * 64),
                CpuCycle::ZERO,
                0,
            )
            .unwrap();
        }
        let mut now = DramCycle::ZERO;
        while sys.outstanding() > 0 {
            sys.tick(now);
            sys.drain_completions();
            now += 1;
        }
        assert!(sys.thread_stats(ThreadId(0)).row_hit_rate() > 0.9);
    }

    /// Energy accounting is exposed through the controller.
    #[test]
    fn energy_model_accumulates() {
        let mut sys = MemorySystem::new(no_refresh_cfg(), Box::new(FrFcfs::new()));
        assert!(sys.energy().is_none());
        sys.enable_energy_model();
        sys.try_enqueue(
            ThreadId(0),
            AccessKind::Read,
            PhysAddr(0),
            CpuCycle::ZERO,
            0,
        )
        .unwrap();
        for now in 0..40 {
            sys.tick(DramCycle::new(now));
        }
        let e = sys.energy().unwrap();
        assert!(e.activate_nj > 0.0, "ACT energy missing");
        assert!(e.read_nj > 0.0, "read energy missing");
        assert!(e.background_nj > 0.0, "background energy missing");
    }

    use crate::frfcfs::FrFcfs;
}

#[cfg(test)]
mod row_policy_tests {
    use super::*;
    use crate::frfcfs::FrFcfs;
    use stfm_dram::DramConfig;

    fn system_with(policy: RowPolicy) -> MemorySystem {
        let cfg = DramConfig {
            refresh_enabled: false,
            ..DramConfig::ddr2_800()
        };
        let mut sys = MemorySystem::with_controller_config(
            cfg,
            ControllerConfig {
                row_policy: policy,
                ..ControllerConfig::paper_baseline()
            },
            Box::new(FrFcfs::new()),
        );
        sys.enable_timing_checker();
        sys
    }

    fn run_stream(sys: &mut MemorySystem, n: u64, stride: u64) -> (DramCycle, f64) {
        for i in 0..n {
            sys.try_enqueue(
                ThreadId(0),
                AccessKind::Read,
                PhysAddr(i * stride),
                CpuCycle::ZERO,
                0,
            )
            .unwrap();
        }
        let mut now = DramCycle::ZERO;
        while sys.outstanding() > 0 {
            sys.tick(now);
            sys.drain_completions();
            now += 1;
            assert!(now < 1_000_000);
        }
        sys.assert_timing_clean();
        (now, sys.thread_stats(ThreadId(0)).row_hit_rate())
    }

    #[test]
    fn closed_page_kills_sequential_hit_rate() {
        // One request in the buffer at a time would auto-precharge; here
        // the whole burst is co-resident, so same-row requests keep the
        // row open even under closed-page. Enqueue one by one instead.
        let mut open_sys = system_with(RowPolicy::OpenPage);
        let mut closed_sys = system_with(RowPolicy::ClosedPage);
        for sys in [&mut open_sys, &mut closed_sys] {
            let mut now = DramCycle::ZERO;
            for i in 0..32u64 {
                sys.try_enqueue(
                    ThreadId(0),
                    AccessKind::Read,
                    PhysAddr(i * 64),
                    ClockRatio::PAPER.dram_to_cpu(now),
                    0,
                )
                .unwrap();
                while sys.outstanding() > 0 {
                    sys.tick(now);
                    sys.drain_completions();
                    now += 1;
                }
            }
            sys.assert_timing_clean();
        }
        assert!(open_sys.thread_stats(ThreadId(0)).row_hit_rate() > 0.9);
        assert_eq!(closed_sys.thread_stats(ThreadId(0)).row_hit_rate(), 0.0);
    }

    #[test]
    fn closed_page_serves_corow_bursts_without_precharge() {
        // A co-resident same-row burst is recognized: no auto-precharge
        // until the last access, so hits still happen within the burst.
        let mut sys = system_with(RowPolicy::ClosedPage);
        let (_, hit_rate) = run_stream(&mut sys, 16, 64);
        assert!(hit_rate > 0.8, "hit rate {hit_rate}");
    }

    #[test]
    fn closed_page_beats_open_page_on_row_conflicts() {
        // Alternating rows in the same bank: open-page pays precharge on
        // the critical path every time; closed-page reopens from idle.
        let cfg = DramConfig::ddr2_800();
        let row_stride = u64::from(cfg.row_bytes()) * u64::from(cfg.banks) * 8;
        let mut open_sys = system_with(RowPolicy::OpenPage);
        let mut closed_sys = system_with(RowPolicy::ClosedPage);
        let mut times = Vec::new();
        for sys in [&mut open_sys, &mut closed_sys] {
            let mut now = DramCycle::ZERO;
            for i in 0..24u64 {
                let addr = PhysAddr((i % 2) * row_stride);
                sys.try_enqueue(
                    ThreadId(0),
                    AccessKind::Read,
                    addr,
                    ClockRatio::PAPER.dram_to_cpu(now),
                    0,
                )
                .unwrap();
                while sys.outstanding() > 0 {
                    sys.tick(now);
                    sys.drain_completions();
                    now += 1;
                }
            }
            sys.assert_timing_clean();
            times.push(now);
        }
        assert!(
            times[1] <= times[0],
            "closed-page ({}) should not lose to open-page ({}) on conflicts",
            times[1],
            times[0]
        );
    }
}
