//! The Stall-Time Fair Memory scheduler (paper Sections 3 and 5).

use crate::fixed::Fx8;
use crate::registers::{weighted_slowdown, RegisterFile, ThreadRegs, MAX_THREADS};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use stfm_dram::{
    AccessCategory, BankId, ClockRatio, CommandKind, CpuCycle, DramCommand, DramCycle,
    TimingParams, CPU_CYCLES_PER_DRAM_CYCLE,
};
use stfm_mc::policy::{Rank, SchedQuery, SchedulerPolicy, SystemView};
use stfm_mc::request::{Request, RequestId, RequestState, ThreadId};
use stfm_mc::{bank_slot, AccessKind, FrFcfs, BANK_SLOTS};

/// Default maximum-tolerable-unfairness threshold (paper Section 6.3).
pub const DEFAULT_ALPHA: f64 = 1.10;

/// Default register-reset interval in CPU cycles (paper Section 6.3: 2^24).
pub const DEFAULT_INTERVAL_LENGTH: u64 = 1 << 24;

/// Minimum interval `Tshared` (CPU cycles) below which a thread counts
/// as slowdown exactly 1 in the unfairness decision. The paper has no
/// such rule (DESIGN.md §2.4, deviation 5). It was meant to keep the
/// ratio of two small counters from firing the rule, but measured on
/// Fig. 9 it does the opposite: a light thread held at 1 can never be
/// `Tmax` and lowers `Smin`, and removing the floor makes STFM fairer
/// there (ROADMAP finding 3).
pub const TSHARED_NOISE_FLOOR: u64 = 2_000;

/// Cap on a thread's pending-charge backlog (CPU cycles): overcharge
/// bursts from short waits must not haunt the estimate long after the
/// wait ended.
const PENDING_CAP: i64 = 2_000;

/// The paper's own parameters of [`Stfm`] — the only knobs. Everything
/// else about the estimator (exclusive charge classes, the ¾ charge
/// scale, slack-victim halving, the paced pending bucket and its backlog
/// cap) is a fixed part of it; see DESIGN.md §2.4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StfmConfig {
    /// Maximum tolerable unfairness `α`; the fairness rule engages when
    /// `Smax / Smin > α`. System software can set this at runtime via
    /// [`Stfm::set_alpha`].
    pub alpha: f64,
    /// Register-reset interval in CPU cycles.
    pub interval_length: u64,
    /// The paper's `γ` as a binary shift: latency updates are divided by
    /// `γ · BankWaitingParallelism`. `gamma_shift = 1` encodes `γ = 1/2`
    /// (divide by half the parallelism, i.e. multiply the latency by 2).
    ///
    /// The paper calibrates `γ = 1/2` empirically on *its* simulator
    /// (footnote 9). On this substrate the per-command charging already
    /// attributes the full `tRP + tRCD + tCL + BL/2` chain, and `γ = 1/2`
    /// overestimates interference by ~2× (see `ablation_gamma` /
    /// `ablation_estimate`); the calibrated default here is `γ = 1`
    /// (`gamma_shift = 0`).
    pub gamma_shift: u32,
    /// Ablation: when `false`, interference updates ignore both
    /// `BankWaitingParallelism` and `BankAccessParallelism` (full command
    /// latencies are charged, as a naive estimator would).
    pub use_parallelism: bool,
}

impl StfmConfig {
    /// Divides `latency` by `γ · parallelism`, i.e. shifts the latency left
    /// by `gamma_shift` and divides by the parallelism estimate.
    fn amortize(&self, latency_cpu: u64, parallelism: u32) -> i64 {
        if !self.use_parallelism {
            return latency_cpu as i64;
        }
        let boosted = latency_cpu << self.gamma_shift;
        (boosted / u64::from(parallelism.max(1))) as i64
    }
}

/// The estimator's work counters ([`Stfm::work`]), cumulative over the
/// scheduler's lifetime. Bookkeeping only: they never feed back into
/// scheduling, and they let benches and regression tests assert that the
/// estimator does O(events) work, not O(cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StfmWork {
    /// O(queue) walks over a request buffer (full estimator rebuilds).
    pub full_rebuilds: u64,
    /// O(1) incremental state updates driven by lifecycle transitions.
    pub incremental_updates: u64,
    /// Per-cycle decision passes (one per real DRAM cycle).
    pub decides_recomputed: u64,
}

/// The bookkeeping slot of `req`'s `(channel, bank)`.
fn slot_of(req: &Request) -> usize {
    bank_slot(req.loc.channel.0, req.loc.bank.0)
}

/// A set of thread ids below [`MAX_THREADS`], one bit per thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ThreadSet(u64);

impl ThreadSet {
    fn insert(&mut self, thread: ThreadId) {
        debug_assert!(thread.0 < MAX_THREADS);
        self.0 |= 1 << thread.0;
    }

    fn remove(&mut self, thread: ThreadId) {
        self.0 &= !(1 << thread.0);
    }

    #[cfg(test)]
    fn contains(self, thread: ThreadId) -> bool {
        self.0 >> thread.0 & 1 == 1
    }

    /// `self` if `keep`, else the empty set.
    fn only_if(self, keep: bool) -> ThreadSet {
        ThreadSet(self.0 & u64::from(keep).wrapping_neg())
    }

    fn union(self, other: ThreadSet) -> ThreadSet {
        ThreadSet(self.0 | other.0)
    }

    /// The members of `self` that are not in `other`.
    fn without(self, other: ThreadSet) -> ThreadSet {
        ThreadSet(self.0 & !other.0)
    }

    /// The members in ascending id order.
    fn iter(self) -> impl Iterator<Item = ThreadId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let t = bits.trailing_zeros();
                bits &= bits - 1;
                ThreadId(t)
            })
        })
    }
}

/// The threads waiting on one `(channel, bank)` slot, by the class of
/// their requests under `row`, the open row the sets were built for:
/// `sets[write][miss]`, with `write` 0 for reads and 1 for writes, and
/// `miss` 0 for a row hit and 1 for a row miss.
///
/// The sets are a function of the bank's waiting list and its open row
/// only, so they stay exact while both do. The list grows at an enqueue,
/// which adds the newcomer in place, and shrinks at a column command,
/// which marks the slot stale (`Stfm::stale_waiters`) for a rebuild. The
/// row, which ACTIVATE, PRECHARGE and refresh move, is compared with
/// `row` at every use: a closed row turns every request into a miss, any
/// other change means a rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BankWaiters {
    row: Option<u32>,
    sets: [[ThreadSet; 2]; 2],
}

impl BankWaiters {
    /// Builds the sets from `bank`'s waiting list, with `row` open.
    fn build(q: &SchedQuery<'_>, bank: u32, row: Option<u32>) -> Self {
        let mut w = BankWaiters {
            row,
            sets: Default::default(),
        };
        for r in q.waiting_in_bank(bank) {
            w.add(r);
        }
        w
    }

    /// Adds `r`'s thread to the set of its class under `row`.
    fn add(&mut self, r: &Request) {
        let write = usize::from(r.kind == AccessKind::Write);
        let miss = usize::from(self.row != Some(r.loc.row));
        self.sets[write][miss].insert(r.thread);
    }

    /// The sets once the bank's row has closed: every request misses.
    fn closed(self) -> Self {
        BankWaiters {
            row: None,
            sets: self
                .sets
                .map(|[hit, miss]| [ThreadSet::default(), hit.union(miss)]),
        }
    }
}

/// Incrementally maintained per-thread estimator state — the
/// event-driven replacement for the per-DRAM-cycle request-buffer walk —
/// plus the thread's weight, so the per-cycle passes read everything
/// per thread from one record.
///
/// Counts transition exactly with the request lifecycle: `on_enqueue`
/// adds a waiting read, the request's *first* command moves it from
/// waiting to accessing, its column command schedules an end-of-service
/// expiry at the data-done cycle, and a column command of any kind
/// removes it from the queued (mode-decision) set. The aggregates are
/// published into the register file once per real DRAM cycle, which
/// reproduces the walk's tick-start snapshot semantics bit for bit.
#[derive(Debug, Clone)]
struct LiveThread {
    /// Waiting (not-yet-started) reads per `(channel, bank)` slot.
    waiting_slots: [u16; BANK_SLOTS],
    /// Bitmask of slots with ≥ 1 waiting read (`BankWaitingParallelism`).
    waiting_mask: u64,
    /// Total waiting reads across all banks; the paced drain runs while
    /// it is non-zero.
    depth: u32,
    /// In-service reads per slot (first command issued, data not done).
    accessing_slots: [u16; BANK_SLOTS],
    /// Bitmask of slots with ≥ 1 in-service read
    /// (`BankAccessParallelism`).
    accessing_mask: u64,
    /// Buffered requests (any kind) still in `Queued` state — membership
    /// in the mode decision's thread set.
    queued: u32,
    /// The thread's weight (Section 3.3; 1 = unweighted).
    weight: u32,
}

impl Default for LiveThread {
    fn default() -> Self {
        LiveThread {
            waiting_slots: [0; BANK_SLOTS],
            waiting_mask: 0,
            depth: 0,
            accessing_slots: [0; BANK_SLOTS],
            accessing_mask: 0,
            queued: 0,
            weight: 1,
        }
    }
}

impl LiveThread {
    fn add_waiting(&mut self, slot: usize) {
        self.waiting_slots[slot] += 1;
        self.waiting_mask |= 1 << slot;
        self.depth += 1;
    }

    /// Saturating and non-creating, so hand-built command sequences (unit
    /// tests issuing commands for requests never enqueued) cannot drive
    /// the counts negative.
    fn remove_waiting(&mut self, slot: usize) {
        let c = &mut self.waiting_slots[slot];
        *c = c.saturating_sub(1);
        if *c == 0 {
            self.waiting_mask &= !(1 << slot);
        }
        self.depth = self.depth.saturating_sub(1);
    }

    fn add_accessing(&mut self, slot: usize) {
        self.accessing_slots[slot] += 1;
        self.accessing_mask |= 1 << slot;
    }

    fn remove_accessing(&mut self, slot: usize) {
        let c = &mut self.accessing_slots[slot];
        *c = c.saturating_sub(1);
        if *c == 0 {
            self.accessing_mask &= !(1 << slot);
        }
    }
}

impl Default for StfmConfig {
    fn default() -> Self {
        StfmConfig {
            alpha: DEFAULT_ALPHA,
            interval_length: DEFAULT_INTERVAL_LENGTH,
            gamma_shift: 0,
            use_parallelism: true,
        }
    }
}

/// The Stall-Time Fair Memory scheduler.
///
/// Per DRAM cycle it maintains every thread's slowdown estimate
/// `S = Tshared / (Tshared − Tinterference)` from the register file, derives
/// the system unfairness `Smax / Smin` over threads with buffered requests,
/// and either schedules exactly like FR-FCFS (unfairness ≤ α) or prioritizes
/// the most-slowed-down thread (`Tmax`-first → column-first → oldest-first).
///
/// `Tinterference` is maintained by the three update rules of Section 3.2.2:
/// data-bus interference (`t_bus` to every other thread with a ready column
/// command), bank interference (command latency divided by
/// `γ · BankWaitingParallelism` to every other thread waiting on the same
/// bank), and own-thread extra latency (the difference between the actual
/// and the would-have-been-alone row-buffer category, divided by
/// `BankAccessParallelism`) — as calibrated for this substrate, not as
/// the paper words them: DESIGN.md §2.4 lists the four fixed deviations.
///
/// The paper's per-cycle register updates are maintained
/// *incrementally*: request-lifecycle hooks keep per-thread
/// waiting/accessing aggregates exact, so no cycle walks the request
/// buffers. A real cycle settles itself as a one-cycle span
/// ([`SchedulerPolicy::fast_forward`]: the interval reset when due, else
/// one paced-drain step), retires due expiries, and runs one decision
/// pass that publishes the aggregates into the register file
/// (reproducing the original walk's tick-start snapshot) and recomputes
/// every slowdown and the mode, as the paper does on every DRAM cycle.
/// The per-command charge reads per-bank waiting-thread sets that are
/// rebuilt only when their bank's waiting list or open row changed. The
/// restructuring is pinned bit-identical to the per-cycle recomputation
/// by the golden digests, the event-equivalence fuzz, and — in builds
/// with debug assertions — a fresh request-buffer walk compared against the
/// published registers on every real tick and against the victim sets on
/// every command.
pub struct Stfm {
    timing: TimingParams,
    config: StfmConfig,
    alpha: Fx8,
    regs: RegisterFile,
    /// Decision state computed once per DRAM cycle.
    fairness_mode: bool,
    tmax: Option<ThreadId>,
    unfairness: Fx8,
    /// CPU cycle of the last interval reset.
    last_reset_cpu: CpuCycle,
    /// Cumulative charge totals per update rule [bus, bank, own], for
    /// estimator diagnostics.
    charge_totals: [i64; 3],
    /// Incremental per-thread estimator state, indexed by thread id and
    /// always as long as the register file's dense array, so the
    /// per-cycle passes zip the two.
    live: Vec<LiveThread>,
    /// Pending end-of-bank-service expiries, popped at the top of each
    /// real cycle: (data-done cycle, request, thread, slot). Only ever
    /// pushed and popped-min, so a binary heap beats an ordered set.
    expiries: BinaryHeap<Reverse<(DramCycle, RequestId, ThreadId, u8)>>,
    /// Waiting-thread sets per `(channel, bank)` slot, for the
    /// per-command victim classification.
    waiters: [BankWaiters; BANK_SLOTS],
    /// Slots whose waiting list lost a request since their `waiters`
    /// entry was built, bit `slot` per slot. Every slot starts stale.
    stale_waiters: u64,
    /// The decision outputs that feed ranking (`fairness_mode`, `tmax`)
    /// changed since the controller last asked
    /// ([`SchedulerPolicy::take_stale_banks`]).
    ranks_moved: bool,
    /// Estimator work counters; bookkeeping only.
    work: StfmWork,
}

impl Stfm {
    /// Creates the scheduler with the paper's default parameters.
    pub fn new(timing: TimingParams) -> Self {
        Self::with_config(timing, StfmConfig::default())
    }

    /// Creates the scheduler with explicit parameters.
    pub fn with_config(timing: TimingParams, config: StfmConfig) -> Self {
        Stfm {
            timing,
            alpha: Fx8::from_f64(config.alpha),
            config,
            regs: RegisterFile::default(),
            fairness_mode: false,
            tmax: None,
            unfairness: Fx8::ONE,
            last_reset_cpu: CpuCycle::ZERO,
            charge_totals: [0; 3],
            live: Vec::new(),
            expiries: BinaryHeap::new(),
            waiters: [BankWaiters::default(); BANK_SLOTS],
            stale_waiters: u64::MAX,
            ranks_moved: false,
            work: StfmWork::default(),
        }
    }

    /// Cumulative `Tinterference` charge per update rule
    /// `[bus, bank, own-thread]`, summed over all threads (diagnostics).
    pub fn charge_totals(&self) -> [i64; 3] {
        self.charge_totals
    }

    /// The estimator's cumulative work counters.
    pub fn work(&self) -> StfmWork {
        self.work
    }

    /// CPU cycle of the last interval reset.
    pub fn last_interval_reset(&self) -> CpuCycle {
        self.last_reset_cpu
    }

    /// Sets the maximum tolerable unfairness `α` (the privileged-instruction
    /// interface of Section 3.3). A very large `α` effectively disables
    /// hardware fairness enforcement.
    pub fn set_alpha(&mut self, alpha: f64) {
        self.config.alpha = alpha;
        self.alpha = Fx8::from_f64(alpha);
    }

    /// Current `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha.to_f64()
    }

    /// Sets `thread`'s weight (Section 3.3): measured slowdowns are scaled
    /// as `S' = 1 + (S − 1) · weight`, so higher-weight threads are treated
    /// as more slowed down and prioritized sooner.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero or `thread` is not below
    /// [`MAX_THREADS`].
    pub fn set_weight(&mut self, thread: ThreadId, weight: u32) {
        assert!(weight > 0, "thread weight must be positive");
        let t = self.grow_to(thread);
        self.live[t].weight = weight;
    }

    /// The weight of `thread` (default 1).
    pub fn weight(&self, thread: ThreadId) -> u32 {
        self.live.get(thread.0 as usize).map_or(1, |lt| lt.weight)
    }

    /// The scheduler's current (unweighted) slowdown estimate for `thread`.
    pub fn slowdown_estimate(&self, thread: ThreadId) -> f64 {
        self.regs
            .thread(thread)
            .map(|r| r.slowdown.to_f64())
            .unwrap_or(1.0)
    }

    /// The scheduler's current unfairness estimate (`Smax / Smin` over
    /// threads with buffered requests, weighted).
    pub fn unfairness_estimate(&self) -> f64 {
        self.unfairness.to_f64()
    }

    /// True if the fairness rule (rather than FR-FCFS) is currently active.
    pub fn fairness_rule_active(&self) -> bool {
        self.fairness_mode
    }

    /// Read-only view of the register file (used by tests and the
    /// register-accounting checks).
    pub fn registers(&self) -> &RegisterFile {
        &self.regs
    }

    /// The index of `thread` in the dense per-thread arrays, growing the
    /// live state and the register file together on its first
    /// appearance.
    fn grow_to(&mut self, thread: ThreadId) -> usize {
        let t = thread.0 as usize;
        if t >= self.live.len() {
            self.regs.grow(t + 1);
            self.live.resize_with(t + 1, LiveThread::default);
        }
        t
    }

    /// Retires end-of-bank-service expiries due at `now`: an in-service
    /// read stops counting toward `BankAccessParallelism` once its data
    /// is done (`now ≥ data_done`) — exactly the walk's
    /// `in_bank_service` cutoff, applied before this cycle's publish.
    fn expire_accessing(&mut self, now: DramCycle) {
        while let Some(&Reverse((due, _, thread, slot))) = self.expiries.peek() {
            if due > now {
                break;
            }
            self.expiries.pop();
            self.live[thread.0 as usize].remove_accessing(slot as usize);
            self.work.incremental_updates += 1;
        }
    }

    /// Folds an issued command's lifecycle transition into the live
    /// state of thread `t`, the request's: the request's first command
    /// moves it from waiting to accessing, a column command removes it
    /// from the queued (mode) set and schedules the end-of-service expiry
    /// at its data-done cycle.
    fn note_command_live(&mut self, t: usize, cmd: &DramCommand, req: &Request, now: DramCycle) {
        let slot = slot_of(req);
        let is_column = cmd.is_column();
        let lt = &mut self.live[t];
        if is_column {
            lt.queued = lt.queued.saturating_sub(1);
        }
        if req.kind == AccessKind::Read {
            if req.service_started == Some(now) {
                lt.remove_waiting(slot);
                lt.add_accessing(slot);
            }
            if is_column {
                if let RequestState::InService { data_done } = req.state {
                    self.expiries
                        .push(Reverse((data_done, req.id, req.thread, slot as u8)));
                }
            }
        }
        self.work.incremental_updates += 1;
    }

    /// One thread's paced-drain step for one DRAM cycle: moves up to one
    /// cycle's worth of pending charge into `Tinterference`, then caps
    /// the backlog at [`PENDING_CAP`]. A victim cannot lose more than one
    /// cycle per wall-clock cycle in which it has a read waiting, so
    /// attributed interference is bounded by elapsed *waiting* time, not
    /// by stall time: a thread with memory-level parallelism waits
    /// without stalling. Returns the amount moved.
    fn drain_step(regs: &mut ThreadRegs) -> i64 {
        let take = regs
            .pending_interference
            .clamp(0, CPU_CYCLES_PER_DRAM_CYCLE as i64);
        regs.tinterference += take;
        regs.pending_interference = (regs.pending_interference - take).min(PENDING_CAP);
        take
    }

    /// The per-cycle pass over every thread: publishes the live
    /// aggregates into the two parallelism registers — what the paper's
    /// per-DRAM-cycle walk over the request buffers would recompute —
    /// recomputes every thread's slowdown, and determines the scheduling
    /// mode (paper Section 3.2.1 steps 1, 2a, 2b) over the threads with at
    /// least one buffered request, in ascending id order — O(threads),
    /// with a walk over the waiting requests needed only to break exact
    /// `Smax` ties in the order a per-request walk would meet them.
    fn decide(&mut self, sys: &SystemView<'_>) {
        self.work.decides_recomputed += 1;
        let mut smax: Option<(ThreadId, Fx8)> = None;
        let mut max_count = 0u32;
        let mut smin: Option<Fx8> = None;
        let dense = self.regs.dense_mut();
        debug_assert_eq!(dense.len(), self.live.len());
        for (t, (regs, lt)) in dense.iter_mut().zip(&self.live).enumerate() {
            regs.bank_waiting_parallelism = lt.waiting_mask.count_ones();
            regs.bank_access_parallelism = lt.accessing_mask.count_ones();
            regs.compute_slowdown();
            if lt.queued == 0 {
                continue;
            }
            let thread = ThreadId(t as u32);
            let s = if regs.tshared() < TSHARED_NOISE_FLOOR {
                Fx8::ONE
            } else {
                weighted_slowdown(regs.slowdown, lt.weight)
            };
            regs.weighted_slowdown = s;
            match &mut smax {
                Some((tmax, cur)) if s > *cur => {
                    *tmax = thread;
                    *cur = s;
                    max_count = 1;
                }
                Some((_, cur)) if s == *cur => max_count += 1,
                None => {
                    smax = Some((thread, s));
                    max_count = 1;
                }
                _ => {}
            }
            match &mut smin {
                Some(cur) if s < *cur => *cur = s,
                None => smin = Some(s),
                _ => {}
            }
        }
        // Exact ties on Smax: the walk elects the thread of the first
        // tied waiting request in (channel, arrival) order — per channel,
        // the one with the smallest id. With a unique maximum the winner
        // is order-independent, so the scan runs only for genuine
        // fixed-point ties that would actually steer scheduling (fairness
        // mode about to engage).
        if let Some((tmax, hi)) = &mut smax {
            if max_count > 1 && self.unfairness_would_engage(*hi, smin) {
                self.work.full_rebuilds += 1;
                let tied = |r: &&Request| {
                    self.regs
                        .thread(r.thread)
                        .is_some_and(|rg| rg.weighted_slowdown == *hi)
                };
                if let Some(t) = sys.channels().find_map(|q| {
                    q.waiting()
                        .filter(tied)
                        .min_by_key(|r| r.id)
                        .map(|r| r.thread)
                }) {
                    *tmax = t;
                }
            }
        }
        self.apply_decision(smax, smin);
    }

    /// Whether the fairness rule would engage for the given extremes
    /// (used to decide if an `Smax` tie needs first-appearance
    /// resolution before [`Stfm::apply_decision`] runs).
    fn unfairness_would_engage(&self, hi: Fx8, smin: Option<Fx8>) -> bool {
        smin.is_some_and(|lo| hi.saturating_div(lo.max(Fx8::from_raw(1))) > self.alpha)
    }

    /// Commits the decision outputs and notes when anything that feeds
    /// ranking changed.
    fn apply_decision(&mut self, smax: Option<(ThreadId, Fx8)>, smin: Option<Fx8>) {
        let before = (self.fairness_mode, self.tmax);
        match (smax, smin) {
            (Some((tmax, hi)), Some(lo)) => {
                self.unfairness = hi.saturating_div(lo.max(Fx8::from_raw(1)));
                self.fairness_mode = self.unfairness > self.alpha;
                self.tmax = self.fairness_mode.then_some(tmax);
            }
            _ => {
                self.unfairness = Fx8::ONE;
                self.fairness_mode = false;
                self.tmax = None;
            }
        }
        self.ranks_moved |= (self.fairness_mode, self.tmax) != before;
    }

    /// Debug-build self-check, run on every real tick: the paper's
    /// literal per-DRAM-cycle walk over the request buffers, compared
    /// against the incrementally maintained state — each thread's
    /// waiting/accessing bank masks (hence the two published parallelism
    /// registers), its waiting-read count (the drain set) and its
    /// membership in the mode decision's thread set.
    #[cfg(debug_assertions)]
    fn audit_incremental(&self, sys: &SystemView<'_>) {
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        struct Walked {
            waiting_mask: u64,
            accessing_mask: u64,
            depth: u32,
            queued: bool,
        }
        let mut walk: std::collections::BTreeMap<ThreadId, Walked> = Default::default();
        for q in sys.channels() {
            for r in q.live() {
                let e = walk.entry(r.thread).or_default();
                e.queued |= r.is_waiting();
                // Writebacks never block commit, so they do not count
                // into the stall-side bookkeeping.
                if r.kind != AccessKind::Read {
                    continue;
                }
                let bit = 1u64 << slot_of(r);
                if r.is_waiting() && !r.started() {
                    e.waiting_mask |= bit;
                    e.depth += 1;
                }
                if r.in_bank_service(sys.now) {
                    e.accessing_mask |= bit;
                }
            }
        }
        let walked = walk.keys().next_back().map_or(0, |t| t.0 as usize + 1);
        for t in 0..self.live.len().max(walked) {
            let thread = ThreadId(t as u32);
            let live = self.live.get(t).map_or_else(Walked::default, |lt| Walked {
                waiting_mask: lt.waiting_mask,
                accessing_mask: lt.accessing_mask,
                depth: lt.depth,
                queued: lt.queued > 0,
            });
            assert_eq!(
                live,
                walk.get(&thread).copied().unwrap_or_default(),
                "live estimator state diverged from the buffer walk for {thread:?} at {}",
                sys.now
            );
        }
        for (thread, regs) in self.regs.threads() {
            let w = walk.get(&thread).copied().unwrap_or_default();
            assert_eq!(
                (regs.bank_waiting_parallelism, regs.bank_access_parallelism),
                (w.waiting_mask.count_ones(), w.accessing_mask.count_ones()),
                "published parallelism registers diverged for {thread:?} at {}",
                sys.now
            );
        }
    }

    /// The would-have-been-alone row-buffer category of `req`, from the
    /// `LastRowAddress` registers.
    fn alone_category(&self, req: &Request) -> AccessCategory {
        let key = (req.thread, req.loc.channel.0, req.loc.bank.0);
        match self.regs.last_row.get(&key) {
            Some(&row) if row == req.loc.row => AccessCategory::Hit,
            Some(_) => AccessCategory::Conflict,
            // First access of this thread to this bank within the interval:
            // the bank would have been closed.
            None => AccessCategory::Closed,
        }
    }

    /// Applies the Section 3.2.2 interference updates after `cmd` issued
    /// for `req`.
    fn update_interference(&mut self, cmd: &DramCommand, req: &Request, q: &SchedQuery<'_>) {
        let latency_cpu = ClockRatio::PAPER
            .dram_delta_to_cpu(stfm_dram::command_bank_latency(cmd, &self.timing))
            .get();
        let tbus_cpu = ClockRatio::PAPER
            .dram_delta_to_cpu(self.timing.burst_cycles())
            .get();

        // 1a) Bus interference: every other thread with at least one ready
        //     column command loses the data bus for t_bus.
        // 1b) Bank interference: every other thread with a request waiting
        //     on the same bank is delayed by the command latency, amortized
        //     over its BankWaitingParallelism (scaled by γ).
        //
        // Per victim thread, exactly one charge class applies (in priority
        // order), so overlapped waiting is never double-counted — see
        // [`Stfm::classify_victims`]. Charging bus + bank simultaneously,
        // as a literal reading of the paper's rules would, double-counts
        // and saturates the estimates (see `ablation_estimate` and
        // DESIGN.md).
        let victims = self.classify_victims(cmd, req.thread, q);
        debug_assert_eq!(
            victims,
            Self::walk_victims(cmd, req.thread, q),
            "cached victim sets diverged from the walk for {cmd} at {}",
            q.now
        );
        debug_assert!(
            victims
                .iter()
                .all(|s| s.iter().all(|t| self.regs.thread(t).is_some())),
            "a victim of {cmd} never registered"
        );
        let [bank_victims, bus_victims, slot_victims] = victims;
        // Calibrated global charge scale: per-command sums overstate the
        // wall-clock delay a victim experiences by ~4/3 on this substrate
        // (command pipelining); ¾ = multiply by 3, shift by 2 in hardware.
        // Slack victims are charged half of that: a thread with
        // memory-level parallelism absorbs part of any added DRAM delay
        // in its window, a pointer-chasing thread feels every cycle. The
        // slack signal is a measured stall rate (EMA of `ΔTshared/Δt`)
        // below ½ — a one-comparator hardware heuristic, grid-searched
        // over case-study and adversarial mixes (see EXPERIMENTS.md).
        let half = Fx8::from_raw(Fx8::ONE.raw() / 2);
        let scale = |v: i64, rate: Fx8| {
            let scaled = (v * 3) >> 2;
            if rate < half {
                scaled >> 1
            } else {
                scaled
            }
        };
        // Charges land in the victim's pending bucket, which the paced
        // drain moves into `Tinterference` (see `drain_step`).
        // Each charge is a per-thread sum, so applying them in ascending
        // thread order is as good as any.
        let regs = self.regs.dense_mut();
        for t in bus_victims.iter() {
            let r = &mut regs[t.0 as usize];
            let delta = scale(tbus_cpu as i64, r.stall_rate);
            r.pending_interference += delta;
            self.charge_totals[0] += delta;
        }
        for t in bank_victims.iter() {
            let r = &mut regs[t.0 as usize];
            let amortized = self
                .config
                .amortize(latency_cpu, r.bank_waiting_parallelism);
            let delta = scale(amortized, r.stall_rate);
            r.pending_interference += delta;
            self.charge_totals[1] += delta;
        }
        for t in slot_victims.iter() {
            let r = &mut regs[t.0 as usize];
            // One lost command-bus slot ≈ one DRAM cycle (pre-compensate
            // the ¾ scale so the net charge is a full cycle).
            let delta = scale(CPU_CYCLES_PER_DRAM_CYCLE as i64 * 4 / 3, r.stall_rate);
            r.pending_interference += delta;
            self.charge_totals[1] += delta;
        }

        self.update_own_thread(cmd, req);
    }

    /// The victims of `cmd`, issued for a request of `culprit`, as
    /// `[bank, bus, slot]` thread sets — disjoint, each thread in the
    /// first class that applies:
    ///
    /// * **bank** — a waiting request of the victim still needs row
    ///   commands on the culprit command's bank (a row miss there);
    /// * **bus** — the culprit issued a column access and the victim has
    ///   a waiting row hit, on any bank;
    /// * **slot** — the victim had a bank-ready command this cycle but
    ///   lost command-bus arbitration to the culprit. (This covers
    ///   fairness-mode starvation, where a deprioritized thread's ready
    ///   commands lose arbitration for long stretches without any
    ///   traffic touching its own bank.)
    ///
    /// A few bitset operations per bank of the channel, on the banks'
    /// [`BankWaiters`]: a bank's sets are rebuilt from its waiting list
    /// only when stale or built under another open row, and its readiness
    /// is read once per access kind from its thresholds
    /// ([`stfm_dram::Bank::class_edges`]), which is
    /// [`SchedQuery::is_bank_ready`] for every request of the class.
    /// [`Stfm::walk_victims`] is the reference.
    fn classify_victims(
        &mut self,
        cmd: &DramCommand,
        culprit: ThreadId,
        q: &SchedQuery<'_>,
    ) -> [ThreadSet; 3] {
        let ch = q.channel_id.0;
        let banks = q.channel.num_banks();
        let mut hits = ThreadSet::default();
        let mut ready = ThreadSet::default();
        for b in 0..banks {
            let slot = bank_slot(ch, b);
            let bank = q.channel.bank(BankId(b));
            let row = bank.open_row();
            let w = &mut self.waiters[slot];
            if self.stale_waiters >> slot & 1 == 1 || (w.row != row && row.is_some()) {
                *w = BankWaiters::build(q, b, row);
            } else if w.row != row {
                *w = w.closed();
            }
            // No branch on the sets: banks are many and their classes
            // and readiness vary from command to command.
            for (write, [hit, miss]) in [(false, w.sets[0]), (true, w.sets[1])] {
                let (hit_at, miss_at) = bank.class_edges(write);
                hits = hits.union(hit);
                ready = ready
                    .union(hit.only_if(hit_at.is_some_and(|at| at <= q.now)))
                    .union(miss.only_if(miss_at <= q.now));
            }
        }
        self.stale_waiters &= !(((1u64 << banks) - 1) << bank_slot(ch, 0));
        let [[_, read_miss], [_, write_miss]] = self.waiters[bank_slot(ch, cmd.bank.0)].sets;
        let mut bank_victims = read_miss.union(write_miss);
        bank_victims.remove(culprit);
        hits.remove(culprit);
        ready.remove(culprit);
        let bus_victims = if cmd.is_column() {
            hits.without(bank_victims)
        } else {
            ThreadSet::default()
        };
        let slot_victims = ready.without(bank_victims).without(bus_victims);
        [bank_victims, bus_victims, slot_victims]
    }

    /// [`Stfm::classify_victims`] by its definition: a walk over the
    /// channel's waiting requests that asks the query, per request,
    /// whether it hits the open row and whether its next command is
    /// bank-ready. The reference the bitset form is held to — on every
    /// command in debug builds, and by the unit tests.
    fn walk_victims(cmd: &DramCommand, culprit: ThreadId, q: &SchedQuery<'_>) -> [ThreadSet; 3] {
        let is_column = cmd.is_column();
        let mut bank_victims = ThreadSet::default();
        let mut bus_victims = ThreadSet::default();
        let mut slot_victims = ThreadSet::default();
        for r in q.waiting().filter(|r| r.thread != culprit) {
            let hit = q.is_row_hit(r);
            if r.loc.bank == cmd.bank && !hit {
                bank_victims.insert(r.thread);
            } else if is_column && hit {
                bus_victims.insert(r.thread);
            } else if q.is_bank_ready(r) {
                slot_victims.insert(r.thread);
            }
        }
        let bus_victims = bus_victims.without(bank_victims);
        let slot_victims = slot_victims.without(bank_victims).without(bus_victims);
        [bank_victims, bus_victims, slot_victims]
    }

    /// 2) Own-thread extra latency, evaluated when the column access
    ///    issues and applied to `Tinterference` directly, not through
    ///    the pending bucket (it may be negative): compare the actual
    ///    category with the category the access would have had alone
    ///    (LastRowAddress), divided by BankAccessParallelism.
    fn update_own_thread(&mut self, cmd: &DramCommand, req: &Request) {
        if let CommandKind::Read { row, .. } | CommandKind::Write { row, .. } = cmd.kind {
            let actual = req.category.unwrap_or(AccessCategory::Hit);
            let alone = self.alone_category(req);
            let extra_dram = actual.bank_latency(&self.timing).get() as i64
                - alone.bank_latency(&self.timing).get() as i64;
            if extra_dram != 0 {
                let regs = self.regs.thread_mut(req.thread);
                let bap = if self.config.use_parallelism {
                    regs.bank_access_parallelism.max(1)
                } else {
                    1
                };
                let delta = extra_dram * CPU_CYCLES_PER_DRAM_CYCLE as i64 / i64::from(bap);
                regs.tinterference += delta;
                self.charge_totals[2] += delta;
            }
            self.regs
                .last_row
                .insert((req.thread, req.loc.channel.0, req.loc.bank.0), row);
        }
    }

    /// The next interval boundary: the first DRAM cycle whose CPU time
    /// reaches `last_reset + interval_length`.
    fn next_reset(&self) -> DramCycle {
        let due_cpu = self
            .last_reset_cpu
            .get()
            .saturating_add(self.config.interval_length);
        DramCycle::new(due_cpu.div_ceil(CPU_CYCLES_PER_DRAM_CYCLE))
    }
}

impl SchedulerPolicy for Stfm {
    fn name(&self) -> &'static str {
        "STFM"
    }

    fn rank(&self, req: &Request, q: &SchedQuery<'_>) -> Rank {
        let base = FrFcfs::base_rank(req, q);
        if self.fairness_mode {
            // 2b) Tmax-first, then column-first, then oldest-first.
            let tmax_bit = u64::from(Some(req.thread) == self.tmax);
            Rank([tmax_bit, base.0[0], base.0[1]])
        } else {
            // 2a) Plain FR-FCFS.
            Rank([0, base.0[0], base.0[1]])
        }
    }

    fn on_dram_cycle(&mut self, sys: &SystemView<'_>) {
        // One cycle is a span of one: the drain step, or the reset at a
        // boundary (which empties every bucket, so the step would move
        // nothing). Expiries touch only the accessing counts, which the
        // drain does not read, so the order of the two is immaterial.
        self.fast_forward(sys, 1);
        self.expire_accessing(sys.now);
        self.decide(sys);
        #[cfg(debug_assertions)]
        self.audit_incremental(sys);
    }

    fn fast_forward(&mut self, sys: &SystemView<'_>, cycles: u64) {
        // Replicate the pending-interference drain up to the span's first
        // interval boundary, then the resets; everything else
        // `on_dram_cycle` touches is derived state the next real call
        // recomputes before any ranking or sampling reads it. Every cycle
        // before the span was ticked or settled, and either resets when
        // due, so no boundary is behind `sys.now` (with a zero interval
        // every cycle is one). The drain set — threads with a waiting,
        // not-yet-started read — is frozen with the buffers (and tracked
        // live), and each thread's step reads only its own registers, so
        // a per-thread loop of the exact stepped update is bit-identical
        // to interleaved stepping.
        let end = sys.now + cycles;
        let first_reset = self.next_reset().max(sys.now);
        let steps = first_reset.min(end).saturating_since(sys.now).get();
        for (regs, lt) in self.regs.dense_mut().iter_mut().zip(&self.live) {
            if lt.depth == 0 {
                continue;
            }
            for _ in 0..steps {
                // Fixed point: no charges arrive mid-span and a step
                // that moves nothing leaves the backlog at or under its
                // cap, so all remaining steps are no-ops too.
                if Self::drain_step(regs) == 0 {
                    break;
                }
            }
        }
        if first_reset < end {
            // A boundary resets before its cycle's drain step and empties
            // every bucket, so every later step is a no-op and every later
            // boundary only moves the reset time.
            let period = self
                .config
                .interval_length
                .div_ceil(CPU_CYCLES_PER_DRAM_CYCLE)
                .max(1);
            let later = (end.get() - 1 - first_reset.get()) / period;
            self.regs.reset_all_intervals();
            self.last_reset_cpu = ClockRatio::PAPER.dram_to_cpu(first_reset + later * period);
        }
    }

    fn take_stale_banks(&mut self) -> u64 {
        // Outside fairness mode the rank is plain FR-FCFS; inside it the
        // rank additionally keys on `tmax`. Both are pure functions of
        // the request and the bank's open row once `(fairness_mode,
        // tmax)` is fixed, and a change moves ranks in every bank.
        if std::mem::take(&mut self.ranks_moved) {
            u64::MAX
        } else {
            0
        }
    }

    fn on_enqueue(&mut self, req: &Request, tshared: u64) {
        let t = self.grow_to(req.thread);
        // The core communicates its cumulative stall counter with every
        // request (Section 5.1). Counters are monotonic; outdated values
        // (e.g. reordered channels) are ignored.
        let regs = self.regs.thread_mut(req.thread);
        regs.core_tshared = regs.core_tshared.max(tshared);
        // Stall-rate EMA (the slack signal of the charge scale): fraction
        // of wall clock the thread spent memory-stalled since its last
        // request.
        let d_cpu = req.arrival_cpu.saturating_since(regs.last_sample_cpu);
        if d_cpu > 0 {
            let d_stall = tshared
                .saturating_sub(regs.last_sample_tshared)
                .min(d_cpu.get());
            let inst_rate = Fx8::from_ratio(d_stall, d_cpu.get()).min(Fx8::ONE);
            // rate ← (3·rate + sample) / 4.
            let blended = (u64::from(regs.stall_rate.raw()) * 3 + u64::from(inst_rate.raw())) / 4;
            regs.stall_rate = Fx8::from_raw(blended as u32);
            regs.last_sample_cpu = req.arrival_cpu;
            regs.last_sample_tshared = tshared;
        }
        // Fold the arrival into the live aggregates and its bank's
        // waiting-thread sets (a stale slot's rebuild will find it too).
        let slot = slot_of(req);
        let lt = &mut self.live[t];
        lt.queued += 1;
        if req.kind == AccessKind::Read {
            lt.add_waiting(slot);
        }
        self.waiters[slot].add(req);
        self.work.incremental_updates += 1;
    }

    fn on_command(&mut self, cmd: &DramCommand, req: &Request, q: &SchedQuery<'_>) {
        let t = self.grow_to(req.thread);
        self.note_command_live(t, cmd, req, q.now);
        if cmd.is_column() {
            // The request has left its bank's waiting list.
            self.stale_waiters |= 1 << slot_of(req);
        }
        self.update_interference(cmd, req, q);
    }

    fn record_interval(&self, now: DramCycle, sink: &mut dyn stfm_telemetry::Sink) {
        let mut slowdowns: Vec<(u32, f64)> = self
            .regs
            .threads()
            .map(|(thread, regs)| (thread.0, regs.slowdown.to_f64()))
            .collect();
        slowdowns.sort_unstable_by_key(|&(thread, _)| thread);
        sink.record(&stfm_telemetry::Event::SchedulerIntervalUpdate {
            dram_cycle: now,
            scheduler: "STFM",
            slowdowns,
            unfairness: Some(self.unfairness_estimate()),
            fairness_rule_active: Some(self.fairness_rule_active()),
        });
    }
}

impl std::fmt::Debug for Stfm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stfm")
            .field("alpha", &self.alpha.to_f64())
            .field("fairness_mode", &self.fairness_mode)
            .field("tmax", &self.tmax)
            .field("unfairness", &self.unfairness.to_f64())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfm_mc::test_util::harness::{self, Queue};
    use stfm_mc::test_util::req_to;

    fn stfm() -> Stfm {
        Stfm::new(TimingParams::ddr2_800())
    }

    /// One cycle hook over `q`'s channel alone.
    fn on_cycle(p: &mut Stfm, q: SchedQuery<'_>) {
        p.on_dram_cycle(&SystemView::new(q.now, &[q]));
    }

    #[test]
    fn defaults_match_paper() {
        let s = stfm();
        assert!((s.alpha() - 1.10).abs() < 0.01);
        assert_eq!(s.config.interval_length, 1 << 24);
        assert_eq!(s.config.gamma_shift, 0); // γ = 1, recalibrated (see docs)
    }

    #[test]
    fn behaves_like_frfcfs_when_fair() {
        let (channel, _) = harness::open_row(0, 5);
        let p = stfm();
        let old_miss = req_to(0, ThreadId(0), 9, 0, 1);
        let young_hit = req_to(0, ThreadId(1), 5, 0, 2);
        let queue = Queue::new([old_miss.clone(), young_hit.clone()]);
        let q = queue.query(&channel);
        assert!(!p.fairness_rule_active());
        assert!(p.rank(&young_hit, &q) > p.rank(&old_miss, &q));
    }

    #[test]
    fn fairness_rule_prioritizes_most_slowed_thread() {
        let (channel, _) = harness::open_row(0, 5);
        let mut p = stfm();
        // Thread 0: large interference → big slowdown. Thread 1: none.
        let r0 = req_to(0, ThreadId(0), 9, 0, 1);
        let r1 = req_to(0, ThreadId(1), 5, 0, 2);
        p.on_enqueue(&r0, 10_000);
        p.on_enqueue(&r1, 10_000);
        p.regs.thread_mut(ThreadId(0)).tinterference = 8_000;
        p.regs.thread_mut(ThreadId(1)).tinterference = 0;

        let queue = Queue::new([r0.clone(), r1.clone()]);
        let q = queue.query(&channel);
        on_cycle(&mut p, q);
        assert!(p.fairness_rule_active());
        assert!(p.unfairness_estimate() > 4.0);

        let q = queue.query(&channel);
        // Thread 0's row-conflict request must now beat thread 1's row hit.
        assert!(p.rank(&r0, &q) > p.rank(&r1, &q));
    }

    #[test]
    fn alpha_controls_engagement() {
        let (channel, _) = harness::closed();
        let mut p = stfm();
        let r0 = req_to(0, ThreadId(0), 9, 0, 1);
        let r1 = req_to(1, ThreadId(1), 5, 0, 2);
        p.on_enqueue(&r0, 10_000);
        p.on_enqueue(&r1, 10_000);
        p.regs.thread_mut(ThreadId(0)).tinterference = 2_000; // S ≈ 1.25

        let queue = Queue::new([r0.clone(), r1.clone()]);
        let q = queue.query(&channel);
        on_cycle(&mut p, q);
        assert!(p.fairness_rule_active(), "1.25 > α = 1.10");

        p.set_alpha(20.0); // system software disables fairness enforcement
        let q = queue.query(&channel);
        on_cycle(&mut p, q);
        assert!(!p.fairness_rule_active());
    }

    #[test]
    fn bus_and_bank_interference_updates() {
        let (channel, _) = harness::open_row(0, 5);
        let mut p = stfm();
        let victim_same_bank = req_to(0, ThreadId(1), 9, 0, 1); // waits on bank 0
        let victim_bus = req_to(1, ThreadId(2), 0, 0, 2); // row hit? bank 1 closed → no
        let culprit = req_to(0, ThreadId(0), 5, 0, 3);
        p.on_enqueue(&victim_same_bank, 0);
        p.on_enqueue(&victim_bus, 0);
        p.on_enqueue(&culprit, 0);

        let queue = Queue::new([
            victim_same_bank.clone(),
            victim_bus.clone(),
            culprit.clone(),
        ]);
        let q = queue.query(&channel);
        on_cycle(&mut p, q);

        // Culprit's read issues on bank 0 (row hit).
        let mut served = culprit.clone();
        served.category = Some(AccessCategory::Hit);
        let cmd = DramCommand::read(served.loc.bank, 5, 0);
        let q = queue.query(&channel);
        p.on_command(&cmd, &served, &q);

        let t = TimingParams::ddr2_800();
        // Same-bank victim: read latency amortized by γ·BWP (BWP = 1, the
        // calibrated γ = 1) and the global ¾ charge scale; the paced
        // estimator books it as pending interference. No bus interference:
        // its request is not a ready column op.
        let expected_bank =
            (ClockRatio::PAPER.dram_delta_to_cpu(t.read_latency()).get() as i64 * 3) >> 2;
        assert_eq!(
            p.registers()
                .thread(ThreadId(1))
                .unwrap()
                .pending_interference,
            expected_bank
        );
        // Bank-1 victim is neither same-bank nor column-ready: untouched.
        assert_eq!(p.registers().thread(ThreadId(2)).unwrap().tinterference, 0);
        // Culprit itself: row hit both shared and alone-after-this-access →
        // only the LastRowAddress update.
        assert_eq!(p.registers().last_row.get(&(ThreadId(0), 0, 0)), Some(&5));
    }

    #[test]
    fn own_thread_extra_latency_on_spoiled_row_hit() {
        let (channel, _) = harness::open_row(0, 5);
        let mut p = stfm();
        let t = TimingParams::ddr2_800();
        // Thread 0 last accessed row 9 of bank 0 → alone it would be a hit
        // on its next row-9 access; in the shared system the access became a
        // conflict (another thread opened row 5 in between).
        p.regs.last_row.insert((ThreadId(0), 0, 0), 9);
        let mut spoiled = req_to(0, ThreadId(0), 9, 0, 4);
        spoiled.category = Some(AccessCategory::Conflict);
        let queue = Queue::new([spoiled.clone()]);
        let q = queue.query(&channel);
        p.on_command(&DramCommand::read(spoiled.loc.bank, 9, 0), &spoiled, &q);
        let expected = ClockRatio::PAPER.dram_delta_to_cpu(t.t_rp + t.t_rcd).get() as i64; // BAP = 1
        assert_eq!(
            p.registers().thread(ThreadId(0)).unwrap().tinterference,
            expected
        );
    }

    #[test]
    fn negative_interference_on_lucky_row_hit() {
        let (channel, _) = harness::open_row(0, 5);
        let mut p = stfm();
        // Alone the access would have been a conflict (last row 9), but in
        // the shared system another thread already opened row 5: a hit.
        p.regs.last_row.insert((ThreadId(0), 0, 0), 9);
        let mut lucky = req_to(0, ThreadId(0), 5, 0, 4);
        lucky.category = Some(AccessCategory::Hit);
        let queue = Queue::new([lucky.clone()]);
        let q = queue.query(&channel);
        p.on_command(&DramCommand::read(lucky.loc.bank, 5, 0), &lucky, &q);
        assert!(
            p.registers().thread(ThreadId(0)).unwrap().tinterference < 0,
            "constructive interference must be credited"
        );
    }

    #[test]
    fn weights_scale_prioritization() {
        let (channel, _) = harness::closed();
        let mut p = stfm();
        let r0 = req_to(0, ThreadId(0), 1, 0, 1);
        let r1 = req_to(1, ThreadId(1), 2, 0, 2);
        p.on_enqueue(&r0, 10_000);
        p.on_enqueue(&r1, 10_000);
        // Both threads measured at S = 1.2, but thread 1 has weight 10:
        // interpreted as 1 + 0.2·10 = 3.
        p.regs.thread_mut(ThreadId(0)).tinterference = 1_667;
        p.regs.thread_mut(ThreadId(1)).tinterference = 1_667;
        p.set_weight(ThreadId(1), 10);

        let queue = Queue::new([r0.clone(), r1.clone()]);
        let q = queue.query(&channel);
        on_cycle(&mut p, q);
        assert!(p.fairness_rule_active());
        let q = queue.query(&channel);
        assert!(p.rank(&r1, &q) > p.rank(&r0, &q));
    }

    #[test]
    fn interval_reset_clears_slowdowns() {
        let (channel, _) = harness::closed();
        let mut p = Stfm::with_config(
            TimingParams::ddr2_800(),
            StfmConfig {
                interval_length: 1_000, // tiny interval for the test
                ..StfmConfig::default()
            },
        );
        let r0 = req_to(0, ThreadId(0), 1, 0, 1);
        p.on_enqueue(&r0, 50_000);
        p.regs.thread_mut(ThreadId(0)).tinterference = 25_000;
        let queue = Queue::new([r0.clone()]);
        let q = queue.query(&channel);
        on_cycle(&mut p, q); // now = 1000 DRAM = 10_000 CPU ≥ 1_000
        assert_eq!(p.slowdown_estimate(ThreadId(0)), 1.0);
    }

    /// One `fast_forward` over a frozen span equals stepping
    /// `on_dram_cycle` through it — registers, reset time and mode
    /// decision, after one real cycle past the span — whether the span
    /// crosses no interval boundary, ends on one, or crosses one or three.
    #[test]
    fn fast_forward_across_resets_equals_stepping() {
        let (channel, _) = harness::closed();
        let requests = [0, 1].map(|t| req_to(t, ThreadId(t), 1, 0, t.into()));
        let queue = Queue::new(requests.clone());
        let at = |cycle: u64| {
            let mut q = queue.query(&channel);
            q.now = DramCycle::new(cycle);
            q
        };
        let step = |p: &mut Stfm, cycle| on_cycle(p, at(cycle));
        // A 1,000-CPU-cycle interval is 100 DRAM cycles. The last reset
        // was at `NOW`, so the boundaries are `NOW + 100`, `NOW + 200`, …
        let now = harness::NOW;
        let primed = || {
            let mut p = Stfm::with_config(
                TimingParams::ddr2_800(),
                StfmConfig {
                    interval_length: 1_000,
                    ..StfmConfig::default()
                },
            );
            for r in &requests {
                p.on_enqueue(r, 20_000);
            }
            p.last_reset_cpu = ClockRatio::PAPER.dram_to_cpu(now);
            // Thread 0 is slowed down, and its backlog takes 150 cycles
            // to drain; thread 1's takes 4.
            let t0 = p.regs.thread_mut(ThreadId(0));
            t0.tinterference = 8_000;
            t0.pending_interference = 1_500;
            p.regs.thread_mut(ThreadId(1)).pending_interference = 35;
            step(&mut p, now.get());
            p
        };
        let state = |p: &Stfm| {
            let regs: Vec<_> = p.regs.threads().map(|(t, r)| (t, r.clone())).collect();
            (regs, p.last_interval_reset(), p.fairness_mode, p.tmax)
        };
        let start = now.get() + 1;
        for (cycles, crossed) in [(50, 0), (100, 1), (150, 1), (350, 3)] {
            let mut stepped = primed();
            for c in start..start + cycles {
                step(&mut stepped, c);
            }
            let mut jumped = primed();
            let q = at(start);
            jumped.fast_forward(&SystemView::new(q.now, &[q]), cycles);
            for p in [&mut stepped, &mut jumped] {
                step(p, start + cycles);
            }
            assert_eq!(state(&jumped), state(&stepped), "{cycles}-cycle span");
            let last_reset = ClockRatio::PAPER.dram_to_cpu(now + crossed * 100);
            assert_eq!(stepped.last_interval_reset(), last_reset);
            assert_eq!(stepped.fairness_rule_active(), crossed == 0);
        }
    }
}

/// The fixed parts of the charge rule, one test each.
#[cfg(test)]
mod charge_rule_tests {
    use super::*;
    use stfm_mc::test_util::harness::{self, Queue};
    use stfm_mc::test_util::req_to;

    /// ¾ of the DDR2-800 read bank latency, in CPU cycles.
    fn three_quarter_read() -> i64 {
        let t = TimingParams::ddr2_800();
        (ClockRatio::PAPER.dram_delta_to_cpu(t.read_latency()).get() as i64 * 3) >> 2
    }

    /// Thread 0's row-hit read issues on bank 0 while `victims` (thread
    /// 1's requests) sit in the buffer; returns thread 1's registers.
    fn victim_regs_after_one_read(victims: &[Request]) -> ThreadRegs {
        let (channel, _) = harness::open_row(0, 5);
        let mut p = Stfm::new(TimingParams::ddr2_800());
        let culprit = req_to(0, ThreadId(0), 5, 0, 100);
        let mut requests = victims.to_vec();
        requests.push(culprit.clone());
        for r in &requests {
            p.on_enqueue(r, 0);
        }
        let queue = Queue::new(requests);
        let q = queue.query(&channel);
        p.on_dram_cycle(&SystemView::new(q.now, &[q]));
        let mut served = culprit;
        served.category = Some(AccessCategory::Hit);
        let q = queue.query(&channel);
        p.on_command(&DramCommand::read(served.loc.bank, 5, 0), &served, &q);
        p.registers().thread(ThreadId(1)).unwrap().clone()
    }

    #[test]
    fn one_read_charges_three_quarters_into_the_pending_bucket() {
        // Same bank, other row; fresh threads default to stall rate 1,
        // so no slack halving applies.
        let regs = victim_regs_after_one_read(&[req_to(0, ThreadId(1), 9, 0, 1)]);
        assert_eq!(regs.pending_interference, three_quarter_read());
        assert_eq!(regs.tinterference, 0, "nothing bypasses the paced drain");
    }

    #[test]
    fn slack_victim_is_charged_half() {
        // Four reads a million CPU cycles apart with no stall between
        // them: the stall-rate EMA starts at 1 and blends by quarters,
        // so it ends below ½.
        let victims: Vec<Request> = (1..=4u64)
            .map(|k| {
                let mut r = req_to(0, ThreadId(1), 9, 0, k);
                r.arrival_cpu = CpuCycle::new(k * 1_000_000);
                r
            })
            .collect();
        let regs = victim_regs_after_one_read(&victims);
        assert!(regs.stall_rate < Fx8::from_raw(Fx8::ONE.raw() / 2));
        assert_eq!(regs.pending_interference, three_quarter_read() >> 1);
    }

    #[test]
    fn backlog_never_exceeds_the_cap() {
        let (channel, _) = harness::open_row(0, 5);
        let mut p = Stfm::new(TimingParams::ddr2_800());
        let victim = req_to(0, ThreadId(1), 9, 0, 1);
        p.on_enqueue(&victim, 0);
        let queue = Queue::new([victim.clone()]);
        // Charge far faster than one DRAM cycle per cycle drains.
        let mut charged = 0;
        for i in 0..100u64 {
            let mut served = req_to(0, ThreadId(0), 5, 0, 100 + i);
            served.category = Some(AccessCategory::Hit);
            let q = queue.query(&channel);
            p.on_command(&DramCommand::read(served.loc.bank, 5, 0), &served, &q);
            charged += three_quarter_read();
            let q = queue.query(&channel);
            p.on_dram_cycle(&SystemView::new(q.now, &[q]));
            let regs = p.registers().thread(ThreadId(1)).unwrap();
            assert!(regs.pending_interference <= PENDING_CAP);
        }
        let regs = p.registers().thread(ThreadId(1)).unwrap();
        assert!(
            regs.tinterference + regs.pending_interference < charged,
            "the cap must have discarded part of the {charged} charged"
        );
    }

    #[test]
    fn bypassed_bank_ready_victim_is_charged_one_slot() {
        // Bank 1 is closed, so the victim's ACTIVATE was ready when the
        // culprit's read took the command bus: one DRAM cycle and no more
        // (different bank, not column-ready) — 9 of its 10 CPU cycles
        // after the integer pre-compensation, (10·4/3)·¾.
        let regs = victim_regs_after_one_read(&[req_to(1, ThreadId(1), 3, 0, 1)]);
        assert_eq!(regs.pending_interference, 9);
    }

    /// The victim classification before the thread bitsets: one pass
    /// over the buffer in order, filling `Vec`s, then the two retains.
    /// Returned sorted, for comparison with [`Stfm::walk_victims`].
    fn vec_victims(
        cmd: &DramCommand,
        culprit: ThreadId,
        q: &SchedQuery<'_>,
        requests: &[Request],
    ) -> [Vec<ThreadId>; 3] {
        let is_column = cmd.is_column();
        let (mut bank_victims, mut bus_victims, mut slot_victims) =
            (Vec::new(), Vec::new(), Vec::new());
        for r in requests {
            if r.thread == culprit || !r.is_waiting() || bank_victims.contains(&r.thread) {
                continue;
            }
            let same_bank = r.loc.bank == cmd.bank;
            let in_bus = bus_victims.contains(&r.thread);
            if in_bus && !same_bank {
                continue;
            }
            if same_bank {
                if !q.is_row_hit(r) {
                    bank_victims.push(r.thread);
                    continue;
                }
                if is_column {
                    if !in_bus {
                        bus_victims.push(r.thread);
                    }
                    continue;
                }
            } else if is_column && q.is_row_hit(r) {
                if !in_bus {
                    bus_victims.push(r.thread);
                }
                continue;
            }
            if !in_bus && !slot_victims.contains(&r.thread) && q.is_bank_ready(r) {
                slot_victims.push(r.thread);
            }
        }
        slot_victims.retain(|t| !bank_victims.contains(t) && !bus_victims.contains(t));
        bus_victims.retain(|t| !bank_victims.contains(t));
        for v in [&mut bank_victims, &mut bus_victims, &mut slot_victims] {
            v.sort_unstable();
        }
        [bank_victims, bus_victims, slot_victims]
    }

    /// Seventeen threads — one more than a 16-bit set holds — all wait on
    /// bank 0 and spread further requests over banks in every readiness
    /// state. For every command each bank can take next, and culprits at
    /// both ends of the id range, the walk equals the `Vec` form and the
    /// per-bank sets equal the walk.
    #[test]
    fn seventeen_threads_classify_as_the_vec_form_did() {
        use stfm_dram::rng::SmallRng;
        let (mut channel, _) = harness::open_row(0, 5);
        let now = harness::NOW;
        // Bank 2 open and ready; bank 4 precharged too recently to
        // activate; bank 3 activated too recently to read or precharge;
        // bank 1 closed and ready.
        channel.issue(&DramCommand::activate(BankId(2), 3), DramCycle::new(20));
        channel.issue(&DramCommand::activate(BankId(4), 1), DramCycle::new(900));
        channel.issue(&DramCommand::precharge(BankId(4)), now - 2);
        channel.issue(&DramCommand::activate(BankId(3), 7), now - 1);
        let mut seen = [ThreadSet::default(); 3];
        for seed in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(0x17_7E ^ seed);
            let mut requests = Vec::new();
            for t in 0..17u32 {
                for k in 0..3u32 {
                    let bank = if k == 0 { 0 } else { rng.random_range(0u32..5) };
                    let open = channel.bank(BankId(bank)).open_row();
                    let row = match open {
                        Some(row) if rng.random_bool(0.5) => row,
                        _ => 11,
                    };
                    let id = requests.len() as u64;
                    let mut r = req_to(bank, ThreadId(t), row, 0, id);
                    if rng.random_bool(0.3) {
                        r.kind = AccessKind::Write;
                    }
                    requests.push(r);
                }
            }
            let queue = Queue::new(requests);
            let q = queue.query(&channel);
            let mut p = Stfm::new(TimingParams::ddr2_800());
            for bank in (0..5).map(BankId) {
                let cmds = match channel.bank(bank).open_row() {
                    Some(row) => vec![
                        DramCommand::read(bank, row, 0),
                        DramCommand::write(bank, row, 0),
                        DramCommand::precharge(bank),
                    ],
                    None => vec![DramCommand::activate(bank, 11)],
                };
                for cmd in &cmds {
                    for culprit in [ThreadId(0), ThreadId(16)] {
                        let sets = Stfm::walk_victims(cmd, culprit, &q);
                        let got = sets.map(|s| s.iter().collect::<Vec<_>>());
                        let want = vec_victims(cmd, culprit, &q, queue.requests());
                        assert_eq!(got, want, "seed {seed}, {cmd} for {culprit}");
                        let cached = p.classify_victims(cmd, culprit, &q);
                        assert_eq!(cached, sets, "seed {seed}, {cmd} for {culprit}");
                        for (s, class) in seen.iter_mut().zip(sets) {
                            s.0 |= class.0;
                        }
                    }
                }
            }
        }
        for (name, s) in ["bank", "bus", "slot"].iter().zip(seen) {
            assert!(s.contains(ThreadId(16)), "thread 16 never a {name} victim");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the register file's 64 threads")]
    fn a_thread_beyond_the_set_width_is_refused() {
        let mut p = Stfm::new(TimingParams::ddr2_800());
        p.on_enqueue(&req_to(0, ThreadId(MAX_THREADS), 1, 0, 1), 0);
    }
}

/// The per-bank waiting-thread sets through each event that invalidates
/// them, held to the walk after every step.
#[cfg(test)]
mod victim_cache_tests {
    use super::*;
    use stfm_dram::{Channel, DramConfig};
    use stfm_mc::test_util::harness::Queue;
    use stfm_mc::test_util::req_to;

    /// One channel with refresh on, its request buffer, and the STFM
    /// instance its hooks feed.
    struct Rig {
        p: Stfm,
        channel: Channel,
        queue: Queue,
        now: DramCycle,
    }

    fn query<'a>(queue: &'a Queue, channel: &'a Channel, now: DramCycle) -> SchedQuery<'a> {
        let mut q = queue.query(channel);
        q.now = now;
        q
    }

    impl Rig {
        fn new() -> Self {
            let cfg = DramConfig::ddr2_800();
            assert!(cfg.refresh_enabled);
            Rig {
                p: Stfm::new(cfg.timing),
                channel: Channel::new(&cfg),
                queue: Queue::new(Vec::new()),
                now: DramCycle::new(1),
            }
        }

        fn enqueue(&mut self, r: Request) {
            self.p.on_enqueue(&r, 0);
            self.queue.push(r);
        }

        /// Issues `cmd` for request `i` at its earliest legal cycle, as
        /// the controller would: device first, then the request's state,
        /// then the hook.
        fn issue(&mut self, cmd: DramCommand, i: usize) {
            self.now = self
                .channel
                .earliest_issue(&cmd, self.now)
                .unwrap_or_else(|| panic!("{cmd} can never issue"));
            let now = self.now;
            let done = self.channel.issue(&cmd, now);
            self.queue.update(i, |r| {
                r.service_started.get_or_insert(now);
                if cmd.is_column() {
                    r.state = RequestState::InService { data_done: done };
                }
            });
            let q = query(&self.queue, &self.channel, now);
            self.p.on_command(&cmd, &self.queue.requests()[i], &q);
        }

        /// Ticks the channel until a refresh starts (closing every row).
        fn refresh(&mut self) {
            let start = self.now.get();
            let at = (start..start + 100_000)
                .map(DramCycle::new)
                .find(|&c| self.channel.tick(c).is_some())
                .unwrap_or_else(|| panic!("no refresh within 100k cycles of {start}"));
            self.now = at;
        }

        /// The cached sets equal the walk for a column and a row command
        /// on every bank in use, for a culprit that never waits.
        fn check(&mut self, step: &str) {
            let q = query(&self.queue, &self.channel, self.now);
            for b in (0..3).map(BankId) {
                for cmd in [DramCommand::read(b, 0, 0), DramCommand::activate(b, 0)] {
                    let culprit = ThreadId(9);
                    assert_eq!(
                        self.p.classify_victims(&cmd, culprit, &q),
                        Stfm::walk_victims(&cmd, culprit, &q),
                        "after {step}: {cmd}"
                    );
                }
            }
        }
    }

    /// Each step changes what one bank's sets must hold through exactly
    /// one path — the enqueue's in-place add, the column command's stale
    /// mark, the rebuild when a row opens (ACTIVATE) or the closed-row
    /// form (PRECHARGE, refresh) — right after the sets were built, so
    /// dropping any one of them fails here.
    #[test]
    fn cached_victim_sets_follow_every_invalidation() {
        let mut rig = Rig::new();
        rig.enqueue(req_to(0, ThreadId(1), 5, 0, 0));
        rig.enqueue(req_to(1, ThreadId(2), 3, 0, 1));
        rig.check("the first build");
        // Thread 3 joins bank 0, whose sets are built.
        rig.enqueue(req_to(0, ThreadId(3), 5, 0, 2));
        rig.check("an enqueue into a built bank");
        // Row 5 opens: both bank-0 reads turn from misses into hits.
        rig.issue(DramCommand::activate(BankId(0), 5), 0);
        rig.check("an ACTIVATE");
        // Thread 1's read leaves the waiting list; the row stays open.
        rig.issue(DramCommand::read(BankId(0), 5, 0), 0);
        rig.check("a column command");
        // The row closes under thread 3's waiting read: a miss again.
        rig.issue(DramCommand::precharge(BankId(0)), 2);
        rig.check("a PRECHARGE");
        // Thread 2's row opens and is classified, then refresh closes it.
        rig.issue(DramCommand::activate(BankId(1), 3), 1);
        rig.check("an ACTIVATE on bank 1");
        rig.refresh();
        assert_eq!(rig.channel.bank(BankId(1)).open_row(), None);
        rig.check("a refresh");
    }
}
