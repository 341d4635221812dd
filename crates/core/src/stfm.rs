//! The Stall-Time Fair Memory scheduler (paper Sections 3 and 5).

use crate::fixed::Fx8;
use crate::registers::{weighted_slowdown, RegisterFile, ThreadRegs};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use stfm_dram::{
    AccessCategory, ClockRatio, CommandKind, CpuCycle, DramCommand, DramCycle, TimingParams,
    CPU_CYCLES_PER_DRAM_CYCLE,
};
use stfm_mc::policy::{PolicyWork, Rank, SchedQuery, SchedulerPolicy, SystemView};
use stfm_mc::request::{Request, RequestId, RequestState, ThreadId};
use stfm_mc::{AccessKind, FrFcfs};

/// Default maximum-tolerable-unfairness threshold (paper Section 6.3).
pub const DEFAULT_ALPHA: f64 = 1.10;

/// Default register-reset interval in CPU cycles (paper Section 6.3: 2^24).
pub const DEFAULT_INTERVAL_LENGTH: u64 = 1 << 24;

/// Minimum `Tshared` (CPU cycles) before a thread's slowdown estimate
/// participates in the unfairness decision. A thread that has barely
/// stalled cannot meaningfully be "slowed down", and acting on the noisy
/// ratio of two tiny counters makes the fairness rule fire spuriously on
/// lightly loaded workloads.
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

/// Number of `(channel, bank)` slots in the bitmask bookkeeping: slot
/// `channel * 16 + bank`, so up to 4 channels × 16 banks — the same
/// layout (and the same limit) as the original per-cycle walk's masks.
const SLOTS: usize = 64;

/// The bookkeeping slot of `req`'s `(channel, bank)`.
fn slot_of(req: &Request) -> usize {
    (req.loc.channel.0 * 16 + req.loc.bank.0) as usize
}

/// Incrementally maintained per-thread estimator state — the
/// event-driven replacement for the per-DRAM-cycle request-buffer walk.
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
    waiting_slots: [u16; SLOTS],
    /// Bitmask of slots with ≥ 1 waiting read (`BankWaitingParallelism`).
    waiting_mask: u64,
    /// Total waiting reads across all banks; the paced drain runs while
    /// it is non-zero.
    depth: u32,
    /// In-service reads per slot (first command issued, data not done).
    accessing_slots: [u16; SLOTS],
    /// Bitmask of slots with ≥ 1 in-service read
    /// (`BankAccessParallelism`).
    accessing_mask: u64,
    /// Buffered requests (any kind) still in `Queued` state — membership
    /// in the mode decision's thread set.
    queued: u32,
}

impl Default for LiveThread {
    fn default() -> Self {
        LiveThread {
            waiting_slots: [0; SLOTS],
            waiting_mask: 0,
            depth: 0,
            accessing_slots: [0; SLOTS],
            accessing_mask: 0,
            queued: 0,
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
/// waiting/accessing aggregates exact, a once-per-cycle publish step
/// copies them into the register file (reproducing the original walk's
/// tick-start snapshot), and the mode decision is recomputed only when
/// an estimator generation counter shows one of its inputs actually
/// moved. The restructuring is pinned bit-identical to the per-cycle
/// recomputation by the golden digests, the event-equivalence fuzz, and
/// — in builds with debug assertions — a fresh request-buffer walk
/// compared against the published registers on every real tick.
pub struct Stfm {
    timing: TimingParams,
    config: StfmConfig,
    alpha: Fx8,
    regs: RegisterFile,
    weights: BTreeMap<ThreadId, u32>,
    /// Decision state computed once per DRAM cycle.
    fairness_mode: bool,
    tmax: Option<ThreadId>,
    unfairness: Fx8,
    /// CPU cycle of the last interval reset.
    last_reset_cpu: CpuCycle,
    /// Cumulative charge totals per update rule [bus, bank, own], for
    /// estimator diagnostics.
    charge_totals: [i64; 3],
    /// Reusable victim-classification scratch ([bank, bus, slot]) for the
    /// per-command interference update — cleared each command, kept
    /// allocated across commands.
    victims: [Vec<ThreadId>; 3],
    /// Incremental per-thread estimator state, indexed by thread id.
    live: Vec<LiveThread>,
    /// Pending end-of-bank-service expiries, popped at the top of each
    /// real cycle: (data-done cycle, request, thread, slot). Only ever
    /// pushed and popped-min, so a binary heap beats an ordered set.
    expiries: BinaryHeap<Reverse<(DramCycle, RequestId, ThreadId, u8)>>,
    /// Estimator generation: bumped whenever any input of the mode
    /// decision may have moved; the decision is carried while unchanged.
    est_gen: u64,
    /// Generation at which the mode decision last ran.
    last_decided_gen: Option<u64>,
    /// Bumped whenever the decision outputs that feed ranking
    /// (`fairness_mode`, `tmax`) change; exported as the decision epoch
    /// so the controller can carry per-bank rank winners across cycles.
    decision_sig: u64,
    /// Estimator work counters (see [`PolicyWork`]); bookkeeping only.
    work: PolicyWork,
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
            weights: BTreeMap::new(),
            fairness_mode: false,
            tmax: None,
            unfairness: Fx8::ONE,
            last_reset_cpu: CpuCycle::ZERO,
            charge_totals: [0; 3],
            victims: [Vec::new(), Vec::new(), Vec::new()],
            live: Vec::new(),
            expiries: BinaryHeap::new(),
            est_gen: 0,
            last_decided_gen: None,
            decision_sig: 0,
            work: PolicyWork::default(),
        }
    }

    /// Cumulative `Tinterference` charge per update rule
    /// `[bus, bank, own-thread]`, summed over all threads (diagnostics).
    pub fn charge_totals(&self) -> [i64; 3] {
        self.charge_totals
    }

    /// Sets the maximum tolerable unfairness `α` (the privileged-instruction
    /// interface of Section 3.3). A very large `α` effectively disables
    /// hardware fairness enforcement.
    pub fn set_alpha(&mut self, alpha: f64) {
        self.config.alpha = alpha;
        self.alpha = Fx8::from_f64(alpha);
        self.est_gen += 1;
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
    /// Panics if `weight` is zero.
    pub fn set_weight(&mut self, thread: ThreadId, weight: u32) {
        assert!(weight > 0, "thread weight must be positive");
        self.weights.insert(thread, weight);
        self.est_gen += 1;
    }

    /// The weight of `thread` (default 1).
    pub fn weight(&self, thread: ThreadId) -> u32 {
        self.weights.get(&thread).copied().unwrap_or(1)
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

    /// Divides `latency` by `γ · parallelism`, i.e. shifts the latency left
    /// by `gamma_shift` and divides by the parallelism estimate.
    fn amortize(&self, latency_cpu: u64, parallelism: u32) -> i64 {
        if !self.config.use_parallelism {
            return latency_cpu as i64;
        }
        let boosted = latency_cpu << self.config.gamma_shift;
        (boosted / u64::from(parallelism.max(1))) as i64
    }

    /// Publishes the live incremental aggregates into the register file —
    /// what the paper's per-DRAM-cycle walk over the request buffers
    /// would recompute, in O(threads) instead of O(queue).
    fn publish_live(&mut self) {
        for (thread, regs) in self.regs.threads_mut() {
            let e = self.live.get(thread.0 as usize);
            regs.bank_waiting_parallelism = e.map_or(0, |e| e.waiting_mask.count_ones());
            regs.bank_access_parallelism = e.map_or(0, |e| e.accessing_mask.count_ones());
        }
    }

    /// The live-state entry of `thread`, grown on demand.
    fn live_mut(&mut self, thread: ThreadId) -> &mut LiveThread {
        let t = thread.0 as usize;
        if t >= self.live.len() {
            self.live.resize_with(t + 1, LiveThread::default);
        }
        &mut self.live[t]
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
            if let Some(lt) = self.live.get_mut(thread.0 as usize) {
                lt.remove_accessing(slot as usize);
            }
            self.work.incremental_updates += 1;
        }
    }

    /// Folds an issued command's lifecycle transition into the live
    /// state: the request's first command moves it from waiting to
    /// accessing, a column command removes it from the queued (mode) set
    /// and schedules the end-of-service expiry at its data-done cycle.
    fn note_command_live(&mut self, cmd: &DramCommand, req: &Request, now: DramCycle) {
        let slot = slot_of(req);
        let is_column = cmd.is_column();
        let first = req.service_started == Some(now);
        let lt = self.live_mut(req.thread);
        if is_column {
            lt.queued = lt.queued.saturating_sub(1);
        }
        if req.kind == AccessKind::Read {
            if first {
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
        self.est_gen += 1;
        self.work.incremental_updates += 1;
    }

    /// One thread's paced-drain step for one DRAM cycle: moves up to one
    /// cycle's worth of pending charge into `Tinterference`, then caps
    /// the backlog at [`PENDING_CAP`]. A victim cannot lose more than one
    /// cycle per wall-clock cycle, so attributed interference is bounded
    /// by elapsed stall time. Returns the amount moved.
    fn drain_step(regs: &mut ThreadRegs) -> i64 {
        let take = regs
            .pending_interference
            .clamp(0, CPU_CYCLES_PER_DRAM_CYCLE as i64);
        regs.tinterference += take;
        regs.pending_interference = (regs.pending_interference - take).min(PENDING_CAP);
        take
    }

    /// Per-cycle paced drain over the live waiting-thread set: drains
    /// pending charges into `Tinterference` at wall-clock rate while the
    /// victim has work waiting. Per-thread steps are independent, so
    /// iteration order is immaterial; bumps the decision generation when
    /// any `Tinterference` actually moved.
    fn drain_pending(&mut self) {
        let mut moved = false;
        for t in 0..self.live.len() {
            if self.live[t].depth == 0 {
                continue;
            }
            let regs = self.regs.thread_mut(ThreadId(t as u32));
            moved |= Self::drain_step(regs) != 0;
        }
        if moved {
            self.est_gen += 1;
        }
    }

    /// Determines the scheduling mode (paper Section 3.2.1 steps 1, 2a,
    /// 2b) over threads with at least one buffered request — the
    /// incrementally tracked set, so O(threads), with a request-buffer
    /// scan needed only to break exact `Smax` ties in the order a
    /// per-request walk would meet them.
    fn decide_mode(&mut self, sys: &SystemView<'_>) {
        let mut smax: Option<(ThreadId, Fx8)> = None;
        let mut max_count = 0u32;
        let mut smin: Option<Fx8> = None;
        for t in 0..self.live.len() {
            if self.live[t].queued == 0 {
                continue;
            }
            let thread = ThreadId(t as u32);
            let weight = self.weight(thread);
            let regs = self.regs.thread_mut(thread);
            let s = if regs.tshared() < TSHARED_NOISE_FLOOR {
                Fx8::ONE
            } else {
                weighted_slowdown(regs.slowdown, weight)
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
        // Exact ties on Smax: the walk elects the thread whose first
        // waiting request appears earliest in (channel, buffer) order.
        // With a unique maximum the winner is order-independent, so the
        // scan runs only for genuine fixed-point ties that would actually
        // steer scheduling (fairness mode about to engage).
        if let Some((tmax, hi)) = &mut smax {
            if max_count > 1 && self.unfairness_would_engage(*hi, smin) {
                self.work.full_rebuilds += 1;
                'scan: for q in sys.channels() {
                    for r in q.requests {
                        if r.is_waiting()
                            && self
                                .regs
                                .thread(r.thread)
                                .is_some_and(|rg| rg.weighted_slowdown == *hi)
                        {
                            *tmax = r.thread;
                            break 'scan;
                        }
                    }
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

    /// Commits the decision outputs and bumps the decision signature
    /// (the controller-visible epoch) when anything that feeds ranking
    /// changed.
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
        if (self.fairness_mode, self.tmax) != before {
            self.decision_sig += 1;
        }
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
        let mut walk: BTreeMap<ThreadId, Walked> = BTreeMap::new();
        for q in sys.channels() {
            for r in q.requests {
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
        let is_column = cmd.is_column();

        // 1a) Bus interference: every other thread with at least one ready
        //     column command loses the data bus for t_bus.
        // 1b) Bank interference: every other thread with a request waiting
        //     on the same bank is delayed by the command latency, amortized
        //     over its BankWaitingParallelism (scaled by γ).
        //
        // Per victim thread, exactly one charge class applies (in priority
        // order), so overlapped waiting is never double-counted:
        //
        // * **bank** — a request of the victim still needs row commands on
        //   the culprit command's bank: charged the command's bank latency
        //   (scaled, amortized over BankWaitingParallelism);
        // * **bus** — the victim has a column-ready (row-hit) request and
        //   the culprit issued a column access: charged `t_bus`;
        // * **slot** — the victim had a bank-ready command this cycle but
        //   lost command-bus arbitration to the culprit: charged one DRAM
        //   cycle. (This covers fairness-mode starvation, where a
        //   deprioritized thread's ready commands lose arbitration for
        //   long stretches without any traffic touching its own bank.)
        //
        // Charging bus + bank simultaneously, as a literal reading of the
        // paper's rules would, double-counts and saturates the estimates
        // (see `ablation_estimate` and DESIGN.md).
        // Classify each victim thread by scanning the channel queue, but
        // short-circuit per-request work a thread's settled class makes
        // irrelevant: once a thread is a bank victim nothing can upgrade
        // it; a bus victim can only upgrade via a row-miss on the
        // culprit's bank; the slot check never needs to run for a thread
        // already classified. Membership is provably identical to the
        // naive per-request chain — each skipped check could only have
        // (re-)added the thread to a class the final retain step removes
        // it from anyway — while skipping most of the expensive row-hit /
        // bank-ready timing queries on deep queues.
        let mut victims = std::mem::take(&mut self.victims);
        let [bank_victims, bus_victims, slot_victims] = &mut victims;
        bank_victims.clear();
        bus_victims.clear();
        slot_victims.clear();
        for r in q.requests {
            if r.thread == req.thread || !r.is_waiting() {
                continue;
            }
            if bank_victims.contains(&r.thread) {
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
        for &t in bus_victims.iter() {
            let regs = self.regs.thread_mut(t);
            let delta = scale(tbus_cpu as i64, regs.stall_rate);
            regs.pending_interference += delta;
            self.charge_totals[0] += delta;
        }
        for &t in bank_victims.iter() {
            let regs = self.regs.thread_mut(t);
            let (bwp, rate) = (regs.bank_waiting_parallelism, regs.stall_rate);
            let delta = scale(self.amortize(latency_cpu, bwp), rate);
            self.regs.thread_mut(t).pending_interference += delta;
            self.charge_totals[1] += delta;
        }
        for &t in slot_victims.iter() {
            let regs = self.regs.thread_mut(t);
            // One lost command-bus slot ≈ one DRAM cycle (pre-compensate
            // the ¾ scale so the net charge is a full cycle).
            let delta = scale(CPU_CYCLES_PER_DRAM_CYCLE as i64 * 4 / 3, regs.stall_rate);
            regs.pending_interference += delta;
            self.charge_totals[1] += delta;
        }
        self.victims = victims;

        self.update_own_thread(cmd, req);
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

    /// Interval expiry check; returns `true` when a reset fired (the
    /// caller bumps the estimator generation — every thread's registers
    /// just moved).
    fn maybe_reset_interval(&mut self, now: DramCycle) -> bool {
        let now_cpu = ClockRatio::PAPER.dram_to_cpu(now);
        if now_cpu.saturating_since(self.last_reset_cpu) >= self.config.interval_length {
            self.regs.reset_all_intervals();
            self.last_reset_cpu = now_cpu;
            return true;
        }
        false
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
        if self.maybe_reset_interval(sys.now) {
            self.est_gen += 1;
        }
        self.expire_accessing(sys.now);
        // Publish the hook-maintained aggregates (O(threads), no buffer
        // walk) and recompute the mode decision only when the estimator
        // generation shows one of its inputs moved since the last
        // decision — otherwise every slowdown, the unfairness, and the
        // mode are provably unchanged and the previous outputs are
        // carried.
        self.publish_live();
        self.drain_pending();
        if self.last_decided_gen != Some(self.est_gen) {
            for (_, regs) in self.regs.threads_mut() {
                regs.compute_slowdown();
            }
            self.decide_mode(sys);
            self.last_decided_gen = Some(self.est_gen);
            self.work.decides_recomputed += 1;
        } else {
            self.work.decides_carried += 1;
        }
        #[cfg(debug_assertions)]
        self.audit_incremental(sys);
    }

    fn fast_forward(&mut self, _sys: &SystemView<'_>, cycles: u64) {
        // Replicate the per-cycle pending-interference drain; interval
        // resets are fenced by `next_event_hint`, and everything else
        // `on_dram_cycle` touches is derived state the next real call
        // recomputes before any ranking or sampling reads it. The drain
        // set — threads with a waiting, not-yet-started read — is frozen
        // with the buffers (and tracked live), and each thread's step
        // reads only its own registers, so a per-thread loop of the
        // exact stepped update is bit-identical to interleaved stepping.
        let mut moved = false;
        for t in 0..self.live.len() {
            if self.live[t].depth == 0 {
                continue;
            }
            let regs = self.regs.thread_mut(ThreadId(t as u32));
            for _ in 0..cycles {
                // Fixed point: no charges arrive mid-span and a step
                // that moves nothing leaves the backlog at or under its
                // cap, so all remaining steps are no-ops too.
                if Self::drain_step(regs) == 0 {
                    break;
                }
                moved = true;
            }
        }
        if moved {
            self.est_gen += 1;
        }
    }

    fn next_event_hint(&self) -> Option<DramCycle> {
        // The next interval-reset boundary: the first DRAM cycle whose CPU
        // time reaches `last_reset + interval_length`. Fast-forwards never
        // cross it, so `maybe_reset_interval` is a no-op on every skipped
        // cycle and fires exactly on schedule at the resume tick.
        let due_cpu = self.last_reset_cpu.get() + self.config.interval_length;
        Some(DramCycle::new(due_cpu.div_ceil(CPU_CYCLES_PER_DRAM_CYCLE)))
    }

    fn decision_epoch(&self) -> Option<u64> {
        // Outside fairness mode the rank is plain FR-FCFS; inside it the
        // rank additionally keys on `tmax`. Both are pure functions of
        // the request and the bank's open row once `(fairness_mode,
        // tmax)` is fixed — which is exactly what `decision_sig` tracks —
        // so per-bank winners carry across cycles.
        Some(self.decision_sig)
    }

    fn work_counters(&self) -> Option<PolicyWork> {
        Some(self.work)
    }

    fn on_enqueue(&mut self, req: &Request, tshared: u64) {
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
        // Fold the arrival into the live aggregates.
        let slot = slot_of(req);
        let lt = self.live_mut(req.thread);
        lt.queued += 1;
        if req.kind == AccessKind::Read {
            lt.add_waiting(slot);
        }
        self.est_gen += 1;
        self.work.incremental_updates += 1;
    }

    fn on_command(&mut self, cmd: &DramCommand, req: &Request, q: &SchedQuery<'_>) {
        self.note_command_live(cmd, req, q.now);
        self.update_interference(cmd, req, q);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
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
    use stfm_mc::test_util::{harness, req_to};

    fn stfm() -> Stfm {
        Stfm::new(TimingParams::ddr2_800())
    }

    fn sys_view<'a>(q: SchedQuery<'a>) -> SystemView<'a> {
        SystemView::single(q)
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
        let requests = [old_miss.clone(), young_hit.clone()];
        let q = harness::query(&channel, &requests);
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

        let requests = [r0.clone(), r1.clone()];
        let q = harness::query(&channel, &requests);
        p.on_dram_cycle(&sys_view(q));
        assert!(p.fairness_rule_active());
        assert!(p.unfairness_estimate() > 4.0);

        let q = harness::query(&channel, &requests);
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

        let requests = [r0.clone(), r1.clone()];
        let q = harness::query(&channel, &requests);
        p.on_dram_cycle(&sys_view(q));
        assert!(p.fairness_rule_active(), "1.25 > α = 1.10");

        p.set_alpha(20.0); // system software disables fairness enforcement
        let q = harness::query(&channel, &requests);
        p.on_dram_cycle(&sys_view(q));
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

        let requests = [
            victim_same_bank.clone(),
            victim_bus.clone(),
            culprit.clone(),
        ];
        let q = harness::query(&channel, &requests);
        p.on_dram_cycle(&sys_view(q));

        // Culprit's read issues on bank 0 (row hit).
        let mut served = culprit.clone();
        served.category = Some(AccessCategory::Hit);
        let cmd = DramCommand::read(served.loc.bank, 5, 0);
        let q = harness::query(&channel, &requests);
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
        let requests = [spoiled.clone()];
        let q = harness::query(&channel, &requests);
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
        let requests = [lucky.clone()];
        let q = harness::query(&channel, &requests);
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

        let requests = [r0.clone(), r1.clone()];
        let q = harness::query(&channel, &requests);
        p.on_dram_cycle(&sys_view(q));
        assert!(p.fairness_rule_active());
        let q = harness::query(&channel, &requests);
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
        let requests = [r0.clone()];
        let q = harness::query(&channel, &requests);
        p.on_dram_cycle(&sys_view(q)); // now = 1000 DRAM = 10_000 CPU ≥ 1_000
        assert_eq!(p.slowdown_estimate(ThreadId(0)), 1.0);
    }
}

/// The fixed parts of the charge rule, one test each.
#[cfg(test)]
mod charge_rule_tests {
    use super::*;
    use stfm_mc::test_util::{harness, req_to};

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
        let q = harness::query(&channel, &requests);
        p.on_dram_cycle(&SystemView::single(q));
        let mut served = culprit;
        served.category = Some(AccessCategory::Hit);
        let q = harness::query(&channel, &requests);
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
        let requests = [victim.clone()];
        // Charge far faster than one DRAM cycle per cycle drains.
        let mut charged = 0;
        for i in 0..100u64 {
            let mut served = req_to(0, ThreadId(0), 5, 0, 100 + i);
            served.category = Some(AccessCategory::Hit);
            let q = harness::query(&channel, &requests);
            p.on_command(&DramCommand::read(served.loc.bank, 5, 0), &served, &q);
            charged += three_quarter_read();
            let q = harness::query(&channel, &requests);
            p.on_dram_cycle(&SystemView::single(q));
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
}
