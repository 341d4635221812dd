//! The trace-driven core model.
//!
//! Reproduces the performance-relevant behavior of the paper's cores
//! (Table 2): a 128-entry instruction window fed at 3 instructions per
//! cycle (at most one memory operation), in-order commit of up to 3
//! instructions per cycle, private L1/L2 write-back caches, 64 MSHRs, and
//! the stall accounting that defines `Tshared`: a cycle counts as a memory
//! stall when the core cannot commit because the oldest instruction is a
//! load with an outstanding L2 miss.

use crate::cache::{Cache, CacheAccess};
use crate::mshr::{MshrAlloc, MshrFile};
use crate::prefetch::StreamPrefetcher;
use crate::trace::{MemOpKind, TraceOp, TraceSource};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use stfm_dram::{CpuCycle, CpuDelta, PhysAddr, CPU_CYCLES_PER_DRAM_CYCLE, LINE_BYTES};
use stfm_mc::{AccessKind, Completion, MemorySystem, RequestId, ThreadId};

/// Instruction-window (ROB) capacity.
const WINDOW: usize = 128;
/// Instructions fetched, and instructions committed, per cycle.
const WIDTH: u32 = 3;
/// L1 load-to-use latency in CPU cycles.
const L1_LATENCY: CpuDelta = CpuDelta::new(2);
/// L2 hit latency in CPU cycles.
const L2_LATENCY: CpuDelta = CpuDelta::new(12);
/// Miss-status holding registers (bounds memory-level parallelism).
const MSHRS: usize = 64;

/// What a core adds to the paper's Table 2 microarchitecture (a
/// 128-entry window, 3-wide fetch and commit, 2-cycle L1, 12-cycle L2
/// and 64 MSHRs, which are fixed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Whether the core has the hardware stream prefetcher (extension;
    /// the paper's baseline has none).
    pub prefetch: bool,
}

impl CoreConfig {
    /// The paper's configuration: no prefetcher.
    pub const fn paper_baseline() -> Self {
        CoreConfig { prefetch: false }
    }
}

/// Execution statistics of one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// CPU cycles executed.
    pub cycles: u64,
    /// Instructions committed (bubbles + memory ops).
    pub instructions: u64,
    /// Cycles in which commit was blocked by a load with an outstanding
    /// L2 miss — the paper's memory stall time / `Tshared`.
    pub mem_stall_cycles: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Demand L2 misses that allocated a new fill (the MPKI numerator).
    pub l2_misses: u64,
    /// Secondary misses merged into an in-flight fill.
    pub l2_merged: u64,
    /// Dirty L2 evictions written back to DRAM.
    pub writebacks: u64,
    /// Hardware prefetches issued to DRAM.
    pub prefetches: u64,
    /// Demand hits on prefetched lines (useful prefetches).
    pub prefetch_hits: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Memory (stall) cycles per instruction — the paper's MCPI.
    pub fn mcpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem_stall_cycles as f64 / self.instructions as f64
        }
    }

    /// Counter-wise difference `self − earlier`, for excluding a warmup
    /// window from measurements.
    pub fn minus(&self, earlier: &CoreStats) -> CoreStats {
        let (now, then) = (self.counters(), earlier.counters());
        CoreStats::from_counters(std::array::from_fn(|i| now[i] - then[i]))
    }

    /// The ten counters in their one serialization order, shared by
    /// result lines and persisted alone baselines.
    pub fn counters(&self) -> [u64; 10] {
        [
            self.cycles,
            self.instructions,
            self.mem_stall_cycles,
            self.loads,
            self.stores,
            self.l2_misses,
            self.l2_merged,
            self.writebacks,
            self.prefetches,
            self.prefetch_hits,
        ]
    }

    /// The inverse of [`CoreStats::counters`].
    pub fn from_counters(c: [u64; 10]) -> CoreStats {
        CoreStats {
            cycles: c[0],
            instructions: c[1],
            mem_stall_cycles: c[2],
            loads: c[3],
            stores: c[4],
            l2_misses: c[5],
            l2_merged: c[6],
            writebacks: c[7],
            prefetches: c[8],
            prefetch_hits: c[9],
        }
    }

    /// L2 misses per 1000 instructions — the paper's L2 MPKI.
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.instructions as f64
        }
    }
}

#[derive(Debug)]
enum Entry {
    /// `n` non-memory instructions.
    Bubbles(u32),
    Mem(MemEntry),
}

#[derive(Debug)]
struct MemEntry {
    kind: MemOpKind,
    done: bool,
    /// The access missed the L2 and waits on (or waited on) DRAM.
    dram: bool,
}

/// The instruction window, oldest entry first. An entry's id is its push
/// sequence number: ids ascend toward the tail, and a live entry sits at
/// index `id - popped`, so a completion finds its op without a search.
#[derive(Debug)]
struct Window {
    entries: VecDeque<Entry>,
    /// Entries popped from the front so far.
    popped: u64,
}

impl Window {
    fn with_capacity(capacity: usize) -> Self {
        Window {
            entries: VecDeque::with_capacity(capacity),
            popped: 0,
        }
    }

    /// The id the next pushed entry gets.
    fn next_id(&self) -> u64 {
        self.popped + self.entries.len() as u64
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn front(&self) -> Option<&Entry> {
        self.entries.front()
    }

    fn front_mut(&mut self) -> Option<&mut Entry> {
        self.entries.front_mut()
    }

    fn back_mut(&mut self) -> Option<&mut Entry> {
        self.entries.back_mut()
    }

    fn push_back(&mut self, entry: Entry) {
        self.entries.push_back(entry);
    }

    fn pop_front(&mut self) {
        if self.entries.pop_front().is_some() {
            self.popped += 1;
        }
    }

    /// Marks memory op `id` complete. An id below the front committed
    /// already (e.g. a store), and there is nothing to do.
    fn mark_done(&mut self, id: u64) {
        let Some(index) = id.checked_sub(self.popped) else {
            return;
        };
        match self.entries.get_mut(index as usize) {
            Some(Entry::Mem(m)) => m.done = true,
            other => debug_assert!(false, "entry {id} is {other:?}, not a memory op"),
        }
    }
}

/// One CMP core: window, caches, MSHRs, and a trace to execute.
pub struct Core {
    thread: ThreadId,
    trace: Box<dyn TraceSource>,
    l1: Cache,
    l2: Cache,
    mshrs: MshrFile,
    window: Window,
    window_count: usize,
    /// (ready_time, entry id) for L1/L2 hits completing locally.
    local_done: BinaryHeap<Reverse<(CpuCycle, u64)>>,
    /// DRAM fills waiting for their delivery time, with the line each
    /// one carries (ordered by time, then request id).
    dram_done: BinaryHeap<Reverse<(CpuCycle, RequestId, PhysAddr)>>,
    /// Dirty L2 victims awaiting acceptance by the controller.
    pending_writebacks: VecDeque<PhysAddr>,
    /// Back-pressure retry gates. Controller buffer-class occupancy only
    /// decreases when a tick reaps completions ([`MemorySystem::reap_epoch`]
    /// then changes), and the retry order is fixed, so once a send is
    /// rejected, every further attempt at the same reap epoch is provably
    /// rejected identically — the gates elide those attempts, and
    /// [`Core::next_wake`] treats a gated core as inert. The fill gate
    /// additionally stamps the MSHR unsent epoch: a line newly entering
    /// the unsent set was itself just rejected, so the head of the retry
    /// order still rejects and the gate may be restamped rather than
    /// reopened.
    fill_gate: Option<(u64, u64)>,
    wb_gate: Option<u64>,
    /// Generation of the core's memory-side state: bumped whenever the
    /// caches or the MSHR file mutate (a fill lands, an access installs).
    /// Memoizes the pure fetch-stall probe below.
    mem_epoch: u64,
    /// `Some(e)` when [`Core::initiate_mem`] last returned `false` (an
    /// MSHR-full fetch stall) at epoch `e`: the probe is pure, so while
    /// the epoch and the stalled op are unchanged, re-running it must
    /// return `false` again and is skipped.
    fetch_stall: Option<u64>,
    /// Optional hardware prefetcher.
    prefetcher: Option<StreamPrefetcher>,
    /// Cache prefetch-hit counters already folded into `stats`.
    prefetch_hits_seen: u64,
    /// Partially fetched trace record.
    cur_op: Option<TraceOp>,
    /// Id of the most recently fetched DRAM-bound (L2-miss) memory op and
    /// whether it has completed — dependence tracking for pointer-chase
    /// traces. Cache-hitting ops do not participate: a dependent miss
    /// chains on the previous *miss*.
    last_dram_id: Option<u64>,
    last_dram_done: bool,
    now: CpuCycle,
    stats: CoreStats,
    /// CPU cycles advanced in closed form by `compute_run`.
    compute_run_cycles: u64,
}

impl Core {
    /// Creates a core for `thread` executing `trace` with the paper's
    /// baseline microarchitecture.
    pub fn new(thread: ThreadId, trace: Box<dyn TraceSource>) -> Self {
        Self::with_config(thread, trace, CoreConfig::paper_baseline())
    }

    /// Creates a core with an explicit configuration.
    pub fn with_config(thread: ThreadId, trace: Box<dyn TraceSource>, cfg: CoreConfig) -> Self {
        Core {
            thread,
            trace,
            l1: Cache::l1_paper(),
            l2: Cache::l2_paper(),
            mshrs: MshrFile::new(MSHRS),
            window: Window::with_capacity(WINDOW),
            window_count: 0,
            local_done: BinaryHeap::new(),
            dram_done: BinaryHeap::new(),
            pending_writebacks: VecDeque::new(),
            fill_gate: None,
            wb_gate: None,
            mem_epoch: 0,
            fetch_stall: None,
            prefetcher: cfg.prefetch.then(StreamPrefetcher::default),
            prefetch_hits_seen: 0,
            cur_op: None,
            last_dram_id: None,
            last_dram_done: true,
            now: CpuCycle::ZERO,
            stats: CoreStats::default(),
            compute_run_cycles: 0,
        }
    }

    /// The core's thread id.
    #[inline]
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Trace label (benchmark name).
    pub fn label(&self) -> &str {
        self.trace.label()
    }

    /// Execution statistics so far.
    #[inline]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Current CPU cycle.
    #[inline]
    pub fn now(&self) -> CpuCycle {
        self.now
    }

    /// CPU cycles [`Core::advance_dram_cycle`] advanced as closed-form
    /// compute runs instead of [`Core::step`] calls (0 for a core driven
    /// by `step` alone). Lets tests confirm the path engages on
    /// compute-bound traces and stays out of memory-bound ones.
    #[inline]
    pub fn compute_run_cycles(&self) -> u64 {
        self.compute_run_cycles
    }

    /// Queues a DRAM completion for delivery at its `finish_cpu` time.
    /// The simulator routes [`Completion`]s from the memory system to the
    /// owning core through this method.
    pub fn push_completion(&mut self, c: Completion) {
        if c.kind == AccessKind::Write {
            return; // writebacks are fire-and-forget
        }
        self.dram_done.push(Reverse((c.finish_cpu, c.id, c.addr)));
    }

    /// Inertness probe for the dead-cycle fast-forward path.
    ///
    /// Returns `None` when the core is *active*: the next [`Core::step`]
    /// may change architectural state (commit, fetch, or send a request),
    /// so it must execute for real. Returns `Some(w)` when the core is
    /// provably inert: every cycle strictly before `w` only advances the
    /// clock and the memory-stall counter, both of which
    /// [`Core::fast_forward`] replicates exactly. `w` is the earliest
    /// queued completion-delivery time ([`CpuCycle::MAX`] when the core
    /// waits on a DRAM fill that has not completed yet).
    ///
    /// Inert means, mirroring [`Core::step`] stage by stage: no unsent
    /// fill or writeback retries that could succeed (pending sends whose
    /// retry gate is closed at `mem`'s current reap epoch are provably
    /// futile, hence inert — the caller must not carry the verdict past
    /// a tick that reaps completions, which reopens the gates); commit
    /// blocked (empty window or an incomplete memory op at the head); and
    /// fetch blocked (window full, a dependence chain on an outstanding
    /// miss, or an MSHR-full stall — the latter re-checked here with the
    /// same non-mutating probes `step` uses).
    pub fn next_wake(&self, mem: &MemorySystem) -> Option<CpuCycle> {
        if self.retry_due(mem) {
            return None;
        }
        match self.window.front() {
            None => {}
            Some(Entry::Mem(e)) if !e.done => {}
            Some(_) => return None, // bubbles or a done op would commit
        }
        if self.window_count < WINDOW {
            let Some(op) = &self.cur_op else {
                return None; // would pull a fresh trace record
            };
            if op.bubbles > 0 {
                return None; // would insert bubbles into the window
            }
            let dep_blocked = op.dependent && !self.last_dram_done;
            let mshr_blocked = || {
                // Memoized verdict first (pure probe, unchanged inputs).
                self.fetch_stall == Some(self.mem_epoch) || {
                    let line = op.addr.line_aligned();
                    !self.l1.probe(op.addr)
                        && !self.l2.probe(op.addr)
                        && self.mshrs.is_full()
                        && !self.mshrs.would_merge(line)
                }
            };
            if !dep_blocked && !mshr_blocked() {
                return None;
            }
        }
        Some(self.next_completion().unwrap_or(CpuCycle::MAX))
    }

    /// Delivery time of the earliest queued local or DRAM completion.
    fn next_completion(&self) -> Option<CpuCycle> {
        let local = self.local_done.peek().map(|Reverse((t, _))| *t);
        let dram = self.dram_done.peek().map(|Reverse((t, ..))| *t);
        match (local, dram) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// True when a fill or writeback send is pending behind an open retry
    /// gate, i.e. the next [`Core::step`] will attempt it.
    fn retry_due(&self, mem: &MemorySystem) -> bool {
        self.fill_retry_due(mem) || self.writeback_retry_due(mem)
    }

    fn fill_retry_due(&self, mem: &MemorySystem) -> bool {
        self.mshrs.has_unsent()
            && self.fill_gate != Some((mem.reap_epoch(), self.mshrs.unsent_epoch()))
    }

    fn writeback_retry_due(&self, mem: &MemorySystem) -> bool {
        !self.pending_writebacks.is_empty() && self.wb_gate != Some(mem.reap_epoch())
    }

    /// Replicates `cycles` consecutive [`Core::step`] calls across an
    /// inert span. The caller must have established via
    /// [`Core::next_wake`] that the core is inert (at `mem`'s current
    /// reap epoch) and that every skipped cycle lies strictly before the
    /// wake time. Only the per-cycle residue is performed: the clock, the
    /// cycle counter, and the paper's memory-stall accounting (the
    /// head-of-window condition is frozen across the span, so it either
    /// charges every cycle or none).
    pub fn fast_forward(&mut self, cycles: u64, mem: &MemorySystem) {
        debug_assert!(
            self.next_wake(mem).is_some_and(|w| self.now + cycles < w),
            "fast-forwarding an active core or across its wake time"
        );
        self.now += cycles;
        self.stats.cycles += cycles;
        if self.stalled_on_memory() {
            self.stats.mem_stall_cycles += cycles;
        }
    }

    /// The paper's memory-stall condition (its Tshared) for a cycle that
    /// commits nothing: the oldest instruction is a load waiting on DRAM.
    fn stalled_on_memory(&self) -> bool {
        matches!(
            self.window.front(),
            Some(Entry::Mem(e)) if !e.done && e.dram && e.kind == MemOpKind::Load
        )
    }

    /// Advances the core by one DRAM cycle's worth of CPU cycles
    /// ([`CPU_CYCLES_PER_DRAM_CYCLE`]), fast-forwarding the provably
    /// inert prefix and stepping the remainder for real.
    ///
    /// `wake` must be the [`Core::next_wake`] verdict computed against
    /// `mem`'s current state. `None` (active core) steps every cycle;
    /// `Some(w)` skips the cycles strictly before `w` in one
    /// [`Core::fast_forward`] and steps from the wake cycle on — so a
    /// completion landing mid-cycle no longer costs a full
    /// [`CPU_CYCLES_PER_DRAM_CYCLE`] of no-op steps, and a wake beyond
    /// the cycle boundary collapses to a pure fast-forward.
    ///
    /// The stepped remainder takes runs of pure-compute cycles in closed
    /// form (`compute_run`, counted by [`Core::compute_run_cycles`]) and
    /// calls [`Core::step`] for the rest.
    pub fn advance_dram_cycle(&mut self, wake: Option<CpuCycle>, mem: &mut MemorySystem) {
        let mut left = CPU_CYCLES_PER_DRAM_CYCLE;
        if let Some(w) = wake {
            // fast_forward requires every skipped cycle strictly before
            // `w`: the largest legal skip is `w - now - 1`.
            let skip = w.get().saturating_sub(self.now.get() + 1).min(left);
            if skip > 0 {
                self.fast_forward(skip, mem);
                left -= skip;
            }
        }
        while left > 0 {
            let run = self.compute_run(left, mem);
            if run == 0 {
                self.step(mem);
                left -= 1;
            } else {
                left -= run;
            }
        }
    }

    /// Replicates up to `max` consecutive [`Core::step`] calls that only
    /// move bubbles — [`WIDTH`] committed from the head of the window and
    /// [`WIDTH`] fetched onto its tail per cycle, nothing else — as one
    /// update, and returns how many cycles it covered (0 when the next
    /// cycle is not of that kind). A cycle qualifies when, stage by stage
    /// of `step`: (1) no local or DRAM completion is due; (2) no send
    /// retry would be attempted (nothing pending, or its gate is closed
    /// at `mem`'s reap epoch, which cannot change between memory ticks);
    /// (3) the head of the window is a bubble run that alone fills the
    /// commit width, so no memory op commits and (4) no stall is charged;
    /// (5) the trace record being fetched still has a full fetch width of
    /// bubbles, so no memory op is initiated. The window's occupancy is
    /// unchanged by such a cycle (it fetches as many as it commits), so
    /// fetch always has room. The prefetch-hit fold between stages 4
    /// and 5 does run, once: no cache is touched during the run, so the
    /// later folds would add zero.
    fn compute_run(&mut self, max: u64, mem: &MemorySystem) -> u64 {
        let (Some(&Entry::Bubbles(head)), Some(op)) = (self.window.front(), self.cur_op) else {
            return 0;
        };
        // A lone bubble run is head and tail at once: it only needs to
        // cover one cycle's commit, since fetch refills it every cycle.
        let lone = self.window.len() == 1;
        let head_cycles = match lone {
            true if head >= WIDTH => max,
            true => 0,
            false => u64::from(head / WIDTH),
        };
        // A completion at `t` is delivered by the cycle that reaches `t`:
        // the cycles strictly before it are free of them.
        let undisturbed = self
            .next_completion()
            .map_or(max, |t| t.get().saturating_sub(self.now.get() + 1));
        let cycles = max
            .min(head_cycles)
            .min(u64::from(op.bubbles / WIDTH))
            .min(undisturbed);
        if cycles == 0 || self.retry_due(mem) {
            return 0;
        }

        // `cycles <= max <= CPU_CYCLES_PER_DRAM_CYCLE`, so this fits.
        let moved = cycles as u32 * WIDTH;
        self.cur_op = Some(TraceOp {
            bubbles: op.bubbles - moved,
            ..op
        });
        if !lone {
            match self.window.front_mut() {
                Some(Entry::Bubbles(n)) if *n > moved => *n -= moved,
                _ => {
                    self.window.pop_front();
                }
            }
            match self.window.back_mut() {
                Some(Entry::Bubbles(n)) => *n += moved,
                _ => self.window.push_back(Entry::Bubbles(moved)),
            }
        }
        self.now += cycles;
        self.stats.cycles += cycles;
        self.stats.instructions += u64::from(moved);
        self.fold_prefetch_hits();
        self.compute_run_cycles += cycles;
        cycles
    }

    /// Folds newly observed demand-hits-on-prefetched-lines into stats.
    fn fold_prefetch_hits(&mut self) {
        let cache_hits = self.l1.prefetch_hits + self.l2.prefetch_hits;
        self.stats.prefetch_hits += cache_hits - self.prefetch_hits_seen;
        self.prefetch_hits_seen = cache_hits;
    }

    /// Executes one CPU cycle against the shared memory system.
    pub fn step(&mut self, mem: &mut MemorySystem) {
        self.now += 1;
        self.stats.cycles += 1;
        let now = self.now;

        // 1. Deliver due local (cache-hit) completions.
        while let Some(&Reverse((t, id))) = self.local_done.peek() {
            if t > now {
                break;
            }
            self.local_done.pop();
            // A cache hit never heads the dependence chain: only fills
            // (`finish_fill`) can complete `last_dram_id`.
            self.window.mark_done(id);
        }
        // ... and due DRAM completions.
        while let Some(&Reverse((t, _, line))) = self.dram_done.peek() {
            if t > now {
                break;
            }
            self.dram_done.pop();
            self.finish_fill(line);
        }

        // 2. Retry sends that hit back-pressure: fills first, then
        //    writebacks. Each class retries at most once per DRAM cycle
        //    (see the gate fields): a failed attempt closes its gate
        //    until the memory clock advances.
        if self.fill_retry_due(mem) {
            while let Some(line) = self.mshrs.first_unsent() {
                if mem
                    .try_enqueue(
                        self.thread,
                        AccessKind::Read,
                        line,
                        now,
                        self.stats.mem_stall_cycles,
                    )
                    .is_some()
                {
                    self.mshrs.mark_sent(line);
                } else {
                    self.fill_gate = Some((mem.reap_epoch(), self.mshrs.unsent_epoch()));
                    break;
                }
            }
        }
        if self.writeback_retry_due(mem) {
            while let Some(&wb) = self.pending_writebacks.front() {
                if mem
                    .try_enqueue(
                        self.thread,
                        AccessKind::Write,
                        wb,
                        now,
                        self.stats.mem_stall_cycles,
                    )
                    .is_some()
                {
                    self.pending_writebacks.pop_front();
                } else {
                    self.wb_gate = Some(mem.reap_epoch());
                    break;
                }
            }
        }

        // 3. In-order commit.
        let mut committed = 0u32;
        while committed < WIDTH {
            match self.window.front_mut() {
                None => break,
                Some(Entry::Bubbles(n)) => {
                    let take = (*n).min(WIDTH - committed);
                    *n -= take;
                    committed += take;
                    if *n == 0 {
                        self.window.pop_front();
                    }
                }
                Some(Entry::Mem(e)) if e.done => {
                    committed += 1;
                    self.window.pop_front();
                }
                Some(Entry::Mem(_)) => break,
            }
        }
        self.window_count -= committed as usize;
        self.stats.instructions += u64::from(committed);

        // 4. Memory-stall accounting (the paper's Tshared).
        if committed == 0 && self.stalled_on_memory() {
            self.stats.mem_stall_cycles += 1;
        }

        self.fold_prefetch_hits();

        // 5. Fetch.
        let mut fetched = 0u32;
        let mut mem_fetched = false;
        while fetched < WIDTH && self.window_count < WINDOW {
            let op = self.cur_op.get_or_insert_with(|| self.trace.next_op());
            if op.bubbles > 0 {
                let take = op
                    .bubbles
                    .min(WIDTH - fetched)
                    .min((WINDOW - self.window_count) as u32);
                op.bubbles -= take;
                fetched += take;
                self.window_count += take as usize;
                match self.window.back_mut() {
                    Some(Entry::Bubbles(n)) => *n += take,
                    _ => self.window.push_back(Entry::Bubbles(take)),
                }
            } else {
                if mem_fetched {
                    break; // one memory op per cycle
                }
                if op.dependent && !self.last_dram_done {
                    break; // pointer chase: wait for the previous miss
                }
                if self.fetch_stall == Some(self.mem_epoch) {
                    // The stall probe is pure and nothing it reads has
                    // changed since it last said "blocked": still blocked.
                    break;
                }
                let op = *op;
                if !self.initiate_mem(op, mem) {
                    break; // MSHRs full: fetch stalls
                }
                self.cur_op = None;
                fetched += 1;
                self.window_count += 1;
                mem_fetched = true;
            }
        }
    }

    /// Starts a memory operation: cache lookups, MSHR allocation, request
    /// dispatch, and window insertion. Returns `false` when the MSHR file
    /// is exhausted and the op cannot enter the window yet.
    fn initiate_mem(&mut self, op: TraceOp, mem: &mut MemorySystem) -> bool {
        let is_store = op.kind == MemOpKind::Store;
        let line = op.addr.line_aligned();

        // Decide the path without mutating, so an MSHR-full stall does not
        // double-count cache statistics on retry.
        let l1_hit = self.l1.probe(op.addr);
        let l2_hit = l1_hit || self.l2.probe(op.addr);
        if !l2_hit && self.mshrs.is_full() && !self.mshrs.would_merge(line) {
            self.fetch_stall = Some(self.mem_epoch);
            return false;
        }
        // Every success path below mutates a cache or the MSHR file:
        // invalidate the memoized stall probe.
        self.mem_epoch += 1;

        let id = self.window.next_id();
        if is_store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }

        let mut entry = MemEntry {
            kind: op.kind,
            done: is_store, // stores retire via the store buffer
            dram: false,
        };

        match self.l1.access(op.addr, is_store) {
            CacheAccess::Hit => {
                if !is_store {
                    self.local_done.push(Reverse((self.now + L1_LATENCY, id)));
                }
            }
            CacheAccess::Miss => match self.l2.access(op.addr, false) {
                CacheAccess::Hit => {
                    self.fill_l1(op.addr, is_store);
                    if !is_store {
                        self.local_done.push(Reverse((self.now + L2_LATENCY, id)));
                    }
                }
                CacheAccess::Miss => {
                    entry.dram = true;
                    self.last_dram_id = Some(id);
                    self.last_dram_done = false;
                    match self.mshrs.allocate(line, id, is_store) {
                        MshrAlloc::NewEntry => {
                            self.stats.l2_misses += 1;
                            if mem
                                .try_enqueue(
                                    self.thread,
                                    AccessKind::Read,
                                    line,
                                    self.now,
                                    self.stats.mem_stall_cycles,
                                )
                                .is_some()
                            {
                                self.mshrs.mark_sent(line);
                            } else {
                                // Left unsent; the rejection just observed
                                // holds until the next reap, so the step-2
                                // retry is gated too.
                                self.fill_gate =
                                    Some((mem.reap_epoch(), self.mshrs.unsent_epoch()));
                            }
                            self.maybe_prefetch(line, mem);
                        }
                        MshrAlloc::Merged => self.stats.l2_merged += 1,
                        MshrAlloc::Full => unreachable!("checked above"),
                    }
                }
            },
        }
        self.window.push_back(Entry::Mem(entry));
        true
    }

    /// Trains the prefetcher on a demand miss and launches the resulting
    /// prefetch fills (line-granular, no instruction waits on them).
    fn maybe_prefetch(&mut self, miss_line: PhysAddr, mem: &mut MemorySystem) {
        let Some(pf) = &mut self.prefetcher else {
            return;
        };
        let lb = u64::from(LINE_BYTES);
        let targets = pf.train(miss_line.0 / lb);
        for line_idx in targets {
            let addr = PhysAddr(line_idx * lb);
            if self.l2.probe(addr) || self.l1.probe(addr) {
                continue; // already resident
            }
            if !self.mshrs.allocate_prefetch(addr) {
                continue; // in flight or MSHRs exhausted
            }
            self.stats.prefetches += 1;
            if mem
                .try_enqueue(
                    self.thread,
                    AccessKind::Read,
                    addr,
                    self.now,
                    self.stats.mem_stall_cycles,
                )
                .is_some()
            {
                self.mshrs.mark_sent(addr);
            } else {
                // Retried by the unsent path in step 2 — but not before
                // the next reap (see the gate protocol).
                self.fill_gate = Some((mem.reap_epoch(), self.mshrs.unsent_epoch()));
            }
        }
    }

    /// Installs a line into the L1, spilling dirty victims into the L2.
    fn fill_l1(&mut self, addr: PhysAddr, dirty: bool) {
        if let Some(ev) = self.l1.install(addr, dirty) {
            if ev.dirty {
                // Write the victim into the L2 (non-inclusive hierarchy).
                if self.l2.access(ev.addr, true) == CacheAccess::Miss {
                    if let Some(ev2) = self.l2.install(ev.addr, true) {
                        if ev2.dirty {
                            self.stats.writebacks += 1;
                            self.pending_writebacks.push_back(ev2.addr);
                        }
                    }
                }
            }
        }
    }

    /// Handles the DRAM fill of `line` that reached its delivery time.
    fn finish_fill(&mut self, line: PhysAddr) {
        let Core {
            mshrs,
            window,
            last_dram_id,
            last_dram_done,
            ..
        } = self;
        let wake = |id| {
            *last_dram_done |= *last_dram_id == Some(id);
            window.mark_done(id);
        };
        let Some(fill) = mshrs.complete(line, wake) else {
            return;
        };
        // The MSHR is freed, its waiters are done, and the caches install
        // below.
        self.mem_epoch += 1;
        // An untouched prefetch installs into the L2 only, tagged so a
        // later demand hit counts it as useful. A prefetch that a demand
        // access merged into was *late but useful*: credit it directly.
        let untouched_prefetch = fill.prefetch && fill.waiters == 0;
        if fill.prefetch && fill.waiters > 0 {
            self.stats.prefetch_hits += 1;
        }
        if let Some(ev) = self
            .l2
            .install_with(line, fill.any_store, untouched_prefetch)
        {
            if ev.dirty {
                self.stats.writebacks += 1;
                self.pending_writebacks.push_back(ev.addr);
            }
        }
        if !untouched_prefetch {
            self.fill_l1(line, fill.any_store);
        }
    }
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("thread", &self.thread)
            .field("trace", &self.trace.label())
            .field("now", &self.now)
            .field("instructions", &self.stats.instructions)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecTrace;
    use stfm_dram::ClockRatio;
    use stfm_dram::DramConfig;
    use stfm_mc::FrFcfs;

    fn mem() -> MemorySystem {
        MemorySystem::new(
            DramConfig {
                refresh_enabled: false,
                ..DramConfig::ddr2_800()
            },
            Box::new(FrFcfs::new()),
        )
    }

    fn run(core: &mut Core, mem: &mut MemorySystem, cpu_cycles: u64) {
        for c in 0..cpu_cycles {
            if c % 10 == 0 {
                mem.tick(ClockRatio::PAPER.cpu_to_dram(CpuCycle::new(c)));
                for comp in mem.drain_completions() {
                    core.push_completion(comp);
                }
            }
            core.step(mem);
        }
    }

    #[test]
    fn pure_bubbles_run_at_full_width() {
        let mut core = Core::new(
            ThreadId(0),
            Box::new(VecTrace::new("bub", vec![TraceOp::load(0, 1_000_000)])),
        );
        let mut m = mem();
        run(&mut core, &mut m, 1000);
        // 3-wide fetch/commit: IPC approaches 3.
        assert!(core.stats().ipc() > 2.8, "ipc = {}", core.stats().ipc());
        assert_eq!(core.stats().mem_stall_cycles, 0);
    }

    #[test]
    fn repeated_line_hits_in_l1_after_first_fill() {
        // Same line over and over: one DRAM fill, then L1 hits.
        let mut core = Core::new(
            ThreadId(0),
            Box::new(VecTrace::new("hot", vec![TraceOp::load(0x40, 10)])),
        );
        let mut m = mem();
        run(&mut core, &mut m, 5000);
        assert_eq!(core.stats().l2_misses, 1);
        assert!(core.stats().instructions > 1000);
        assert!(core.stats().l2_mpki() < 1.0);
    }

    #[test]
    fn streaming_misses_go_to_dram_and_stall() {
        // Pointer-chase-like: every access a new line, zero bubbles →
        // every load is an L2 miss and the core stalls on DRAM.
        let ops: Vec<_> = (0..4096u64)
            .map(|i| TraceOp::load(i * 64 * 97, 0))
            .collect();
        let mut core = Core::new(ThreadId(0), Box::new(VecTrace::new("strm", ops)));
        let mut m = mem();
        run(&mut core, &mut m, 20_000);
        let s = core.stats();
        assert!(s.l2_misses > 50, "misses = {}", s.l2_misses);
        assert!(
            s.mem_stall_cycles > s.cycles / 4,
            "stalls = {}",
            s.mem_stall_cycles
        );
        assert!(s.mcpi() > 1.0, "mcpi = {}", s.mcpi());
    }

    #[test]
    fn stores_do_not_block_commit() {
        let ops: Vec<_> = (0..4096u64)
            .map(|i| TraceOp::store(i * 64 * 97, 2))
            .collect();
        let mut core = Core::new(ThreadId(0), Box::new(VecTrace::new("st", ops)));
        let mut m = mem();
        run(&mut core, &mut m, 20_000);
        assert_eq!(core.stats().mem_stall_cycles, 0);
        assert!(core.stats().instructions > 1000);
    }

    #[test]
    fn mlp_is_bounded_by_window_and_mshrs() {
        // Independent misses: the window (128) lets many misses overlap.
        let ops: Vec<_> = (0..4096u64)
            .map(|i| TraceOp::load(i * 64 * 97, 30))
            .collect();
        let mut core = Core::new(ThreadId(0), Box::new(VecTrace::new("mlp", ops)));
        let mut m = mem();
        run(&mut core, &mut m, 30_000);
        let s = *core.stats();
        // With ~31 instructions per miss and a 128-entry window, about 4
        // misses can be in flight; far better than serialized misses.
        let serialized_time = s.l2_misses * 200; // ≥ 50 ns each
        assert!(
            s.cycles < serialized_time,
            "no MLP: {} cycles for {} misses",
            s.cycles,
            s.l2_misses
        );
    }

    #[test]
    fn writebacks_are_generated_by_dirty_evictions() {
        // Store-stream larger than L2: lines become dirty, get evicted,
        // and must be written back.
        let ops: Vec<_> = (0..40_000u64).map(|i| TraceOp::store(i * 64, 0)).collect();
        let mut core = Core::new(ThreadId(0), Box::new(VecTrace::new("wb", ops)));
        let mut m = mem();
        run(&mut core, &mut m, 400_000);
        assert!(
            core.stats().writebacks > 100,
            "writebacks = {}",
            core.stats().writebacks
        );
        let st = m.thread_stats(ThreadId(0));
        assert!(st.writes > 0, "controller saw no writes");
    }
}

#[cfg(test)]
mod dependence_tests {
    use super::*;
    use crate::trace::VecTrace;
    use stfm_dram::ClockRatio;
    use stfm_dram::DramConfig;
    use stfm_mc::FrFcfs;

    fn run_insts(ops: Vec<TraceOp>, budget: u64) -> CoreStats {
        let mut core = Core::new(ThreadId(0), Box::new(VecTrace::new("dep", ops)));
        let mut m = MemorySystem::new(
            DramConfig {
                refresh_enabled: false,
                ..DramConfig::ddr2_800()
            },
            Box::new(FrFcfs::new()),
        );
        let mut cycle = 0u64;
        while core.stats().instructions < budget {
            if cycle.is_multiple_of(10) {
                m.tick(ClockRatio::PAPER.cpu_to_dram(CpuCycle::new(cycle)));
                for comp in m.drain_completions() {
                    core.push_completion(comp);
                }
            }
            core.step(&mut m);
            cycle += 1;
            assert!(cycle < 50_000_000, "core wedged");
        }
        *core.stats()
    }

    #[test]
    fn dependent_chain_is_much_slower_than_independent_misses() {
        let independent: Vec<_> = (0..4096u64)
            .map(|i| TraceOp::load(i * 64 * 97, 4))
            .collect();
        let dependent: Vec<_> = (0..4096u64)
            .map(|i| TraceOp::load(i * 64 * 97, 4).dependent())
            .collect();
        let fast = run_insts(independent, 5_000);
        let slow = run_insts(dependent, 5_000);
        assert!(
            slow.cycles as f64 > fast.cycles as f64 * 2.0,
            "dependence must serialize misses: {} vs {} cycles",
            slow.cycles,
            fast.cycles
        );
        assert!(slow.mcpi() > fast.mcpi() * 2.0);
    }
}

#[cfg(test)]
mod prefetch_integration_tests {
    use super::*;
    use crate::trace::VecTrace;
    use stfm_dram::ClockRatio;
    use stfm_dram::DramConfig;
    use stfm_mc::FrFcfs;

    fn run_core(prefetch: bool, ops: Vec<TraceOp>, budget: u64) -> CoreStats {
        let cfg = CoreConfig { prefetch };
        let mut core = Core::with_config(ThreadId(0), Box::new(VecTrace::new("p", ops)), cfg);
        let mut mem = MemorySystem::new(
            DramConfig {
                refresh_enabled: false,
                ..DramConfig::ddr2_800()
            },
            Box::new(FrFcfs::new()),
        );
        let mut cycle = 0u64;
        while core.stats().instructions < budget {
            if cycle.is_multiple_of(10) {
                mem.tick(ClockRatio::PAPER.cpu_to_dram(CpuCycle::new(cycle)));
                for c in mem.drain_completions() {
                    core.push_completion(c);
                }
            }
            core.step(&mut mem);
            cycle += 1;
            assert!(cycle < 100_000_000);
        }
        *core.stats()
    }

    #[test]
    fn prefetcher_accelerates_dependent_streams() {
        // A dependent sequential-line walk cannot overlap its own misses,
        // so the stream prefetcher's fills are pure win.
        let ops: Vec<_> = (0..50_000u64)
            .map(|i| TraceOp::load(i * 64, 10).dependent())
            .collect();
        let off = run_core(false, ops.clone(), 40_000);
        let on = run_core(true, ops, 40_000);
        assert!(on.prefetches > 100, "prefetches = {}", on.prefetches);
        assert!(
            on.prefetch_hits * 2 > on.prefetches,
            "useless prefetching: {} useful of {}",
            on.prefetch_hits,
            on.prefetches
        );
        assert!(
            on.mcpi() < off.mcpi() * 0.8,
            "prefetching must cut stalls: {} vs {}",
            on.mcpi(),
            off.mcpi()
        );
    }

    #[test]
    fn prefetcher_stays_quiet_on_random_traffic() {
        let ops: Vec<_> = (0..50_000u64)
            .map(|i| TraceOp::load(((i.wrapping_mul(2654435761)) % (1 << 30)) & !63, 10))
            .collect();
        let on = run_core(true, ops, 30_000);
        // A handful of accidental stride pairs are fine; a flood is not.
        assert!(
            on.prefetches < on.l2_misses / 4,
            "{} prefetches for {} misses",
            on.prefetches,
            on.l2_misses
        );
    }
}

#[cfg(test)]
mod compute_run_tests {
    use super::*;
    use crate::trace::VecTrace;
    use stfm_dram::rng::SmallRng;
    use stfm_dram::{DramConfig, DramCycle};
    use stfm_mc::{ControllerConfig, FrFcfs};

    /// Trace shapes, each aimed at one way a compute run can end or must
    /// not start.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        /// Bubble runs of every length between far load and store misses
        /// (low MPKI): runs span whole DRAM cycles, and fills come due in
        /// the middle of them.
        BubbleHeavy,
        /// A hot set that hits in the L1 every few instructions: runs are
        /// cut by 2-cycle local completions and short bubble counts.
        L1Hits,
        /// Dependent misses: fetch blocks behind the previous miss.
        DependentChain,
        /// Sequential lines with the stream prefetcher on: a demand hit on
        /// a prefetched line folds into `CoreStats` on the cycle after
        /// the access, which may be the first of a run.
        Prefetched,
        /// Bursts of stores to lines that all fall in one L2 set, into
        /// tiny controller buffers, then a long bubble run: every fill
        /// evicts a dirty line, and the unsent fills and the writebacks
        /// wait behind closed and reopening retry gates while the head of
        /// the window is all bubbles.
        StoreBursts,
        /// No bubbles at all: a compute run must never start.
        ZeroBubble,
    }

    fn trace(shape: Shape, rng: &mut SmallRng) -> Vec<TraceOp> {
        let far = |rng: &mut SmallRng| rng.random_range(0u64..1 << 22) * 64;
        (0..6_000u64)
            .map(|i| match shape {
                Shape::BubbleHeavy => {
                    let bubbles = rng.random_range(20u32..700);
                    match rng.random_range(0u32..3) {
                        0 => TraceOp::store(far(rng), bubbles),
                        _ => TraceOp::load(far(rng), bubbles),
                    }
                }
                Shape::L1Hits if rng.random_range(0u32..40) == 0 => TraceOp::load(far(rng), 3),
                Shape::L1Hits => {
                    let addr = rng.random_range(0u64..16) * 64;
                    let bubbles = rng.random_range(0u32..14);
                    match rng.random_range(0u32..4) {
                        0 => TraceOp::store(addr, bubbles),
                        _ => TraceOp::load(addr, bubbles),
                    }
                }
                Shape::DependentChain => {
                    TraceOp::load(far(rng), rng.random_range(0u32..60)).dependent()
                }
                Shape::Prefetched => {
                    // Short gaps make a prefetch late (the demand access
                    // merges into it); long ones let it land first.
                    let bubbles = match rng.random_range(0u32..2) {
                        0 => rng.random_range(4u32..40),
                        _ => rng.random_range(300u32..900),
                    };
                    TraceOp::load(i * 64, bubbles)
                }
                Shape::StoreBursts => {
                    let bubbles = match i % 24 {
                        0 => rng.random_range(15_000u32..30_000),
                        _ => 0,
                    };
                    TraceOp::store(i * 64 * 1024, bubbles)
                }
                Shape::ZeroBubble => TraceOp::load(far(rng), 0),
            })
            .collect()
    }

    fn system(shape: Shape, ops: Vec<TraceOp>) -> (Core, MemorySystem) {
        let cfg = CoreConfig {
            prefetch: shape == Shape::Prefetched,
        };
        let ctrl = match shape {
            Shape::StoreBursts => ControllerConfig {
                read_capacity: 8,
                write_capacity: 2,
                // Above the capacity: no drain mode, so writes wait for
                // the reads to run out and the writebacks queue up.
                drain_high: 3,
                drain_low: 1,
            },
            _ => ControllerConfig::paper_baseline(),
        };
        let mem = MemorySystem::with_controller_config(
            DramConfig::ddr2_800(),
            ctrl,
            Box::new(FrFcfs::new()),
        );
        let core = Core::with_config(ThreadId(0), Box::new(VecTrace::new("t", ops)), cfg);
        (core, mem)
    }

    /// Runs one trace on two identical systems — one advanced by
    /// [`Core::advance_dram_cycle`], one by ten [`Core::step`] calls per
    /// DRAM cycle — and compares everything a run loop can observe after
    /// every DRAM cycle. Returns the share of CPU cycles the first core
    /// took as compute runs.
    fn check(shape: Shape, seed: u64, dram_cycles: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(0xC0DE_0000 ^ seed);
        let ops = trace(shape, &mut rng);
        let (mut fast, mut fast_mem) = system(shape, ops.clone());
        let (mut slow, mut slow_mem) = system(shape, ops);
        for c in 0..dram_cycles {
            for (core, mem) in [(&mut fast, &mut fast_mem), (&mut slow, &mut slow_mem)] {
                mem.tick(DramCycle::new(c));
                for done in mem.drain_completions() {
                    core.push_completion(done);
                }
            }
            // Both entry forms: the inertness verdict, and "step it all".
            let wake = match rng.random_range(0u32..3) {
                0 => None,
                _ => fast.next_wake(&fast_mem),
            };
            fast.advance_dram_cycle(wake, &mut fast_mem);
            for _ in 0..CPU_CYCLES_PER_DRAM_CYCLE {
                slow.step(&mut slow_mem);
            }
            let at = format!("{shape:?}, seed {seed}, DRAM cycle {c}");
            assert_eq!(fast.stats(), slow.stats(), "{at}");
            assert_eq!(fast.now(), slow.now(), "{at}");
            assert_eq!(fast.next_wake(&fast_mem), slow.next_wake(&slow_mem), "{at}");
            assert_eq!(fast.cur_op, slow.cur_op, "next trace record, {at}");
            let inner = |c: &Core, m: &MemorySystem| {
                (
                    (c.window_count, c.window.len(), c.mem_epoch),
                    (c.local_done.len(), c.dram_done.len(), c.mshrs.len()),
                    (c.pending_writebacks.len(), m.outstanding(), m.arrivals()),
                )
            };
            assert_eq!(
                inner(&fast, &fast_mem),
                inner(&slow, &slow_mem),
                "window, queues and memory side, {at}"
            );
        }
        assert_eq!(slow.compute_run_cycles(), 0, "step alone took a run");
        assert!(fast.stats().instructions > 0);
        fast.compute_run_cycles() as f64 / fast.stats().cycles as f64
    }

    const SHAPES: [Shape; 5] = [
        Shape::BubbleHeavy,
        Shape::L1Hits,
        Shape::DependentChain,
        Shape::Prefetched,
        Shape::StoreBursts,
    ];

    #[test]
    fn compute_runs_equal_stepping() {
        for seed in 0..3 {
            for shape in SHAPES {
                check(shape, seed, 12_000);
            }
        }
    }

    /// The deep tier of the same property (CI runs it with
    /// `--include-ignored`, in release with debug assertions).
    #[test]
    #[ignore = "deep tier; run with --include-ignored"]
    fn compute_runs_equal_stepping_deep() {
        for seed in 3..27 {
            for shape in SHAPES {
                check(shape, seed, 60_000);
            }
        }
    }

    #[test]
    fn compute_runs_engage_on_low_mpki_and_never_without_bubbles() {
        let share = check(Shape::BubbleHeavy, 100, 12_000);
        assert!(
            share > 0.3,
            "compute runs covered only {share:.2} of cycles"
        );
        assert_eq!(check(Shape::ZeroBubble, 100, 12_000), 0.0);
    }

    #[test]
    fn the_other_shapes_exercise_what_they_name() {
        let run = |shape| {
            let mut rng = SmallRng::seed_from_u64(7);
            let (mut core, mut mem) = system(shape, trace(shape, &mut rng));
            for c in 0..30_000 {
                mem.tick(DramCycle::new(c));
                for done in mem.drain_completions() {
                    core.push_completion(done);
                }
                let wake = core.next_wake(&mem);
                core.advance_dram_cycle(wake, &mut mem);
            }
            (*core.stats(), core.compute_run_cycles())
        };
        let (hits, runs) = run(Shape::L1Hits);
        assert!(hits.l2_misses * 20 < hits.loads && runs > 0, "{hits:?}");
        let (pf, runs) = run(Shape::Prefetched);
        assert!(pf.prefetch_hits > 100 && runs > 0, "{pf:?}");
        let (st, runs) = run(Shape::StoreBursts);
        assert!(st.writebacks > 100 && runs > 0, "{st:?}");
    }
}
