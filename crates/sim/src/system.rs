//! Full-system wiring: N cores around one shared memory system, advanced
//! by an event-driven run loop (with the stepped loop kept as the
//! differential-test oracle).
//!
//! # The event-driven loop
//!
//! The stepped loop pays for every DRAM cycle: a memory tick (policy
//! hook, per-channel scheduling scan, completion reap) plus
//! [`CPU_CYCLES_PER_DRAM_CYCLE`] steps per core. The event-driven loop
//! instead asks the memory system for the exact next cycle at which
//! anything can happen ([`MemorySystem::predict_next`], a minimum over
//! per-channel cached edges) and *elides* the cycles in between:
//!
//! - **Whole-system jump** — when every core is provably inert past the
//!   span ([`Core::next_wake`]), the span collapses into one O(1)
//!   bookkeeping call per core plus a deferred memory residue.
//! - **Per-cycle elision** — when cores still execute (the common case in
//!   busy streaming phases), each elided cycle runs only the core steps;
//!   the memory tick is skipped and the policy's per-cycle hook deferred
//!   ([`MemorySystem::elide_span`] over one cycle). Cores that are inert for
//!   just that one cycle take the O(1) path too. If a core issues a new
//!   memory request mid-span, the span is cut short — the arrival
//!   invalidates the no-event premise — and a real tick follows.
//!
//! Elision is sound because the memory system's state is frozen between
//! events: the deferred residue (the policy's cycle hook) is settled
//! before anything can observe it, and settling it replays exactly what
//! stepping would have done. [`crate::oracle`] holds the two loops
//! bit-identical (same statistics, verdicts, telemetry streams and STFM
//! registers) over the case lists in `crates/sim/tests/event_equivalence.rs`
//! (the seeded fuzz among them), `tests/time_advance.rs` and
//! `tests/rank_cache.rs`.

use crate::cancel::CancelToken;
use stfm_cpu::{Core, CoreStats};
use stfm_dram::{ClockRatio, CpuCycle, DramCycle, CPU_CYCLES_PER_DRAM_CYCLE};
use stfm_mc::{MemorySystem, ThreadId, ThreadStats};

/// A complete simulated CMP: cores plus the shared DRAM memory system.
///
/// Time advances in DRAM cycles; each DRAM cycle the memory system ticks
/// once and every core executes [`CPU_CYCLES_PER_DRAM_CYCLE`] CPU cycles.
pub struct System {
    cores: Vec<Core>,
    mem: MemorySystem,
    dram_cycle: DramCycle,
    /// Event-driven execution (on by default): cycles between memory
    /// events are elided instead of ticked one by one. Off = the stepped
    /// reference loop (the differential-test oracle).
    fast_forward: bool,
    /// DRAM cycles skipped in whole-system jumps (all cores inert).
    jumped: u64,
    /// DRAM cycles where the memory tick was elided but cores executed.
    elided: u64,
    /// Cooperative cancellation handle, polled at loop granularity.
    cancel: Option<CancelToken>,
}

/// The cycle-cap factor of [`Budget::of`]: a run is truncated after
/// `insts × MAX_CPI` CPU cycles.
const MAX_CPI: u64 = 4_000;

/// One measurement window: each core is measured from its `warmup`th
/// committed instruction to its `warmup + insts`th, unless
/// `max_cpu_cycles` elapse first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Instructions per thread run before the window opens (cold caches,
    /// generator start-up); 0 measures from the first instruction.
    pub warmup: u64,
    /// Measured instructions per thread.
    pub insts: u64,
    /// The CPU-cycle cap; a window still open then is truncated.
    pub max_cpu_cycles: u64,
}

impl Budget {
    /// The experiments' window for `insts` measured instructions: a
    /// warm-up of a quarter of them, under a cap of 4,000 CPU cycles per
    /// measured instruction.
    pub fn of(insts: u64) -> Budget {
        Budget {
            warmup: insts / 4,
            insts,
            max_cpu_cycles: insts.saturating_mul(MAX_CPI),
        }
    }

    /// The instruction mark at which the window closes.
    fn end(&self) -> u64 {
        self.warmup.saturating_add(self.insts)
    }
}

/// Why a run stopped short of a budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStop {
    /// A [`CancelToken`] fired.
    Cancelled,
    /// The shared run or an alone baseline hit its cycle cap before
    /// every thread finished.
    Truncated,
}

impl RunStop {
    /// Why `out` stopped short, if it did.
    pub fn of(out: &RunOutcome) -> Option<Self> {
        match (out.cancelled, out.truncated) {
            (true, _) => Some(RunStop::Cancelled),
            (_, true) => Some(RunStop::Truncated),
            _ => None,
        }
    }
}

impl std::fmt::Display for RunStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunStop::Cancelled => f.write_str("cancelled"),
            RunStop::Truncated => write!(
                f,
                "truncated: it hit the cycle cap of {MAX_CPI} CPU cycles per instruction"
            ),
        }
    }
}

/// One budget's outcome of [`System::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Per-core statistics over the measurement window (warmup excluded;
    /// index = core/thread id), frozen when the core crossed its budget.
    pub frozen: Vec<CoreStats>,
    /// Per-thread controller statistics over the same window (row-buffer
    /// hit rates etc.).
    pub frozen_mem: Vec<ThreadStats>,
    /// CPU cycles simulated when the budget closed (= its slowest
    /// thread's completion time).
    pub cpu_cycles: u64,
    /// Whether the cycle cap was hit before every thread finished.
    pub truncated: bool,
    /// Whether a [`CancelToken`] stopped the run early. Cancelled
    /// statistics cover an arbitrary prefix of the window and must not
    /// be reported or cached as results.
    pub cancelled: bool,
}

/// Measurement-window bookkeeping shared by the stepped and event-driven
/// loops, for every budget of a run: each core is snapshotted at every
/// instruction mark (a budget's warm-up or end) it crosses, and a
/// budget's window is the difference of two snapshots.
struct WindowTracker {
    budgets: Vec<Budget>,
    outcomes: Vec<Option<RunOutcome>>,
    /// Every nonzero warm-up and every end, ascending, once per budget (a
    /// budget's two marks are distinct entries even when equal).
    marks: Vec<u64>,
    /// Per core, its snapshot at each mark it has crossed.
    snaps: Vec<Vec<(CoreStats, ThreadStats)>>,
    /// Per core, the next mark it will cross (`u64::MAX` past the last).
    next: Vec<u64>,
    /// The highest mark every core has crossed.
    reached: Option<u64>,
}

impl WindowTracker {
    fn new(n: usize, budgets: &[Budget]) -> Self {
        let warmups = budgets.iter().map(|b| b.warmup).filter(|&w| w > 0);
        let mut marks: Vec<u64> = warmups.chain(budgets.iter().map(Budget::end)).collect();
        marks.sort_unstable();
        WindowTracker {
            budgets: budgets.to_vec(),
            outcomes: vec![None; budgets.len()],
            snaps: vec![Vec::with_capacity(marks.len()); n],
            next: vec![marks.first().map_or(u64::MAX, |&m| m); n],
            marks,
            reached: None,
        }
    }

    /// Snapshots cores that crossed instruction marks. Must run after
    /// every cycle in which any core executed (cores that were
    /// fast-forwarded cannot cross a mark).
    fn observe(&mut self, cores: &[Core], mem: &mut MemorySystem) {
        let mut crossed = false;
        for (i, core) in cores.iter().enumerate() {
            while core.stats().instructions >= self.next[i] {
                let t = ThreadId(i as u32);
                self.snaps[i].push((*core.stats(), mem.thread_stats(t)));
                // Restart the running max at every mark, so that each
                // segment between marks keeps its own (ThreadStats::minus).
                mem.reset_max_read_latency(t);
                self.next[i] = self.marks.get(self.snaps[i].len()).map_or(u64::MAX, |&m| m);
                crossed = true;
            }
        }
        if crossed {
            let fewest = self.snaps.iter().map(Vec::len).min().unwrap_or(0);
            self.reached = fewest.checked_sub(1).map(|k| self.marks[k]);
        }
    }

    /// Closes each open budget that has stopped: every one if
    /// `cancelled`, else at its cap (truncated) or once every core has
    /// crossed its end (completed), checked in that order. Returns the
    /// first DRAM cycle count at which a still open budget's cap fires,
    /// or `None` once all are closed.
    fn settle(&mut self, sys: &System, cancelled: bool) -> Option<u64> {
        let cpu = ClockRatio::PAPER.dram_to_cpu(sys.dram_cycle);
        let mut trunc_at = None;
        for (j, &b) in self.budgets.iter().enumerate() {
            let stop = if self.outcomes[j].is_some() {
                continue;
            } else if cancelled {
                Some(RunStop::Cancelled)
            } else if cpu >= b.max_cpu_cycles {
                Some(RunStop::Truncated)
            } else if self.reached >= Some(b.end()) {
                None
            } else {
                let cap = b.max_cpu_cycles.div_ceil(CPU_CYCLES_PER_DRAM_CYCLE);
                trunc_at = Some(trunc_at.map_or(cap, |t: u64| t.min(cap)));
                continue;
            };
            self.outcomes[j] = Some(self.close(b, stop, sys));
        }
        trunc_at
    }

    /// Budget `b`'s outcome as it closes now. A core short of its warm-up
    /// is measured from 0, and one short of its end to where it stands.
    fn close(&self, b: Budget, stop: Option<RunStop>, sys: &System) -> RunOutcome {
        let to = self.marks.partition_point(|&m| m <= b.end()) - 1;
        let from = (b.warmup > 0).then(|| self.marks.partition_point(|&m| m < b.warmup));
        let (mut frozen, mut frozen_mem) = (Vec::new(), Vec::new());
        for (i, snaps) in self.snaps.iter().enumerate() {
            let t = ThreadId(i as u32);
            let now = (*sys.cores[i].stats(), sys.mem.thread_stats(t));
            let (hi, (end, mut end_mem)) = snaps.get(to).map_or((snaps.len(), now), |&e| (to, e));
            let (lo, (base, base_mem)) = from
                .and_then(|k| Some((k + 1, *snaps.get(k)?)))
                .unwrap_or_default();
            // Each snapshot holds the max of the segment it closes.
            let segments = snaps[lo..hi].iter().map(|s| s.1.max_read_latency_cpu);
            end_mem.max_read_latency_cpu = segments.fold(end_mem.max_read_latency_cpu, u64::max);
            frozen.push(end.minus(&base));
            frozen_mem.push(end_mem.minus(&base_mem));
        }
        RunOutcome {
            frozen,
            frozen_mem,
            cpu_cycles: ClockRatio::PAPER.dram_to_cpu(sys.dram_cycle).get(),
            truncated: stop == Some(RunStop::Truncated),
            cancelled: stop == Some(RunStop::Cancelled),
        }
    }
}

impl System {
    /// Builds a system from prepared cores and a memory system. Core `i`
    /// must carry `ThreadId(i)`.
    ///
    /// # Panics
    ///
    /// Panics if a core's thread id does not match its index.
    pub fn new(cores: Vec<Core>, mem: MemorySystem) -> Self {
        for (i, c) in cores.iter().enumerate() {
            assert_eq!(
                c.thread().0 as usize,
                i,
                "core {i} carries thread id {}",
                c.thread().0
            );
        }
        System {
            cores,
            mem,
            dram_cycle: DramCycle::ZERO,
            fast_forward: true,
            jumped: 0,
            elided: 0,
            cancel: None,
        }
    }

    /// Installs a cooperative cancellation token. Both run loops poll it
    /// between DRAM cycles (flag every poll, deadline sparsely per
    /// [`crate::cancel::DEADLINE_POLL_MASK`]); when it fires the run
    /// returns with [`RunOutcome::cancelled`] set. A token left over from
    /// a previous run can be cleared by installing a fresh one.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Enables or disables the event-driven loop (on by default).
    /// Simulated results are bit-identical either way; turning it off
    /// forces the reference cycle-by-cycle path (the loop
    /// [`crate::oracle`] compares against, and a debugging aid).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// DRAM cycles skipped in whole-system jumps (every core inert).
    pub fn jumped_cycles(&self) -> u64 {
        self.jumped
    }

    /// DRAM cycles where the memory tick was elided while cores executed.
    pub fn elided_cycles(&self) -> u64 {
        self.elided
    }

    /// The shared memory system.
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to the shared memory system (scheduler knobs).
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// The cores.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// Advances the whole system by one DRAM cycle (the stepped reference
    /// path).
    pub fn tick(&mut self) {
        self.mem.tick(self.dram_cycle);
        for c in self.mem.drain_completions() {
            self.cores[c.thread.0 as usize].push_completion(c);
        }
        for core in &mut self.cores {
            for _ in 0..CPU_CYCLES_PER_DRAM_CYCLE {
                core.step(&mut self.mem);
            }
        }
        self.dram_cycle += 1;
    }

    /// One real DRAM cycle of the event-driven loop: like [`System::tick`]
    /// but cores that are provably inert through the whole cycle take the
    /// O(1) [`Core::fast_forward`] path instead of ten no-op steps.
    fn tick_event(&mut self) {
        self.mem.tick(self.dram_cycle);
        for c in self.mem.drain_completions() {
            self.cores[c.thread.0 as usize].push_completion(c);
        }
        for core in &mut self.cores {
            let wake = core.next_wake(&self.mem);
            core.advance_dram_cycle(wake, &mut self.mem);
        }
        self.dram_cycle += 1;
    }

    /// Runs until every budget has closed and returns one outcome per
    /// budget, in order. A budget completes when every core has committed
    /// its `warmup + insts` instructions (statistics freeze per core at
    /// that point; cores keep executing to preserve contention, per the
    /// standard multiprogrammed methodology), and is truncated if its
    /// cycle cap comes first. Nothing in the loop reads a budget except
    /// these two tests, so each outcome equals that budget's own
    /// single-budget run, its `cpu_cycles` included.
    pub fn run(&mut self, budgets: &[Budget]) -> Vec<RunOutcome> {
        let mut window = WindowTracker::new(self.cores.len(), budgets);
        match (budgets.is_empty(), self.fast_forward) {
            (true, _) => {}
            (false, true) => self.run_events(&mut window),
            (false, false) => self.run_stepped(&mut window),
        }
        // A mid-span stop can leave elided-cycle residue deferred; settle
        // it before the policy can be inspected.
        self.mem.flush_residue();
        // Both loops return only once every budget has closed.
        window.outcomes.into_iter().flatten().collect()
    }

    /// [`System::run`] over one budget.
    pub fn run_with_warmup(
        &mut self,
        warmup_insts: u64,
        insts_per_thread: u64,
        max_cpu_cycles: u64,
    ) -> RunOutcome {
        let budget = Budget {
            warmup: warmup_insts,
            insts: insts_per_thread,
            max_cpu_cycles,
        };
        self.run(&[budget]).remove(0)
    }

    /// Polls the cancellation token, if any; when it fires, every open
    /// budget closes as cancelled.
    fn cancelled(&self, window: &mut WindowTracker, polls: &mut u32) -> bool {
        *polls = polls.wrapping_add(1);
        let stop = self.cancel.as_ref().is_some_and(|t| t.should_stop(*polls));
        // A cancelled settle closes every open budget.
        stop && window.settle(self, true).is_none()
    }

    /// The stepped reference loop: every DRAM cycle is a real tick.
    fn run_stepped(&mut self, window: &mut WindowTracker) {
        let mut polls: u32 = 0;
        loop {
            self.tick();
            window.observe(&self.cores, &mut self.mem);
            if window.settle(self, false).is_none() || self.cancelled(window, &mut polls) {
                return;
            }
        }
    }

    /// The event-driven loop.
    fn run_events(&mut self, window: &mut WindowTracker) {
        let mut wakes: Vec<Option<CpuCycle>> = Vec::with_capacity(self.cores.len());
        let mut polls: u32 = 0;
        loop {
            self.tick_event();
            window.observe(&self.cores, &mut self.mem);
            let Some(trunc_at) = window.settle(self, false) else {
                return;
            };
            if self.cancelled(window, &mut polls) {
                return;
            }
            // Elision spans stop short of the first open cap, so
            // `cpu_cycles` stays bit-identical to the stepped loop.
            let d = self.dram_cycle;
            let limit = trunc_at.saturating_sub(d.get() + 1);
            let span = match self.mem.predict_next(d) {
                Some(e) if e > d => (e.get() - d.get()).min(limit),
                Some(_) => 0,
                None => limit,
            };
            if span == 0 {
                continue;
            }
            wakes.clear();
            wakes.extend(self.cores.iter().map(|c| c.next_wake(&self.mem)));
            let span_end = CPU_CYCLES_PER_DRAM_CYCLE * (d.get() + span);
            if wakes.iter().all(|w| w.is_some_and(|w| w.get() > span_end)) {
                // Whole-system jump: nothing anywhere can act before the
                // span ends.
                self.mem.elide_span(d, span);
                for core in &mut self.cores {
                    core.fast_forward(span * CPU_CYCLES_PER_DRAM_CYCLE, &self.mem);
                }
                self.dram_cycle += span;
                self.jumped += span;
                continue;
            }
            // Cores still execute: elide only the memory tick, cycle by
            // cycle. Inert cores keep their cached wake (it can only
            // change through a memory completion, and there are none
            // before the span ends); stepped cores refresh theirs.
            for _ in 0..span {
                if self.cancelled(window, &mut polls) {
                    return;
                }
                let c = self.dram_cycle;
                self.mem.elide_span(c, 1);
                let arrivals = self.mem.arrivals();
                let cpu_end = CPU_CYCLES_PER_DRAM_CYCLE * (c.get() + 1);
                let mut any_stepped = false;
                for (core, wake) in self.cores.iter_mut().zip(wakes.iter_mut()) {
                    if wake.is_some_and(|w| w.get() > cpu_end) {
                        core.fast_forward(CPU_CYCLES_PER_DRAM_CYCLE, &self.mem);
                    } else {
                        core.advance_dram_cycle(*wake, &mut self.mem);
                        *wake = core.next_wake(&self.mem);
                        any_stepped = true;
                    }
                }
                self.dram_cycle += 1;
                self.elided += 1;
                if any_stepped {
                    window.observe(&self.cores, &mut self.mem);
                    if window.settle(self, false).is_none() {
                        // Finished mid-span: stop exactly where the
                        // stepped loop would, without a trailing tick.
                        return;
                    }
                    if self.mem.arrivals() != arrivals {
                        // A core issued a request: the no-event premise
                        // for the rest of the span is void. Tick for real.
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfm_cpu::TraceOp;
    use stfm_cpu::VecTrace;
    use stfm_dram::DramConfig;
    use stfm_mc::{FrFcfs, ThreadId};

    fn tiny_system(n: usize) -> System {
        let cfg = DramConfig::for_cores(n as u32);
        let mem = MemorySystem::new(cfg, Box::new(FrFcfs::new()));
        let cores = (0..n)
            .map(|i| {
                let ops: Vec<_> = (0..64u64)
                    .map(|k| TraceOp::load(((i as u64) << 28) | (k * 64 * 131), 6))
                    .collect();
                Core::new(
                    ThreadId(i as u32),
                    Box::new(VecTrace::new(format!("t{i}"), ops)),
                )
            })
            .collect();
        System::new(cores, mem)
    }

    #[test]
    fn run_freezes_stats_at_budget() {
        let mut sys = tiny_system(2);
        let out = sys.run_with_warmup(0, 2_000, 50_000_000);
        assert!(!out.truncated);
        for f in &out.frozen {
            assert!(f.instructions >= 2_000);
            // Frozen close to the budget, not at the end of the whole run.
            assert!(f.instructions < 2_000 + 10 * CPU_CYCLES_PER_DRAM_CYCLE);
        }
    }

    #[test]
    fn truncation_reports() {
        let mut sys = tiny_system(2);
        let out = sys.run_with_warmup(0, u64::MAX, 10_000);
        assert!(out.truncated);
    }

    #[test]
    fn event_loop_engages_both_elision_modes() {
        let mut sys = tiny_system(2);
        let out = sys.run_with_warmup(0, 2_000, 50_000_000);
        assert!(!out.truncated);
        assert!(sys.jumped_cycles() > 0, "no whole-system jumps happened");
        assert!(sys.elided_cycles() > 0, "no per-cycle elisions happened");
    }

    #[test]
    #[should_panic(expected = "carries thread id")]
    fn mismatched_thread_ids_rejected() {
        let cfg = DramConfig::for_cores(1);
        let mem = MemorySystem::new(cfg, Box::new(FrFcfs::new()));
        let core = Core::new(
            ThreadId(5),
            Box::new(VecTrace::new("x", vec![TraceOp::load(0, 1)])),
        );
        let _ = System::new(vec![core], mem);
    }
}
