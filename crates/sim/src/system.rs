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
//!   ([`MemorySystem::elide_tick`]). Cores that are inert for
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

/// Why a run loop returned: the distinction [`RunOutcome`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopExit {
    /// Every core crossed its instruction budget.
    Completed,
    /// The CPU-cycle cap was hit first.
    Truncated,
    /// The [`CancelToken`] fired (explicit cancel or deadline).
    Cancelled,
}

/// Outcome of [`System::run`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-core statistics over the measurement window (warmup excluded;
    /// index = core/thread id), frozen when the core crossed its budget.
    pub frozen: Vec<CoreStats>,
    /// Per-thread controller statistics over the same window (row-buffer
    /// hit rates etc.).
    pub frozen_mem: Vec<ThreadStats>,
    /// Total CPU cycles simulated (= slowest thread's completion time).
    pub cpu_cycles: u64,
    /// Whether the cycle cap was hit before every thread finished.
    pub truncated: bool,
    /// Whether a [`CancelToken`] stopped the run early. Cancelled
    /// statistics cover an arbitrary prefix of the window and must not
    /// be reported or cached as results.
    pub cancelled: bool,
}

/// Measurement-window bookkeeping shared by the stepped and event-driven
/// loops: per-core warmup baselines and budget freezes.
struct WindowTracker {
    baseline: Vec<Option<(CoreStats, ThreadStats)>>,
    frozen: Vec<Option<(CoreStats, ThreadStats)>>,
    warmup: u64,
    budget: u64,
    remaining: usize,
}

impl WindowTracker {
    fn new(n: usize, warmup: u64, budget: u64) -> Self {
        let seeded = (warmup == 0).then(|| (CoreStats::default(), ThreadStats::default()));
        WindowTracker {
            baseline: vec![seeded; n],
            frozen: vec![None; n],
            warmup,
            budget,
            remaining: n,
        }
    }

    /// Captures baselines/freezes for cores that crossed their
    /// instruction marks. Must run after every cycle in which any core
    /// executed (cores that were fast-forwarded cannot cross a mark).
    fn observe(&mut self, cores: &[Core], mem: &mut MemorySystem) {
        for (i, core) in cores.iter().enumerate() {
            let insts = core.stats().instructions;
            if self.baseline[i].is_none() && insts >= self.warmup {
                self.baseline[i] = Some((*core.stats(), mem.thread_stats(ThreadId(i as u32))));
                // Max latency is not differenceable: restart it at the
                // window boundary so warmup spikes don't leak into the
                // measured window (ThreadStats::minus).
                mem.reset_max_read_latency(ThreadId(i as u32));
            }
            if self.frozen[i].is_none() && insts >= self.budget {
                self.frozen[i] = Some((*core.stats(), mem.thread_stats(ThreadId(i as u32))));
                self.remaining -= 1;
            }
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

    /// Runs until every core has committed `insts_per_thread` instructions
    /// (statistics freeze per core at that point; cores keep executing to
    /// preserve contention, per the standard multiprogrammed methodology),
    /// or until `max_cpu_cycles` elapse.
    pub fn run(&mut self, insts_per_thread: u64, max_cpu_cycles: u64) -> RunOutcome {
        self.run_with_warmup(0, insts_per_thread, max_cpu_cycles)
    }

    /// Like [`System::run`], but each core first executes
    /// `warmup_insts` instructions whose statistics (cache cold misses,
    /// generator start-up transients) are excluded from the reported
    /// window.
    pub fn run_with_warmup(
        &mut self,
        warmup_insts: u64,
        insts_per_thread: u64,
        max_cpu_cycles: u64,
    ) -> RunOutcome {
        let n = self.cores.len();
        let mut window = WindowTracker::new(n, warmup_insts, warmup_insts + insts_per_thread);
        let exit = if self.fast_forward {
            self.run_events(&mut window, max_cpu_cycles)
        } else {
            self.run_stepped(&mut window, max_cpu_cycles)
        };
        let truncated = exit == LoopExit::Truncated;
        let cancelled = exit == LoopExit::Cancelled;
        // A mid-span stop can leave elided-cycle residue deferred; settle
        // it before the policy can be inspected.
        self.mem.flush_residue();
        if truncated || cancelled {
            for i in 0..n {
                if window.baseline[i].is_none() {
                    window.baseline[i] = Some((CoreStats::default(), ThreadStats::default()));
                }
                if window.frozen[i].is_none() {
                    window.frozen[i] = Some((
                        *self.cores[i].stats(),
                        self.mem.thread_stats(ThreadId(i as u32)),
                    ));
                    window.remaining -= 1;
                }
            }
        }
        let mut frozen_core = Vec::with_capacity(n);
        let mut frozen_mem = Vec::with_capacity(n);
        // Every slot was filled by the loop above and baselines precede
        // freeze; `filter_map` states that invariant without a panic path.
        for ((fc, fm), (bc, bm)) in window
            .frozen
            .into_iter()
            .zip(window.baseline)
            .filter_map(|(f, b)| f.zip(b))
        {
            frozen_core.push(fc.minus(&bc));
            frozen_mem.push(fm.minus(&bm));
        }
        RunOutcome {
            frozen: frozen_core,
            frozen_mem,
            cpu_cycles: ClockRatio::PAPER.dram_to_cpu(self.dram_cycle).get(),
            truncated,
            cancelled,
        }
    }

    /// The stepped reference loop: every DRAM cycle is a real tick.
    fn run_stepped(&mut self, window: &mut WindowTracker, max_cpu_cycles: u64) -> LoopExit {
        let mut polls: u32 = 0;
        while window.remaining > 0 {
            self.tick();
            window.observe(&self.cores, &mut self.mem);
            if ClockRatio::PAPER.dram_to_cpu(self.dram_cycle) >= max_cpu_cycles {
                return LoopExit::Truncated;
            }
            if let Some(t) = &self.cancel {
                polls = polls.wrapping_add(1);
                if t.should_stop(polls) {
                    return LoopExit::Cancelled;
                }
            }
        }
        LoopExit::Completed
    }

    /// The event-driven loop. Returns why the run stopped.
    fn run_events(&mut self, window: &mut WindowTracker, max_cpu_cycles: u64) -> LoopExit {
        // First DRAM cycle count at which the truncation check fires;
        // elision spans must stop short of it so `cpu_cycles` stays
        // bit-identical to the stepped loop.
        let trunc_at = max_cpu_cycles.div_ceil(CPU_CYCLES_PER_DRAM_CYCLE);
        let mut wakes: Vec<Option<CpuCycle>> = Vec::with_capacity(self.cores.len());
        let mut polls: u32 = 0;
        'run: while window.remaining > 0 {
            self.tick_event();
            window.observe(&self.cores, &mut self.mem);
            if ClockRatio::PAPER.dram_to_cpu(self.dram_cycle) >= max_cpu_cycles {
                return LoopExit::Truncated;
            }
            if window.remaining == 0 {
                return LoopExit::Completed;
            }
            if let Some(t) = &self.cancel {
                polls = polls.wrapping_add(1);
                if t.should_stop(polls) {
                    return LoopExit::Cancelled;
                }
            }
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
                if let Some(t) = &self.cancel {
                    polls = polls.wrapping_add(1);
                    if t.should_stop(polls) {
                        return LoopExit::Cancelled;
                    }
                }
                let c = self.dram_cycle;
                self.mem.elide_tick(c);
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
                    if window.remaining == 0 {
                        // Finished mid-span: stop exactly where the
                        // stepped loop would, without a trailing tick.
                        break 'run;
                    }
                    if self.mem.arrivals() != arrivals {
                        // A core issued a request: the no-event premise
                        // for the rest of the span is void. Tick for real.
                        break;
                    }
                }
            }
        }
        LoopExit::Completed
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
        let out = sys.run(2_000, 50_000_000);
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
        let out = sys.run(u64::MAX, 10_000);
        assert!(out.truncated);
    }

    #[test]
    fn event_loop_engages_both_elision_modes() {
        let mut sys = tiny_system(2);
        let out = sys.run(2_000, 50_000_000);
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
