//! The differential oracle: the one harness that runs a simulation on
//! both loops and holds them equal.
//!
//! The event-driven loop ([`System`] with fast-forwarding on, the
//! default) claims to be an exact reorganization of the stepped loop:
//! jumps and elisions may skip work, never change it. Every test of that
//! claim is a list of [`Case`]s handed to [`compare`], which runs each
//! case once per loop and checks every observable:
//!
//! * the telemetry stream, element by element and in length
//!   ([`first_divergence`]);
//! * each budget's frozen core and controller statistics, run length,
//!   and truncation and cancellation verdicts;
//! * the STFM register digest ([`register_digest`]).
//!
//! A case runs at [`System`] level, so no alone baseline runs and the
//! stream never holds [`Event::EstimatorWork`], which only
//! [`Experiment::run_traced`] appends after a run. Metrics need no
//! check of their own: they are a pure function of the frozen shared
//! statistics and of an alone run that does not depend on the loop. A
//! run's work counters are read from the [`System`] it hands back.

use crate::digest::Fnv64;
use crate::experiment::Experiment;
use crate::system::{Budget, RunOutcome, System};
use std::any::Any;
use stfm_core::Stfm;
use stfm_telemetry::{Event, RingSink};

/// Events a run may emit before [`observe`] fails for want of room.
const RING_CAPACITY: usize = 1 << 21;

/// One simulation to run on both loops: a label for failure messages,
/// a [`System`] builder and the budgets it is run for.
pub struct Case {
    /// Names the case in every failure message.
    pub label: String,
    budgets: Vec<Budget>,
    build: Box<dyn Fn() -> System>,
}

impl Case {
    /// A case over the systems `build` returns, fresh on every call, run
    /// for `budgets` in one [`System::run`].
    pub fn new(
        label: impl Into<String>,
        budgets: Vec<Budget>,
        build: impl Fn() -> System + 'static,
    ) -> Case {
        Case {
            label: label.into(),
            budgets,
            build: Box::new(build),
        }
    }

    /// The shared run of `exp`, built and budgeted exactly as
    /// [`Experiment::run`] builds and budgets it. Its loop choice and sink
    /// are not part of the case; a caller that audits attaches its own.
    pub fn experiment(label: impl Into<String>, exp: &Experiment) -> Case {
        let exp = exp.clone();
        Case::new(label, vec![Budget::of(exp.insts)], move || {
            exp.shared_system()
        })
    }
}

/// What one loop left behind.
pub struct Run {
    /// Each budget's outcome: frozen statistics, length and verdicts.
    pub outcomes: Vec<RunOutcome>,
    /// Every event the run emitted, in order.
    pub stream: Vec<Event>,
    /// The finished system, for its work counters and policy state.
    pub system: System,
}

impl Run {
    /// The STFM policy, if the run was scheduled by one.
    pub fn stfm(&self) -> Option<&Stfm> {
        (self.system.memory().policy() as &dyn Any).downcast_ref::<Stfm>()
    }
}

/// Runs `case` on the event-driven loop (`fast_forward`) or the stepped
/// one, recording its whole event stream.
///
/// # Panics
///
/// Panics if the stream outgrew the ring that records it.
pub fn observe(case: &Case, fast_forward: bool) -> Run {
    let mut system = (case.build)();
    system.set_fast_forward(fast_forward);
    let (outcomes, ring) = system.run_observed(&case.budgets, RingSink::new(RING_CAPACITY));
    assert_eq!(ring.dropped(), 0, "{}: the ring overflowed", case.label);
    Run {
        outcomes,
        stream: ring.events().cloned().collect(),
        system,
    }
}

/// Runs `case` on both loops and holds every observable equal. Returns
/// the event-driven run, then the stepped one, for the caller's own
/// non-vacuity checks.
///
/// # Panics
///
/// Panics naming the case and the first observable that differs.
pub fn compare(case: &Case) -> (Run, Run) {
    let (event, stepped) = (observe(case, true), observe(case, false));
    let label = &case.label;
    if let Some((i, a, b)) = first_divergence(&event.stream, &stepped.stream) {
        panic!("{label}: event {i} diverges\n  event loop: {a:?}\n  stepped:    {b:?}");
    }
    assert_eq!(
        event.outcomes, stepped.outcomes,
        "{label}: budget outcomes diverge"
    );
    assert_eq!(
        register_digest(&event),
        register_digest(&stepped),
        "{label}: STFM register files diverge"
    );
    (event, stepped)
}

/// The first index at which `a` and `b` differ, with the event each holds
/// there; `None` past its end. `None` overall if the streams are equal.
pub fn first_divergence<'a>(
    a: &'a [Event],
    b: &'a [Event],
) -> Option<(usize, Option<&'a Event>, Option<&'a Event>)> {
    (0..a.len().max(b.len()))
        .map(|i| (i, a.get(i), b.get(i)))
        .find(|(_, x, y)| x != y)
}

/// FNV-1a over the serviced requests among `events`: request id,
/// completion cycles, thread, direction and latency, in emission order.
/// The golden pins are values of this digest.
pub fn completion_digest<'a>(events: impl IntoIterator<Item = &'a Event>) -> u64 {
    let mut h = Fnv64::new();
    for e in events {
        if let Event::RequestServiced {
            dram_cycle,
            cpu_cycle,
            thread,
            request,
            is_write,
            latency_cpu,
            ..
        } = e
        {
            h.write_u64(*request);
            h.write_u64(dram_cycle.get());
            h.write_u64(cpu_cycle.get());
            h.write_u64(u64::from(*thread));
            h.write_u64(u64::from(*is_write));
            h.write_u64(latency_cpu.get());
        }
    }
    h.finish()
}

/// FNV-1a over every thread's STFM slowdown-estimation registers at the
/// end of `run`, and the last interval reset; `None` for other policies.
///
/// This is the estimator's internal state, not just its decisions, so
/// equal digests are a stronger claim than equal streams: identical
/// decisions could mask compensating register errors. The reset time is
/// hashed because a reset on the wrong cycle inside an elided span moves
/// only it.
///
/// Values recomputed on demand rather than accumulated are left out: the
/// two published queue snapshots (`bank_waiting_parallelism`,
/// `bank_access_parallelism`) and the slowdown pair (`slowdown`,
/// `weighted_slowdown`). When a run ends inside an elided span these lag
/// the stepped loop's per-cycle refresh by design. No decision reads the
/// stale window, the debug-build `audit_incremental` checks the
/// snapshots at every real tick, and equal decisions plus equal
/// accumulators pin the slowdowns wherever they are consulted.
pub fn register_digest(run: &Run) -> Option<u64> {
    let stfm = run.stfm()?;
    let mut h = Fnv64::new();
    h.write_u64(stfm.last_interval_reset().get());
    for (thread, r) in stfm.registers().threads() {
        h.write_u64(u64::from(thread.0));
        h.write_u64(r.core_tshared);
        h.write_u64(r.tshared_base);
        h.write_u64(r.tinterference as u64);
        h.write_u64(u64::from(r.stall_rate.raw()));
        h.write_u64(r.pending_interference as u64);
        h.write_u64(r.last_sample_cpu.get());
        h.write_u64(r.last_sample_tshared);
    }
    Some(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfm_dram::DramCycle;

    fn drain(cycle: u64) -> Event {
        Event::WriteDrainStart {
            dram_cycle: DramCycle::new(cycle),
            channel: 0,
            queued_writes: 1,
        }
    }

    #[test]
    fn a_divergence_is_reported_at_its_index() {
        let a: Vec<Event> = (0..5).map(drain).collect();
        let mut b = a.clone();
        b[3] = drain(99);
        assert_eq!(first_divergence(&a, &a), None);
        assert_eq!(
            first_divergence(&a, &b),
            Some((3, Some(&a[3]), Some(&b[3])))
        );
    }

    #[test]
    fn a_strict_prefix_fails_on_length() {
        let a: Vec<Event> = (0..5).map(drain).collect();
        assert_eq!(first_divergence(&a, &a[..3]), Some((3, Some(&a[3]), None)));
        assert_eq!(first_divergence(&a[..3], &a), Some((3, None, Some(&a[3]))));
        assert_eq!(first_divergence(&[], &a), Some((0, None, Some(&a[0]))));
    }
}
