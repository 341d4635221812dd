//! Cooperative cancellation contract of the run loops and the experiment
//! harness: a past deadline stops both loops and pollutes no cache, a
//! deadline terminates a long run, and an inert token leaves results
//! bit-identical to an untokened run.

use std::sync::mpsc;
use std::time::{Duration, Instant};
use stfm_sim::{AloneCache, CancelToken, Experiment, RunStop, SchedulerKind};
use stfm_workloads::spec;

fn experiment() -> Experiment {
    Experiment::new(vec![spec::mcf(), spec::libquantum()])
        .scheduler(SchedulerKind::Stfm)
        .instructions_per_thread(4_000)
}

#[test]
#[allow(clippy::disallowed_methods)] // an already-past deadline needs a clock reading
fn expired_deadline_stops_both_loops() {
    for fast_forward in [true, false] {
        let cache = AloneCache::new();
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let out = experiment()
            .fast_forward(fast_forward)
            .try_run(&cache, Some(&token));
        assert!(
            matches!(out, Err(RunStop::Cancelled)),
            "past-deadline run completed (fast_forward={fast_forward})"
        );
        assert!(cache.is_empty(), "cancelled run polluted the alone cache");
    }
}

#[test]
fn a_deadline_terminates_a_long_run() {
    // A budget far beyond what CI should ever simulate; only the
    // deadline can end this run in reasonable time.
    let token = CancelToken::with_timeout(Duration::from_millis(50));
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let out = Experiment::new(vec![spec::mcf(), spec::libquantum()])
            .instructions_per_thread(2_000_000_000)
            .try_run(&AloneCache::new(), Some(&token));
        let _ = tx.send(matches!(out, Err(RunStop::Cancelled)));
    });
    let cancelled = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("run did not stop within 60s of its deadline");
    assert!(cancelled, "cancelled run reported metrics");
    worker.join().expect("worker panicked");
}

#[test]
fn inert_token_is_bit_identical_to_no_token() {
    let plain = experiment().run_with_cache(&AloneCache::new());
    let token = CancelToken::with_timeout(Duration::from_secs(3600));
    let tokened = experiment()
        .try_run(&AloneCache::new(), Some(&token))
        .expect("inert token cancelled the run");
    assert_eq!(plain.scheduler, tokened.scheduler);
    assert_eq!(plain.threads.len(), tokened.threads.len());
    for (a, b) in plain.threads.iter().zip(&tokened.threads) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.shared, b.shared, "{}: shared stats diverged", a.name);
        assert_eq!(a.alone, b.alone, "{}: alone stats diverged", a.name);
    }
}
