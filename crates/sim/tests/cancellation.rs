//! Cooperative cancellation contract of the run loops and the experiment
//! harness: a fired token stops both loops, a cross-thread cancel
//! terminates a long run, cancelled runs pollute no cache, and an inert
//! token leaves results bit-identical to an untokened run.

use std::sync::mpsc;
use std::time::{Duration, Instant};
use stfm_sim::{AloneCache, CancelToken, Experiment, SchedulerKind};
use stfm_workloads::spec;

fn experiment() -> Experiment {
    Experiment::new(vec![spec::mcf(), spec::libquantum()])
        .scheduler(SchedulerKind::Stfm)
        .instructions_per_thread(4_000)
}

#[test]
fn pre_cancelled_token_stops_both_loops() {
    for fast_forward in [true, false] {
        let token = CancelToken::new();
        token.cancel();
        let out = experiment()
            .fast_forward(fast_forward)
            .run_cancellable(&AloneCache::new(), &token);
        assert!(
            out.is_none(),
            "pre-cancelled run completed (fast_forward={fast_forward})"
        );
    }
}

#[test]
#[allow(clippy::disallowed_methods)] // an already-past deadline needs a clock reading
fn expired_deadline_stops_both_loops() {
    for fast_forward in [true, false] {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let out = experiment()
            .fast_forward(fast_forward)
            .run_cancellable(&AloneCache::new(), &token);
        assert!(
            out.is_none(),
            "past-deadline run completed (fast_forward={fast_forward})"
        );
    }
}

#[test]
fn cross_thread_cancel_terminates_a_long_run() {
    // A budget far beyond what CI should ever simulate; only the cancel
    // can end this run in reasonable time.
    let token = CancelToken::new();
    let cancel_handle = token.clone();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let out = Experiment::new(vec![spec::mcf(), spec::libquantum()])
            .instructions_per_thread(2_000_000_000)
            .run_cancellable(&AloneCache::new(), &token);
        let _ = tx.send(out.is_none());
    });
    std::thread::sleep(Duration::from_millis(50));
    cancel_handle.cancel();
    let cancelled = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("run did not stop within 60s of cancel");
    assert!(cancelled, "cancelled run reported metrics");
    worker.join().expect("worker panicked");
}

#[test]
fn cancelled_runs_store_no_baselines() {
    let cache = AloneCache::new();
    let token = CancelToken::new();
    token.cancel();
    assert!(experiment().run_cancellable(&cache, &token).is_none());
    assert!(cache.is_empty(), "cancelled run polluted the alone cache");
}

#[test]
fn inert_token_is_bit_identical_to_no_token() {
    let plain = experiment().run_with_cache(&AloneCache::new());
    let token = CancelToken::with_timeout(Duration::from_secs(3600));
    let tokened = experiment()
        .run_cancellable(&AloneCache::new(), &token)
        .expect("inert token cancelled the run");
    assert_eq!(plain.scheduler, tokened.scheduler);
    assert_eq!(plain.threads.len(), tokened.threads.len());
    for (a, b) in plain.threads.iter().zip(&tokened.threads) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.shared, b.shared, "{}: shared stats diverged", a.name);
        assert_eq!(a.alone, b.alone, "{}: alone stats diverged", a.name);
    }
}
