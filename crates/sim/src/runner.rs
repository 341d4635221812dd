//! The ordered worker pool every parallel path runs on.
//!
//! Figure binaries run hundreds of independent experiments, `stfm sweep`
//! and `stfm serve` thousands of cells, all in one shape: pull work from
//! a sequence, run it on the host's cores, hand the results back **in
//! input order**. [`run_ordered`] is that shape, once. Every unit of work
//! is deterministic, so output never depends on `--jobs`.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};

/// Resolves a `--jobs` request against the host: `None` (or `Some(0)`)
/// means `available_parallelism`, anything else is taken as given.
#[must_use]
pub fn resolve_jobs(jobs: Option<usize>) -> usize {
    match jobs {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Runs `work` on every item of `items` across at most
/// `resolve_jobs(jobs)` scoped worker threads (never more than the
/// iterator's upper size bound) and calls `emit` with each result on the
/// caller's thread, **in input order**. Returns the worker count used.
///
/// A worker pulls its next item only when it is free, holding the feed
/// lock across `next()`: an iterator that blocks (serve's input stream)
/// is read by one idle worker while the others queue behind it, so input
/// is never consumed faster than it is worked on.
///
/// `emit` returning [`ControlFlow::Break`] stops the feed: no further
/// item is pulled, while items already pulled still run and still reach
/// `emit` (whose verdict no longer matters).
///
/// # Panics
///
/// A panic in `work` or in the iterator ends that worker and is re-raised
/// here once the remaining workers have drained; results after the lost
/// item are never emitted.
pub fn run_ordered<I, R>(
    items: I,
    jobs: Option<usize>,
    work: impl Fn(I::Item) -> R + Sync,
    mut emit: impl FnMut(R) -> ControlFlow<()>,
) -> usize
where
    I: Iterator + Send,
    R: Send,
{
    let bound = items.size_hint().1.unwrap_or(usize::MAX).max(1);
    let workers = resolve_jobs(jobs).min(bound);
    let feed = Mutex::new(items.enumerate().fuse());
    // Relaxed: the flag publishes nothing; a worker that misses it by a
    // moment pulls one more item, which is then "already pulled".
    let stopped = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (feed, stopped, work) = (&feed, &stopped, &work);
            scope.spawn(move || loop {
                // A poisoned feed means the iterator itself panicked;
                // that panic resurfaces when the scope joins.
                let Ok(mut feed) = feed.lock() else { break };
                if stopped.load(Ordering::Relaxed) {
                    break;
                }
                let Some((seq, item)) = feed.next() else {
                    break;
                };
                drop(feed);
                if tx.send((seq, work(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut pending = BTreeMap::new();
        let mut next = 0usize;
        for (seq, result) in rx {
            pending.insert(seq, result);
            while let Some(result) = pending.remove(&next) {
                next += 1;
                if emit(result).is_break() {
                    stopped.store(true, Ordering::Relaxed);
                }
            }
        }
    });
    workers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{AloneCache, Experiment};
    use crate::metrics::WorkloadMetrics;
    use crate::scheduler_kind::SchedulerKind;
    use std::sync::atomic::AtomicUsize;
    use stfm_workloads::spec;

    fn run_all(
        experiments: &[Experiment],
        cache: &AloneCache,
        jobs: Option<usize>,
    ) -> Vec<WorkloadMetrics> {
        let mut out = Vec::new();
        run_ordered(
            experiments.iter(),
            jobs,
            |e| e.run_with_cache(cache),
            |m| {
                out.push(m);
                ControlFlow::Continue(())
            },
        );
        out
    }

    fn spin_until(ready: impl Fn() -> bool) {
        while !ready() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn parallel_results_match_serial_in_order() {
        let experiments: Vec<Experiment> = SchedulerKind::all()
            .iter()
            .map(|k| {
                Experiment::new(vec![spec::libquantum(), spec::omnetpp()])
                    .scheduler(*k)
                    .instructions_per_thread(2_000)
            })
            .collect();
        let cache = AloneCache::new();
        let parallel = run_all(&experiments, &cache, None);
        let serial: Vec<_> = experiments
            .iter()
            .map(|e| e.run_with_cache(&cache))
            .collect();
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.scheduler, s.scheduler);
            assert_eq!(p.unfairness(), s.unfairness());
        }
    }

    #[test]
    fn bounded_jobs_match_default_worker_count() {
        let experiments: Vec<Experiment> = [SchedulerKind::FrFcfs, SchedulerKind::Stfm]
            .iter()
            .map(|k| {
                Experiment::new(vec![spec::omnetpp(), spec::hmmer()])
                    .scheduler(*k)
                    .instructions_per_thread(2_000)
            })
            .collect();
        let cache = AloneCache::new();
        let default = run_all(&experiments, &cache, None);
        let single = run_all(&experiments, &cache, Some(1));
        assert_eq!(default.len(), single.len());
        for (a, b) in default.iter().zip(&single) {
            assert_eq!(a.scheduler, b.scheduler);
            assert_eq!(a.unfairness(), b.unfairness());
            assert_eq!(a.weighted_speedup(), b.weighted_speedup());
        }
    }

    #[test]
    fn zero_and_none_jobs_fall_back_to_host_parallelism() {
        assert_eq!(super::resolve_jobs(None), super::resolve_jobs(Some(0)));
        assert_eq!(super::resolve_jobs(Some(3)), 3);
    }

    #[test]
    fn emits_in_input_order_and_break_stops_the_feed() {
        const WORKERS: usize = 3;
        let pulled = AtomicUsize::new(0);
        let one_done = AtomicBool::new(false);
        let stop_landed = AtomicBool::new(false);
        let feed = (0..1000usize).inspect(|_| {
            pulled.fetch_add(1, Ordering::SeqCst);
        });
        let mut seen = Vec::new();
        let workers = run_ordered(
            feed,
            Some(WORKERS),
            |i| {
                match i {
                    // Item 0 finishes after item 1, whose result is then
                    // waiting to be emitted when item 0's emit says stop ...
                    0 => spin_until(|| one_done.load(Ordering::SeqCst)),
                    1 => one_done.store(true, Ordering::SeqCst),
                    // ... and later items finish only once the stop is
                    // in force, so no worker is free to pull before it.
                    _ => spin_until(|| stop_landed.load(Ordering::SeqCst)),
                }
                i
            },
            |i| {
                seen.push(i);
                if i == 0 {
                    return ControlFlow::Break(());
                }
                // Emits are sequential: by item 1's, item 0's Break has
                // been recorded.
                stop_landed.store(true, Ordering::SeqCst);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(workers, WORKERS);
        let pulled = pulled.load(Ordering::SeqCst);
        // Everything pulled was delivered, in input order, including what
        // was pulled but not yet emitted when the stop came ...
        assert_eq!(seen, (0..pulled).collect::<Vec<_>>());
        // ... and the feed ended there: the two emitted items plus at
        // most one held item per worker.
        assert!(pulled <= 2 + WORKERS, "feed ran on: {pulled} items pulled");
    }
}
