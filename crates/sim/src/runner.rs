//! Parallel experiment runner.
//!
//! Figure-scale sweeps run hundreds of independent experiments; this
//! module fans them out over the host's cores with a shared alone-run
//! cache. Results are returned in input order, and every experiment is
//! deterministic, so parallelism never changes the numbers.

use crate::experiment::{AloneCache, Experiment};
use crate::metrics::WorkloadMetrics;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

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

/// Runs all experiments on worker threads sharing the alone-run `cache`
/// and returns their metrics in input order. `jobs` caps the threads
/// spawned (`None` / `Some(0)` = `available_parallelism`), so CI runners
/// and laptops can keep sweeps from saturating the host.
pub fn run_all_jobs(
    experiments: &[Experiment],
    cache: &AloneCache,
    jobs: Option<usize>,
) -> Vec<WorkloadMetrics> {
    let workers = resolve_jobs(jobs).min(experiments.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<WorkloadMetrics>>> =
        experiments.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= experiments.len() {
                    break;
                }
                let m = experiments[i].run_with_cache(cache);
                // A poisoned slot only means another worker panicked while
                // holding the lock; the metrics value itself is still sound
                // (it is replaced wholesale), so recover rather than panic.
                *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(m);
            });
        }
    });

    results
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            match m.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(m) => m,
                // Unreachable: the atomic work queue hands every index to
                // exactly one worker, and a panicked worker re-raises when
                // the scope joins above.
                None => panic!("experiment {i} produced no result"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler_kind::SchedulerKind;
    use stfm_workloads::spec;

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
        let parallel = run_all_jobs(&experiments, &cache, None);
        let serial: Vec<_> = experiments
            .iter()
            .map(|e| e.run_with_cache(&cache))
            .collect();
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
        let default = run_all_jobs(&experiments, &cache, None);
        let single = run_all_jobs(&experiments, &cache, Some(1));
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
}
