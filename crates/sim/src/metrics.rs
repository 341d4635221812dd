//! Fairness and throughput metrics (paper Section 6.2).

use stfm_cpu::CoreStats;

/// Smoothing constant guarding against division by a near-zero alone-MCPI
/// (benchmarks like *povray* barely touch memory; the paper's metric is
/// ill-conditioned there and any simulator must regularize it).
const MCPI_EPSILON: f64 = 0.005;

/// One thread's shared-run / alone-run measurement pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadMetrics {
    /// Benchmark name.
    pub name: String,
    /// Statistics from the multiprogrammed run (frozen at the budget).
    pub shared: CoreStats,
    /// Statistics from the alone run on the same memory system (FR-FCFS).
    pub alone: CoreStats,
}

impl ThreadMetrics {
    /// Memory slowdown `MCPI_shared / MCPI_alone` (regularized).
    pub fn mem_slowdown(&self) -> f64 {
        (self.shared.mcpi() + MCPI_EPSILON) / (self.alone.mcpi() + MCPI_EPSILON)
    }

    /// Relative performance `IPC_shared / IPC_alone`.
    pub fn ipc_ratio(&self) -> f64 {
        if self.alone.ipc() == 0.0 {
            0.0
        } else {
            self.shared.ipc() / self.alone.ipc()
        }
    }
}

/// Metrics of one multiprogrammed workload under one scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMetrics {
    /// Scheduler name.
    pub scheduler: String,
    /// Per-thread measurements, in core order.
    pub threads: Vec<ThreadMetrics>,
}

/// The paper's unfairness index over precomputed slowdowns: max over min.
///
/// Degenerate inputs are pinned explicitly: no threads (or one thread)
/// cannot be unfair (`1.0`), and a non-positive slowdown — impossible for
/// real measurements but reachable through hand-built metrics — makes the
/// ratio meaningless (`INFINITY` rather than a negative "unfairness").
pub fn unfairness_from_slowdowns(slowdowns: &[f64]) -> f64 {
    let max = slowdowns.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = slowdowns.iter().cloned().fold(f64::INFINITY, f64::min);
    if slowdowns.is_empty() {
        1.0
    } else if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

impl WorkloadMetrics {
    /// The paper's unfairness index: max memory slowdown over min.
    pub fn unfairness(&self) -> f64 {
        let slow: Vec<f64> = self.threads.iter().map(|t| t.mem_slowdown()).collect();
        unfairness_from_slowdowns(&slow)
    }

    /// Weighted speedup: `Σ IPC_shared / IPC_alone`.
    pub fn weighted_speedup(&self) -> f64 {
        self.threads.iter().map(|t| t.ipc_ratio()).sum()
    }

    /// Hmean speedup: harmonic mean of the IPC ratios, balancing fairness
    /// and throughput.
    pub fn hmean_speedup(&self) -> f64 {
        let n = self.threads.len() as f64;
        let denom: f64 = self.threads.iter().map(|t| 1.0 / t.ipc_ratio()).sum();
        n / denom
    }

    /// Sum of shared-run IPCs (throughput only; interpret with caution, as
    /// the paper warns).
    pub fn sum_of_ipcs(&self) -> f64 {
        self.threads.iter().map(|t| t.shared.ipc()).sum()
    }

    /// Largest per-thread memory slowdown.
    pub fn max_slowdown(&self) -> f64 {
        self.threads
            .iter()
            .map(|t| t.mem_slowdown())
            .fold(f64::MIN, f64::max)
    }
}

/// Geometric mean helper used by the "averaged over N workloads" figures.
pub fn gmean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "gmean requires positive values, got {v}");
        log_sum += v.ln();
        n += 1;
    }
    assert!(n > 0, "gmean of empty set");
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64, insts: u64, stalls: u64) -> CoreStats {
        CoreStats {
            cycles,
            instructions: insts,
            mem_stall_cycles: stalls,
            ..CoreStats::default()
        }
    }

    fn tm(name: &str, shared: CoreStats, alone: CoreStats) -> ThreadMetrics {
        ThreadMetrics {
            name: name.into(),
            shared,
            alone,
        }
    }

    #[test]
    fn slowdown_is_mcpi_ratio() {
        let t = tm("a", stats(4000, 1000, 2000), stats(2000, 1000, 1000));
        assert!((t.mem_slowdown() - 2.0).abs() < 0.01);
    }

    #[test]
    fn unfairness_of_equal_threads_is_one() {
        let a = tm("a", stats(4000, 1000, 2000), stats(2000, 1000, 1000));
        let w = WorkloadMetrics {
            scheduler: "x".into(),
            threads: vec![a.clone(), a],
        };
        assert!((w.unfairness() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unfairness_of_single_thread_is_one() {
        let a = tm("a", stats(4000, 1000, 2000), stats(2000, 1000, 1000));
        let w = WorkloadMetrics {
            scheduler: "x".into(),
            threads: vec![a],
        };
        assert!((w.unfairness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_alone_ipc_yields_zero_ratio_not_nan() {
        // An alone run that never retired anything (cycles = 0): the IPC
        // ratio must degrade to 0.0, not divide by zero.
        let t = tm("z", stats(1000, 500, 100), stats(0, 0, 0));
        assert_eq!(t.ipc_ratio(), 0.0);
        // And the slowdown stays finite thanks to the MCPI guard + epsilon.
        assert!(t.mem_slowdown().is_finite());
    }

    #[test]
    fn nonpositive_slowdowns_pin_unfairness_to_infinity() {
        assert!(unfairness_from_slowdowns(&[1.5, 0.0]).is_infinite());
        assert!(unfairness_from_slowdowns(&[2.0, -0.5]).is_infinite());
    }

    #[test]
    fn degenerate_slowdown_sets() {
        assert_eq!(unfairness_from_slowdowns(&[]), 1.0);
        assert_eq!(unfairness_from_slowdowns(&[3.0]), 1.0);
        assert_eq!(unfairness_from_slowdowns(&[1.0, 4.0]), 4.0);
    }

    #[test]
    fn throughput_metrics() {
        // Thread a: IPC 0.25 shared vs 0.5 alone (ratio 0.5).
        // Thread b: IPC 1.0 shared vs 1.0 alone (ratio 1.0).
        let a = tm("a", stats(4000, 1000, 2000), stats(2000, 1000, 1000));
        let b = tm("b", stats(1000, 1000, 0), stats(1000, 1000, 0));
        let w = WorkloadMetrics {
            scheduler: "x".into(),
            threads: vec![a, b],
        };
        assert!((w.weighted_speedup() - 1.5).abs() < 1e-9);
        assert!((w.hmean_speedup() - (2.0 / 3.0)).abs() < 1e-9);
        assert!((w.sum_of_ipcs() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn near_zero_alone_mcpi_is_regularized() {
        let t = tm("povray", stats(1000, 1000, 5), stats(1000, 1000, 0));
        assert!(t.mem_slowdown().is_finite());
        assert!(t.mem_slowdown() < 3.0);
    }

    #[test]
    fn gmean_basics() {
        assert!((gmean([2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((gmean([5.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_nonpositive() {
        gmean([1.0, 0.0]);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use stfm_dram::rng::SmallRng;

    fn stats(cycles: u64, insts: u64, stalls: u64) -> CoreStats {
        CoreStats {
            cycles,
            instructions: insts,
            mem_stall_cycles: stalls.min(cycles),
            ..CoreStats::default()
        }
    }

    /// Metric identities that must hold for any measurements:
    /// unfairness >= 1, hmean <= arithmetic mean of IPC ratios
    /// (= weighted speedup / n), and all metrics finite.
    #[test]
    fn metric_identities() {
        let mut rng = SmallRng::seed_from_u64(0x3E721C01);
        for _ in 0..256 {
            let n = rng.random_range(2usize..9);
            let threads: Vec<ThreadMetrics> = (0..n)
                .map(|_| {
                    let insts = rng.random_range(1_000u64..1_000_000);
                    ThreadMetrics {
                        name: "t".into(),
                        shared: stats(
                            rng.random_range(1_000u64..10_000_000),
                            insts,
                            rng.random_range(0u64..9_000_000),
                        ),
                        alone: stats(
                            rng.random_range(1_000u64..10_000_000),
                            insts,
                            rng.random_range(0u64..9_000_000),
                        ),
                    }
                })
                .collect();
            let w = WorkloadMetrics {
                scheduler: "x".into(),
                threads,
            };
            let n = w.threads.len() as f64;
            assert!(w.unfairness() >= 1.0 - 1e-12);
            assert!(w.unfairness().is_finite());
            assert!(w.weighted_speedup().is_finite() && w.weighted_speedup() > 0.0);
            assert!(
                w.hmean_speedup() <= w.weighted_speedup() / n + 1e-9,
                "hmean {} > amean {}",
                w.hmean_speedup(),
                w.weighted_speedup() / n
            );
            for t in &w.threads {
                assert!(t.mem_slowdown() > 0.0 && t.mem_slowdown().is_finite());
            }
        }
    }

    /// gmean lies between min and max, and is scale-covariant.
    #[test]
    fn gmean_properties() {
        let mut rng = SmallRng::seed_from_u64(0x3E721C02);
        for _ in 0..256 {
            let n = rng.random_range(1usize..20);
            let values: Vec<f64> = (0..n).map(|_| 0.01 + rng.random_f64() * 99.99).collect();
            let k = 0.1 + rng.random_f64() * 9.9;
            let g = gmean(values.iter().copied());
            let lo = values.iter().cloned().fold(f64::MAX, f64::min);
            let hi = values.iter().cloned().fold(f64::MIN, f64::max);
            assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
            let gk = gmean(values.iter().map(|v| v * k));
            assert!((gk - g * k).abs() < 1e-6 * gk.max(1.0));
        }
    }
}
