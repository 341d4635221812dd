//! One run, every budget, tier-1. A run measured for the budgets
//! `[N, 3N]` at once must give each budget exactly what a run for that
//! budget alone gives: every frozen statistic, the max read latency
//! (which the loop keeps per segment between marks), the run length and
//! both verdicts. An experiment's metrics at each budget, alone
//! baselines included, must equal `try_run` at that budget. And the
//! two-budget run ends on the 3N run's cycle: the extra budget cost no
//! extra simulation.

use stfm_repro::sim::{AloneCache, Budget, Experiment, SchedulerKind};
use stfm_repro::workloads::{mix, Profile};

const N: u64 = 2_000;

/// Every policy on `profiles`, at `[N, 3N]`.
fn windows_equal_single_runs(profiles: &[Profile]) {
    let insts = [N, 3 * N];
    let budgets = insts.map(Budget::of);
    // One cache per path, each shared across policies: the two paths'
    // baselines are computed independently of each other.
    let (together_cache, single_cache) = (AloneCache::new(), AloneCache::new());
    for kind in SchedulerKind::all() {
        let exp = Experiment::new(profiles.to_vec()).scheduler(kind);
        let mut sys = exp.shared_system();
        let together = sys.run(&budgets);
        for (budget, outcome) in budgets.iter().zip(&together) {
            let mut single = exp.shared_system();
            let alone = single.run(&[*budget]).remove(0);
            assert!(!outcome.truncated, "{kind:?}, {budget:?}: truncated");
            assert_eq!(&alone, outcome, "{kind:?}, {budget:?}");
            if budget.insts == 3 * N {
                assert_eq!(single.memory().now(), sys.memory().now(), "{kind:?}");
            }
        }
        let metrics = exp.try_run_budgets(&insts, &together_cache, None);
        for (n, got) in insts.into_iter().zip(metrics) {
            let single = exp.clone().instructions_per_thread(n);
            let want = single.try_run(&single_cache, None);
            assert!(got.is_ok(), "{kind:?} at {n} instructions: {got:?}");
            assert_eq!(got, want, "{kind:?} at {n} instructions");
        }
    }
}

#[test]
fn four_core_windows_equal_single_runs() {
    windows_equal_single_runs(&mix::case_study_intensive());
}

#[test]
fn eight_core_windows_equal_single_runs() {
    windows_equal_single_runs(&mix::eight_core_mixes()[4]);
}
