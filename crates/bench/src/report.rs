//! Report helpers: the recurring "slowdowns + unfairness + throughput"
//! layout of the paper's case-study figures, and averaged sweeps.

use stfm_serve::{run_sweep, Cell, ResultCache, SchedSpec};
use stfm_sim::{gmean, AloneCache, SchedulerKind, Table, WorkloadMetrics};
use stfm_workloads::Profile;

/// Builds one spec cell per scheduler for a fixed mix (the building block
/// every figure harness shares with `stfm sweep` / `stfm serve`).
pub fn cells_for(
    profiles: &[Profile],
    kinds: &[SchedulerKind],
    insts: u64,
    seed: u64,
) -> Vec<Cell> {
    let names: Vec<String> = profiles.iter().map(|p| p.name.to_string()).collect();
    kinds
        .iter()
        .map(|k| {
            Cell::new(SchedSpec::from_kind(*k), names.clone())
                .insts(insts)
                .seed(seed)
        })
        .collect()
}

/// Runs cells through the shared service runner and returns metrics in
/// input order.
///
/// # Panics
///
/// Panics on the unknown-benchmark error, which is unreachable for cells
/// built from real [`Profile`]s.
pub fn run_cells(cells: &[Cell], alone: &AloneCache, jobs: Option<usize>) -> Vec<WorkloadMetrics> {
    let results = ResultCache::in_memory();
    let mut out = Vec::with_capacity(cells.len());
    match run_sweep(cells, alone, &results, jobs, |o| out.push(o.metrics)) {
        Ok(_) => out,
        Err(e) => panic!("cell sweep failed: {e}"),
    }
}

/// Runs `profiles` under every scheduler in `kinds` and prints the
/// case-study layout (per-thread memory slowdowns, unfairness, and the
/// three throughput metrics). Returns the metrics for further processing.
pub fn compare_schedulers(
    title: &str,
    profiles: &[Profile],
    kinds: &[SchedulerKind],
    insts: u64,
    seed: u64,
    jobs: Option<usize>,
) -> Vec<WorkloadMetrics> {
    let cells = cells_for(profiles, kinds, insts, seed);
    let results = run_cells(&cells, &AloneCache::new(), jobs);
    print_comparison(title, profiles, &results);
    results
}

/// Prints the case-study layout for precomputed results.
pub fn print_comparison(title: &str, profiles: &[Profile], results: &[WorkloadMetrics]) {
    println!("== {title} ==\n");
    let mut headers: Vec<String> = vec!["scheduler".into()];
    headers.extend(profiles.iter().map(|p| p.name.to_string()));
    headers.extend(
        ["unfairness", "w-speedup", "sum-ipc", "hmean"]
            .iter()
            .map(|s| s.to_string()),
    );
    let mut t = Table::new(headers);
    for m in results {
        let mut row = vec![m.scheduler.clone()];
        row.extend(m.threads.iter().map(|x| format!("{:.2}", x.mem_slowdown())));
        row.push(format!("{:.2}", m.unfairness()));
        row.push(format!("{:.2}", m.weighted_speedup()));
        row.push(format!("{:.2}", m.sum_of_ipcs()));
        row.push(format!("{:.3}", m.hmean_speedup()));
        t.row(row);
    }
    println!("{t}");
}

/// Aggregate of one scheduler over many workloads (the paper's
/// geometric-mean bars).
#[derive(Debug, Clone)]
pub struct SchedulerAverages {
    /// Scheduler name.
    pub scheduler: String,
    /// Geometric-mean unfairness.
    pub unfairness: f64,
    /// Geometric-mean weighted speedup.
    pub weighted_speedup: f64,
    /// Geometric-mean sum of IPCs.
    pub sum_of_ipcs: f64,
    /// Geometric-mean hmean speedup.
    pub hmean_speedup: f64,
}

/// Runs every mix under every scheduler and returns per-scheduler
/// geometric means (the Figure 9/11/12 aggregation).
pub fn averaged_sweep(
    mixes: &[Vec<Profile>],
    kinds: &[SchedulerKind],
    insts: u64,
    seed: u64,
    jobs: Option<usize>,
) -> Vec<SchedulerAverages> {
    let alone = AloneCache::new();
    let mut cells = Vec::with_capacity(kinds.len() * mixes.len());
    for kind in kinds {
        for mix in mixes {
            cells.extend(cells_for(mix, std::slice::from_ref(kind), insts, seed));
        }
    }
    let all = run_cells(&cells, &alone, jobs);
    kinds
        .iter()
        .zip(all.chunks(mixes.len().max(1)))
        .map(|(kind, results)| SchedulerAverages {
            scheduler: kind.name().to_string(),
            unfairness: gmean(results.iter().map(|m| m.unfairness())),
            weighted_speedup: gmean(results.iter().map(|m| m.weighted_speedup())),
            sum_of_ipcs: gmean(results.iter().map(|m| m.sum_of_ipcs())),
            hmean_speedup: gmean(results.iter().map(|m| m.hmean_speedup())),
        })
        .collect()
}

/// Prints [`averaged_sweep`] output in the paper's bar-chart layout.
pub fn print_averages(title: &str, averages: &[SchedulerAverages]) {
    println!("== {title} ==\n");
    let mut t = Table::new([
        "scheduler",
        "GMEAN-unfairness",
        "GMEAN-w-speedup",
        "GMEAN-sum-ipc",
        "GMEAN-hmean",
    ]);
    for a in averages {
        t.row([
            a.scheduler.clone(),
            format!("{:.2}", a.unfairness),
            format!("{:.2}", a.weighted_speedup),
            format!("{:.2}", a.sum_of_ipcs),
            format!("{:.3}", a.hmean_speedup),
        ]);
    }
    println!("{t}");
}
