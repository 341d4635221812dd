//! Table 5: sensitivity of fairness and throughput to the number of DRAM
//! banks (4/8/16) and the per-chip row-buffer size (1/2/4 KB), FR-FCFS vs
//! STFM, averaged over 8-core workloads. The default uses 8 of the 32
//! mixes; pass `--full` for all 32.

use stfm_bench::{report, Args};
use stfm_sim::{gmean, AloneCache, SchedulerKind, Table, WorkloadMetrics};
use stfm_workloads::mix;

fn sweep(
    label: String,
    banks: Option<u32>,
    row_kb: Option<u32>,
    mixes: &[Vec<stfm_workloads::Profile>],
    args: &Args,
    t: &mut Table,
) {
    let kinds = [SchedulerKind::FrFcfs, SchedulerKind::Stfm];
    let cells: Vec<_> = mixes
        .iter()
        .flat_map(|m| report::cells_for(m, &kinds, args.insts, args.seed))
        .map(|mut cell| {
            cell.banks = banks;
            cell.row_kb = row_kb;
            cell
        })
        .collect();
    let results = report::run_cells(&cells, &AloneCache::new(), args.jobs);
    let mean = |kind: usize, metric: fn(&WorkloadMetrics) -> f64| {
        gmean(results.iter().skip(kind).step_by(kinds.len()).map(metric))
    };
    let [fu, su] = [0, 1].map(|kind| mean(kind, WorkloadMetrics::unfairness));
    let [fw, sw] = [0, 1].map(|kind| mean(kind, WorkloadMetrics::weighted_speedup));
    let mut row = vec![label];
    row.extend([
        format!("{fu:.2}"),
        format!("{fw:.2}"),
        format!("{su:.2}"),
        format!("{sw:.2}"),
        // The paper's Table 5 "Improvement" row: FR-FCFS / STFM unfairness.
        format!("{:.2}X", fu / su),
        format!("{:+.1}%", (sw / fw - 1.0) * 100.0),
    ]);
    t.row(row);
}

fn main() {
    let args = Args::parse(30_000);
    let all = mix::eight_core_mixes();
    let mixes: Vec<_> = if args.full {
        all
    } else {
        all.into_iter().step_by(4).collect()
    };
    println!(
        "Table 5 over {} 8-core mixes (use --full for all 32)\n",
        mixes.len()
    );
    let mut t = Table::new([
        "config",
        "FR-FCFS unfairness",
        "FR-FCFS w-speedup",
        "STFM unfairness",
        "STFM w-speedup",
        "unfairness impr.",
        "w-speedup impr.",
    ]);
    for banks in [4u32, 8, 16] {
        sweep(
            format!("{banks} banks / 2KB row"),
            Some(banks),
            None,
            &mixes,
            &args,
            &mut t,
        );
    }
    for row_kb in [1u32, 2, 4] {
        sweep(
            format!("8 banks / {row_kb}KB row"),
            None,
            Some(row_kb),
            &mixes,
            &args,
            &mut t,
        );
    }
    println!("{t}");
}
