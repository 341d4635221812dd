//! Figure 5: 2-core systems — mcf run with every other benchmark under
//! FR-FCFS (a) and STFM (b), plus the throughput metrics (c).

use stfm_bench::{report, Args};
use stfm_sim::{gmean, AloneCache, SchedulerKind, Table};
use stfm_workloads::mix;

fn main() {
    let args = Args::parse(100_000);
    let pairs = mix::mcf_pairs();
    let kinds = [SchedulerKind::FrFcfs, SchedulerKind::Stfm];
    let cells: Vec<_> = pairs
        .iter()
        .flat_map(|pair| report::cells_for(pair, &kinds, args.insts, args.seed))
        .collect();
    let results = report::run_cells(&cells, &AloneCache::new(), args.jobs);

    let mut t = Table::new([
        "other benchmark",
        "FR-FCFS mcf",
        "FR-FCFS other",
        "FR-FCFS unfair",
        "STFM mcf",
        "STFM other",
        "STFM unfair",
        "dWS%",
        "dHmean%",
    ]);
    let mut unfair = (Vec::new(), Vec::new());
    let mut ws_gain = Vec::new();
    let mut hm_gain = Vec::new();
    for (pair, r) in pairs.iter().zip(results.chunks(kinds.len())) {
        let (fr, st) = (&r[0], &r[1]);
        unfair.0.push(fr.unfairness());
        unfair.1.push(st.unfairness());
        let dws = (st.weighted_speedup() / fr.weighted_speedup() - 1.0) * 100.0;
        let dhm = (st.hmean_speedup() / fr.hmean_speedup() - 1.0) * 100.0;
        ws_gain.push(dws);
        hm_gain.push(dhm);
        t.row([
            pair[1].name.to_string(),
            format!("{:.2}", fr.threads[0].mem_slowdown()),
            format!("{:.2}", fr.threads[1].mem_slowdown()),
            format!("{:.2}", fr.unfairness()),
            format!("{:.2}", st.threads[0].mem_slowdown()),
            format!("{:.2}", st.threads[1].mem_slowdown()),
            format!("{:.2}", st.unfairness()),
            format!("{dws:+.1}"),
            format!("{dhm:+.1}"),
        ]);
    }
    println!("== Figure 5: mcf paired with each benchmark (2-core) ==\n");
    println!("{t}");
    println!(
        "GMEAN unfairness: FR-FCFS {:.2} -> STFM {:.2}",
        gmean(unfair.0.iter().copied()),
        gmean(unfair.1.iter().copied())
    );
    println!(
        "mean weighted-speedup gain {:+.1}%, mean hmean-speedup gain {:+.1}%",
        ws_gain.iter().sum::<f64>() / ws_gain.len() as f64,
        hm_gain.iter().sum::<f64>() / hm_gain.len() as f64
    );
}
