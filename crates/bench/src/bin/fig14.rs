//! Figure 14: thread weights. libquantum/cactusADM/astar/omnetpp with
//! weights 1-16-1-1 (left) and 1-4-8-1 (right), comparing FR-FCFS,
//! NFQ with proportional bandwidth shares, and STFM with weights.

use stfm_bench::{cli::USAGE, Args};
use stfm_sim::{AloneCache, Experiment, SchedulerKind, Table};
use stfm_workloads::mix;

fn run_weighted(weights: [u32; 4], insts: u64, seed: u64, cache: &AloneCache) {
    let profiles = mix::fig14_weights();
    let mut t = Table::new([
        "scheduler",
        "libquantum",
        "cactusADM",
        "astar",
        "omnetpp",
        "unfairness(equal-pri)",
    ]);
    for kind in [
        SchedulerKind::FrFcfs,
        SchedulerKind::Nfq,
        SchedulerKind::Stfm,
    ] {
        let mut e = Experiment::new(profiles.clone())
            .scheduler(kind)
            .instructions_per_thread(insts)
            .seed(seed);
        for (i, w) in weights.iter().enumerate() {
            e = match kind {
                SchedulerKind::Nfq => e.share(i as u32, *w),
                SchedulerKind::Stfm => e.weight(i as u32, *w),
                _ => e,
            };
        }
        let m = e.run_with_cache(cache);
        // Unfairness among the *equal-priority* (weight-1) threads only.
        let equal: Vec<f64> = m
            .threads
            .iter()
            .zip(weights)
            .filter(|(_, w)| *w == 1)
            .map(|(x, _)| x.mem_slowdown())
            .collect();
        let unfair = equal.iter().cloned().fold(f64::MIN, f64::max)
            / equal.iter().cloned().fold(f64::MAX, f64::min);
        let w = weights.map(|w| w.to_string()).join("-");
        let label = match kind {
            SchedulerKind::Nfq => format!("NFQ-shares-{w}"),
            SchedulerKind::Stfm => format!("STFM-weights-{w}"),
            _ => "FR-FCFS".to_string(),
        };
        let mut row = vec![label];
        row.extend(m.threads.iter().map(|x| format!("{:.2}", x.mem_slowdown())));
        row.push(format!("{unfair:.2}"));
        t.row(row);
    }
    println!("== Figure 14: weights {weights:?} ==\n\n{t}");
}

fn main() {
    let (args, _) = Args::parse(USAGE, &[]);
    let insts = args.insts.unwrap_or(150_000);
    let cache = AloneCache::new();
    run_weighted([1, 16, 1, 1], insts, args.seed, &cache);
    run_weighted([1, 4, 8, 1], insts, args.seed, &cache);
}
