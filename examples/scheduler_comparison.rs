//! Compare all five schedulers on any workload you compose.
//!
//! Pass benchmark names (from the paper's Table 3 / Table 4 suites) on the
//! command line; defaults to the paper's mixed case study:
//!
//! ```sh
//! cargo run --release --example scheduler_comparison -- mcf libquantum dealII h264ref
//! ```

use stfm_repro::sim::{AloneCache, Experiment, SchedulerKind, Table};
use stfm_repro::workloads::{by_name, mix, Profile};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profiles: Vec<Profile> = if args.is_empty() {
        mix::case_study_mixed()
    } else {
        args.iter()
            .map(|n| by_name(n).unwrap_or_else(|e| panic!("{e}")))
            .collect()
    };
    let names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
    println!("workload: {names:?} ({} cores)\n", profiles.len());

    let cache = AloneCache::new();
    let mut headers = vec!["scheduler".to_string()];
    headers.extend(names.iter().map(|n| n.to_string()));
    headers.extend(["unfairness".into(), "w-speedup".into(), "hmean".into()]);
    let mut table = Table::new(headers);
    for kind in SchedulerKind::all() {
        let m = Experiment::new(profiles.clone())
            .scheduler(kind)
            .instructions_per_thread(60_000)
            .run_with_cache(&cache);
        let mut row = vec![m.scheduler.clone()];
        row.extend(m.threads.iter().map(|t| format!("{:.2}", t.mem_slowdown())));
        row.push(format!("{:.2}", m.unfairness()));
        row.push(format!("{:.2}", m.weighted_speedup()));
        row.push(format!("{:.3}", m.hmean_speedup()));
        table.row(row);
    }
    println!("{table}");
    println!("Cells are per-thread memory slowdowns (MCPI shared / MCPI alone).");
}
