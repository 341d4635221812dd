//! Table 3 (and Table 4 with `--full`): alone-run characterization of the
//! synthetic benchmarks — measured MCPI, L2 MPKI and row-buffer hit rate
//! against the paper's targets.

use stfm_bench::{cli::USAGE, Args};
use stfm_sim::{SchedulerKind, Table};
use stfm_workloads::{desktop, spec, Profile};

/// Measured alone-run characterization, including the controller-side
/// row-buffer hit rate.
fn characterize(p: &Profile, insts: u64, seed: u64) -> (f64, f64, f64) {
    let mut sys = stfm_bench::system(std::slice::from_ref(p), SchedulerKind::FrFcfs, seed);
    let out = sys.run_with_warmup(insts / 4, insts, insts.saturating_mul(4_000));
    let stats = out.frozen[0];
    let rb = out.frozen_mem[0].row_hit_rate();
    (stats.mcpi(), stats.l2_mpki(), rb)
}

fn main() {
    let (args, _) = Args::parse(USAGE, &[]);
    let insts = args.insts.unwrap_or(120_000);
    let mut profiles = spec::all();
    if args.full {
        profiles.extend(desktop::workload());
    }
    let mut t = Table::new([
        "benchmark",
        "cat",
        "MCPI(paper)",
        "MCPI(ours)",
        "MPKI(paper)",
        "MPKI(ours)",
        "RBhit(paper)",
        "RBhit(ours)",
    ]);
    for p in &profiles {
        let (mcpi, mpki, rb) = characterize(p, insts, args.seed);
        t.row([
            p.name.to_string(),
            p.category.index().to_string(),
            format!("{:.2}", p.targets.mcpi),
            format!("{mcpi:.2}"),
            format!("{:.2}", p.targets.mpki),
            format!("{mpki:.2}"),
            format!("{:.1}%", p.targets.rb_hit * 100.0),
            format!("{:.1}%", rb * 100.0),
        ]);
    }
    println!("== Table 3 (+ Table 4 with --full): alone-run characterization ==\n");
    println!("{t}");
}
