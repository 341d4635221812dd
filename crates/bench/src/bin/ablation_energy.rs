//! Extension: DRAM energy per scheduler. Fairness scheduling changes the
//! row-buffer hit rate (more precharge/activate cycles), which shows up as
//! activation energy; this harness quantifies the cost using the
//! Micron-power-calculator model in `stfm-dram::power`.

use stfm_bench::{cli::USAGE, Args};
use stfm_dram::{EnergyModel, PowerParams};
use stfm_sim::{RunStop, SchedulerKind, Table};
use stfm_workloads::mix;

fn main() {
    let (args, _) = Args::parse(USAGE, &[]);
    let insts = args.insts.unwrap_or(100_000);
    let profiles = mix::case_study_intensive();
    let mut t = Table::new([
        "scheduler",
        "ACT energy (µJ)",
        "RD/WR energy (µJ)",
        "background (µJ)",
        "total (µJ)",
        "avg power (mW)",
        "nJ per serviced request",
    ]);
    for kind in SchedulerKind::all() {
        let mut sys = stfm_bench::system(&profiles, kind, args.seed);
        let model = EnergyModel::new(sys.memory().dram_config(), PowerParams::default());
        sys.memory_mut().set_sink(Box::new(model));
        let out = sys.run(insts, insts * 4_000);
        if let Some(stop) = RunStop::of(&out) {
            panic!("{} run {stop}", kind.name());
        }
        let mut sink = sys.memory_mut().take_sink();
        let Some(model) = sink.as_any_mut().downcast_mut::<EnergyModel>() else {
            unreachable!("the energy model is the sink this run attached");
        };
        let e = model.breakdown(sys.memory().now());
        let serviced = sys.memory().stats().completed.max(1);
        let cycles: u64 = sys
            .cores()
            .iter()
            .map(|c| c.stats().cycles)
            .max()
            .unwrap_or(1);
        let avg_power_mw = e.total_nj() / (cycles as f64 * 0.25) * 1e3
            / f64::from(sys.memory().dram_config().channels);
        t.row([
            kind.name().to_string(),
            format!("{:.1}", e.activate_nj / 1e3),
            format!("{:.1}", (e.read_nj + e.write_nj) / 1e3),
            format!("{:.1}", e.background_nj / 1e3),
            format!("{:.1}", e.total_nj() / 1e3),
            format!("{:.0}", avg_power_mw),
            format!("{:.0}", e.total_nj() / serviced as f64),
        ]);
    }
    println!("== Extension: DRAM energy by scheduler (case-study-I workload) ==\n\n{t}");
    println!("Fairness policies that sacrifice row-buffer locality pay in ACT energy;");
    println!("policies that stretch the run pay in background energy.");
}
