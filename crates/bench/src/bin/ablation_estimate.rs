//! Ablation: accuracy of STFM's *internal* slowdown estimate
//! (`Tshared / (Tshared − Tinterference)`) against the ground-truth
//! measured memory slowdown (`MCPI_shared / MCPI_alone`). The paper notes
//! (Section 7.2.1) that residual unfairness stems from estimation error —
//! this harness quantifies it.

use std::any::Any;
use stfm_bench::Args;
use stfm_core::{Stfm, StfmConfig};
use stfm_cpu::Core;
use stfm_dram::DramConfig;
use stfm_mc::{MemorySystem, ThreadId};
use stfm_sim::{run_alone, SchedulerKind, System, Table};
use stfm_workloads::{mix, SyntheticTrace};

fn run_one(passive: bool, args: &Args) {
    let profiles = mix::case_study_intensive();
    let dram = DramConfig::for_cores(profiles.len() as u32);
    let kind = if passive {
        // Passive: enormous α keeps STFM in FR-FCFS mode, so its estimates
        // can be validated open loop against measured slowdowns.
        SchedulerKind::StfmWith(StfmConfig {
            alpha: 1e6,
            ..StfmConfig::default()
        })
    } else {
        SchedulerKind::Stfm
    };
    let mem = MemorySystem::new(dram.clone(), kind.build(dram.timing, &[], &[]));
    let cores: Vec<Core> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let tr = SyntheticTrace::new(p.clone(), &dram, i as u32, args.seed);
            Core::new(ThreadId(i as u32), Box::new(tr))
        })
        .collect();
    let mut sys = System::new(cores, mem);
    let out = sys.run(args.insts, args.insts * 4_000);

    let Some(stfm) = (sys.memory().policy() as &dyn Any).downcast_ref::<Stfm>() else {
        panic!("ablation_estimate: the system was not built with the STFM policy");
    };

    let mut t = Table::new([
        "benchmark",
        "measured slowdown",
        "STFM estimate",
        "error %",
        "Tshared",
        "Tinterference",
    ]);
    for (i, p) in profiles.iter().enumerate() {
        let alone = run_alone(p, &dram, args.insts, args.seed);
        let shared = &out.frozen[i];
        let measured = (shared.mcpi() + 0.005) / (alone.mcpi() + 0.005);
        let estimate = stfm.slowdown_estimate(ThreadId(i as u32));
        let regs = stfm.registers().thread(ThreadId(i as u32));
        t.row([
            p.name.to_string(),
            format!("{measured:.2}"),
            format!("{estimate:.2}"),
            format!("{:+.1}", (estimate / measured - 1.0) * 100.0),
            regs.map(|r| r.tshared().to_string()).unwrap_or_default(),
            regs.map(|r| r.tinterference.to_string())
                .unwrap_or_default(),
        ]);
    }
    println!(
        "== Ablation: STFM slowdown-estimate accuracy ({}) ==\n\n{t}",
        if passive {
            "open loop, fairness rule off"
        } else {
            "closed loop"
        }
    );
    let [bus, bank, own] = stfm.charge_totals();
    println!("charge totals: bus {bus}, bank {bank}, own {own}\n");
}

fn main() {
    let args = Args::parse(150_000);
    run_one(true, &args);
    run_one(false, &args);
}
