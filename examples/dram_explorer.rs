//! Drive the cycle-level DRAM model directly: issue commands by hand and
//! watch bank state, timing windows, and access categories.
//!
//! A miniature tour of the `stfm-dram` crate for anyone who wants to use
//! the device model without the full simulator:
//!
//! ```sh
//! cargo run --release --example dram_explorer
//! ```

use stfm_repro::dram::{
    AccessCategory, AddressMapping, BankId, Channel, ClockRatio, DramCommand, DramConfig,
    DramCycle, PhysAddr, TimingChecker,
};

fn main() {
    let cfg = DramConfig {
        refresh_enabled: false,
        ..DramConfig::ddr2_800()
    };
    let t = cfg.timing;
    println!(
        "DDR2-800, {} banks, {} B rows (DIMM level), tCK = 2.5 ns",
        cfg.banks,
        cfg.row_bytes()
    );
    println!(
        "tCL={} tRCD={} tRP={} tRAS={} BL/2={} (DRAM cycles)\n",
        t.t_cl,
        t.t_rcd,
        t.t_rp,
        t.t_ras,
        t.burst_cycles()
    );

    // Where do addresses land?
    let mapping = AddressMapping::new(&cfg);
    println!("address mapping (line-interleaved, XOR-permuted banks):");
    for addr in [0u64, 64, 16 * 1024, 16 * 1024 * 8, 16 * 1024 * 8 * 2] {
        let d = mapping.decode(PhysAddr(addr));
        println!(
            "  {:>10} -> bank {} row {:>4} col {:>3}",
            format!("{addr:#x}"),
            d.bank.0,
            d.row,
            d.col
        );
    }

    // Hand-issue a row cycle and audit it.
    let mut ch = Channel::new(&cfg);
    let mut checker = TimingChecker::new(cfg.banks, t);
    let mut now = DramCycle::ZERO;
    let issue =
        |ch: &mut Channel, checker: &mut TimingChecker, cmd: DramCommand, now: &mut DramCycle| {
            while !ch.can_issue(&cmd, *now) {
                *now += 1;
            }
            let done = ch.issue(&cmd, *now);
            checker.observe(&cmd, *now);
            println!("  cycle {:>3}: {cmd}   (completes at {done})", *now);
            *now += 1;
            done
        };

    println!("\na full row cycle on bank 0:");
    let b = BankId(0);
    println!(
        "  category before open: {:?}",
        AccessCategory::classify(ch.bank(b).open_row(), 7)
    );
    issue(&mut ch, &mut checker, DramCommand::activate(b, 7), &mut now);
    let done = issue(&mut ch, &mut checker, DramCommand::read(b, 7, 0), &mut now);
    println!(
        "  -> uncontended row-closed read: data at DRAM cycle {done} = {} CPU cycles = {} ns",
        ClockRatio::PAPER.dram_to_cpu(done),
        ClockRatio::PAPER.dram_to_cpu(done).get() / 4
    );
    issue(&mut ch, &mut checker, DramCommand::read(b, 7, 1), &mut now);
    issue(&mut ch, &mut checker, DramCommand::precharge(b), &mut now);
    issue(&mut ch, &mut checker, DramCommand::activate(b, 8), &mut now);

    let violations = checker.violations();
    assert!(
        violations.is_empty(),
        "timing violation: {:?}",
        violations.first()
    );
    println!("\ntiming checker: every issued command was DDR2-legal.");
    println!(
        "channel stats: {} ACT, {} PRE, {} RD, {} WR",
        ch.stats().activates,
        ch.stats().precharges,
        ch.stats().reads,
        ch.stats().writes
    );
}
