//! Per-layer kernels: ns/op micro-loops over one public function each,
//! the five of `benches/micro.rs` rebuilt here plus new ones. Each is
//! the minimum of five batches, so a number moves when the code under
//! it changes and not when the host hiccups. They take no workload
//! input, so one workload's process runs them (`names::KERNELS_RUN_IN`).

use std::time::Instant;

use stfm_cpu::{Cache, CacheAccess, TraceSource};
use stfm_dram::{
    AddressMapping, BankId, Channel, CpuCycle, DramCommand, DramConfig, DramCycle, PhysAddr,
};
use stfm_mc::{AccessKind, MemorySystem, ThreadId};
use stfm_serve::{expand_line, json, parse_result_line, result_line};
use stfm_sim::{Experiment, SchedulerKind};
use stfm_telemetry::{Event, JsonLinesSink, RingSink, Sink};
use stfm_workloads::{spec, SyntheticTrace};

use crate::measure::{min_ns_per_op, time_calls, Outcome};
use crate::names::{per_sched, SCHEDS};

fn no_refresh() -> DramConfig {
    DramConfig {
        refresh_enabled: false,
        ..DramConfig::ddr2_800()
    }
}

/// A memory system under scheduler `sched` with 64 reads queued from
/// four threads (the `mem_system_tick_64_queued` set-up of `micro.rs`).
/// Returns it with the ns the 64 `try_enqueue` calls took.
fn queued_64(cfg: &DramConfig, sched: usize) -> (MemorySystem, u128) {
    let policy = SchedulerKind::all()[sched].build(cfg.timing, &[], &[]);
    let mut mem = MemorySystem::new(cfg.clone(), policy);
    let start = Instant::now();
    for i in 0..64u64 {
        std::hint::black_box(mem.try_enqueue(
            ThreadId((i % 4) as u32),
            AccessKind::Read,
            PhysAddr((i * 64) ^ ((i % 13) << 20)),
            CpuCycle::ZERO,
            0,
        ));
    }
    (mem, start.elapsed().as_nanos())
}

/// Measures every kernel and records it in `out`. `scale` divides the
/// iteration counts (`--quick` passes 10).
pub fn run(out: &mut Outcome, scale: u64) {
    let cfg = no_refresh();
    let reps = (400 / scale).max(4);

    // mc: 32 ticks over 64 queued requests, per tick and per scheduler.
    for sched in 0..SCHEDS.len() {
        let ns = min_ns_per_op(|| {
            let mut total = 0;
            for _ in 0..reps {
                let (mut mem, _) = queued_64(&cfg, sched);
                let start = Instant::now();
                for now in 0..32u64 {
                    mem.tick(DramCycle::new(now));
                }
                total += start.elapsed().as_nanos();
                std::hint::black_box(mem.outstanding());
            }
            (total, reps * 32)
        });
        out.set(per_sched("mc.tick64_ns", sched), ns);
    }
    out.set(
        "mc.try_enqueue_ns",
        min_ns_per_op(|| {
            let total: u128 = (0..reps).map(|_| queued_64(&cfg, 0).1).sum();
            (total, reps * 64)
        }),
    );
    // `predict_next` right after a tick, when the ticked channel's cached
    // edge is stale and has to be rescanned.
    out.set(
        "mc.predict_next_ns",
        min_ns_per_op(|| {
            let mut total = 0;
            for _ in 0..reps {
                let (mut mem, _) = queued_64(&cfg, 0);
                for now in 0..32u64 {
                    mem.tick(DramCycle::new(now));
                    let start = Instant::now();
                    std::hint::black_box(mem.predict_next(DramCycle::new(now + 1)));
                    total += start.elapsed().as_nanos();
                }
            }
            (total, reps * 32)
        }),
    );

    // dram: the activate/read/precharge walk of `micro.rs`, per command.
    let t = cfg.timing;
    out.set(
        "dram.channel_issue_ns",
        min_ns_per_op(|| {
            time_calls(reps * 5, || {
                let mut ch = Channel::new(&cfg);
                let mut now = DramCycle::ZERO;
                for i in 0..64u32 {
                    let bank = BankId(i % 8);
                    ch.issue(&DramCommand::activate(bank, i), now);
                    now += t.t_rcd;
                    ch.issue(&DramCommand::read(bank, i, 0), now);
                    now += t.t_ras;
                    ch.issue(&DramCommand::precharge(bank), now);
                    now += t.t_rp;
                }
                ch.stats().reads
            })
        }) / 192.0,
    );
    let mut ch = Channel::new(&cfg);
    ch.issue(&DramCommand::activate(BankId(0), 7), DramCycle::ZERO);
    let probes = [
        DramCommand::read(BankId(0), 7, 0),
        DramCommand::activate(BankId(1), 3),
        DramCommand::precharge(BankId(0)),
        DramCommand::write(BankId(0), 7, 8),
    ];
    let mut i = 0usize;
    out.set(
        "dram.earliest_issue_ns",
        min_ns_per_op(|| {
            time_calls(2_000_000 / scale, || {
                i = i.wrapping_add(1);
                ch.earliest_issue(&probes[i % 4], DramCycle::new(i as u64 % 64))
            })
        }),
    );
    let mapping = AddressMapping::new(&DramConfig::for_cores(16));
    let mut addr = 0u64;
    out.set(
        "dram.addr_decode_ns",
        min_ns_per_op(|| {
            time_calls(4_000_000 / scale, || {
                addr = addr.wrapping_add(0x1040);
                mapping.decode(PhysAddr(addr % (1 << 30)))
            })
        }),
    );

    // cpu and workloads, as in `micro.rs`.
    let mut l2 = Cache::l2_paper();
    let mut a = 0u64;
    out.set(
        "cpu.cache_access_ns",
        min_ns_per_op(|| {
            time_calls(2_000_000 / scale, || {
                a = a.wrapping_add(0x1040);
                let addr = PhysAddr(a % (1 << 24));
                if l2.access(addr, false) == CacheAccess::Miss {
                    l2.install(addr, false);
                }
                l2.hits
            })
        }),
    );
    let dram = DramConfig::ddr2_800();
    let mut trace = SyntheticTrace::new(spec::mcf(), &dram, 0, 1);
    out.set(
        "workloads.next_op_ns",
        min_ns_per_op(|| time_calls(2_000_000 / scale, || trace.next_op())),
    );
    out.set(
        "workloads.trace_build_us",
        min_ns_per_op(|| {
            time_calls(20_000 / scale, || {
                SyntheticTrace::new(spec::mcf(), &dram, 3, 1)
            })
        }) / 1e3,
    );

    // telemetry: one serviced-request event into each kind of sink.
    let event = Event::RequestServiced {
        dram_cycle: DramCycle::new(123_456),
        cpu_cycle: CpuCycle::new(1_234_560),
        channel: 1,
        bank: 5,
        thread: 3,
        request: 987_654,
        is_write: false,
        latency_cpu: stfm_dram::CpuDelta::new(415),
    };
    let mut ring = RingSink::new(1024);
    out.set(
        "telemetry.ring_event_ns",
        min_ns_per_op(|| time_calls(2_000_000 / scale, || ring.record(&event))),
    );
    let mut jsonl = JsonLinesSink::new(std::io::sink());
    out.set(
        "telemetry.jsonl_event_ns",
        min_ns_per_op(|| time_calls(500_000 / scale, || jsonl.record(&event))),
    );

    // serve: parsing a spec line, keying a cell, parsing a result line.
    let spec_line =
        r#"{"scheduler": "stfm", "mix": ["mcf", "libquantum"], "insts": 30000, "seed": 7}"#;
    out.set(
        "serve.json_parse_ns",
        min_ns_per_op(|| time_calls(200_000 / scale, || json::parse(spec_line))),
    );
    let Some(cell) = expand_line(spec_line).ok().and_then(|mut c| c.pop()) else {
        return out.op(false, || "kernel spec line did not expand".to_string());
    };
    out.set(
        "serve.cell_key_ns",
        min_ns_per_op(|| time_calls(500_000 / scale, || cell.key())),
    );
    let metrics = Experiment::new(vec![spec::mcf(), spec::libquantum()])
        .instructions_per_thread(2_000)
        .run();
    let line = result_line(&cell, &metrics);
    out.set(
        "serve.parse_result_line_ns",
        min_ns_per_op(|| time_calls(50_000 / scale, || parse_result_line(&line).is_ok())),
    );
}
