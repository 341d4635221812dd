//! Cross-scheduler golden digests: a fixed 4-thread workload must produce
//! a bit-identical completion stream on every run, for every scheduler,
//! with fast-forwarding on (the default). Any change to scheduling,
//! timing, completion ordering, or the fast-forward machinery that moves
//! a single request by a single cycle shows up here.
//!
//! To regenerate after an *intentional* behavior change, run this test
//! and copy the digests from the failure message.

// `allow-expect-in-tests` covers `#[test]` fns only, not their helpers.
#![allow(clippy::expect_used)]

use stfm_sim::digest::Fnv64;
use stfm_sim::{AloneCache, Experiment, SchedulerKind};
use stfm_telemetry::{Event, RingSink};
use stfm_workloads::{mix, spec, Profile};

/// FNV-1a over the serviced-request stream: (request id, completion
/// cycles, thread, direction, latency) in emission order.
fn completion_digest(events: &[Event]) -> u64 {
    let mut h = Fnv64::new();
    let mut mix = |v: u64| h.write_u64(v);
    for e in events {
        if let Event::RequestServiced {
            dram_cycle,
            cpu_cycle,
            thread,
            request,
            is_write,
            latency_cpu,
            ..
        } = e
        {
            mix(*request);
            mix(dram_cycle.get());
            mix(cpu_cycle.get());
            mix(u64::from(*thread));
            mix(u64::from(*is_write));
            mix(latency_cpu.get());
        }
    }
    h.finish()
}

/// Runs every golden entry and asserts its digest, reporting all current
/// values on divergence.
fn check_goldens(profiles: Vec<Profile>, golden: &[(SchedulerKind, u64)]) {
    let cache = AloneCache::new();
    let mut failures = String::new();
    for &(kind, expect) in golden {
        let run = Experiment::new(profiles.clone())
            .scheduler(kind)
            .instructions_per_thread(3_000)
            .seed(11)
            .run_traced(&cache, Box::new(RingSink::new(1 << 21)));
        let mut sink = run.sink;
        let ring = sink
            .as_any_mut()
            .downcast_mut::<RingSink>()
            .expect("RingSink comes back out");
        assert_eq!(ring.dropped(), 0, "ring too small for the run");
        let events: Vec<Event> = ring.events().cloned().collect();
        let got = completion_digest(&events);
        if got != expect {
            failures.push_str(&format!("        (SchedulerKind::{kind:?}, {got:#x}),\n"));
        }
    }
    assert!(
        failures.is_empty(),
        "completion digests diverged; current values:\n{failures}"
    );
}

#[test]
fn completion_streams_match_goldens() {
    // Golden digests for the streaming-regime workload (mcf, libquantum,
    // omnetpp, gems_fdtd; 3 000 instructions per thread; seed 11).
    check_goldens(
        vec![
            spec::mcf(),
            spec::libquantum(),
            spec::omnetpp(),
            spec::gems_fdtd(),
        ],
        &[
            (SchedulerKind::FrFcfs, 0x516443d7429d06c7),
            (SchedulerKind::Fcfs, 0xe2573d87c5116701),
            (SchedulerKind::FrFcfsCap { cap: 4 }, 0xf414530b2bb7a865),
            (SchedulerKind::Nfq, 0xa5c2ee8152755867),
            (SchedulerKind::Stfm, 0xb0ca41e7e50d5377),
            (SchedulerKind::ParBs, 0xd00ed1c779a67942),
        ],
    );
}

#[test]
fn pointer_chase_streams_match_goldens() {
    // Same contract for the dependent-load regime (`mix::pointer_chase`):
    // serial miss chains and long quiet spans instead of bandwidth
    // saturation, so the event loop's jump/elide machinery carries most of
    // the run. 3 000 instructions per thread; seed 11.
    check_goldens(
        mix::pointer_chase(),
        &[
            (SchedulerKind::FrFcfs, 0x808ec81a31f11608),
            (SchedulerKind::Fcfs, 0xad04a43e0a4621b5),
            (SchedulerKind::FrFcfsCap { cap: 4 }, 0xb76722b48eb707a1),
            (SchedulerKind::Nfq, 0xdcf3dd918e5f048b),
            (SchedulerKind::Stfm, 0x5ce7f47243925b85),
            (SchedulerKind::ParBs, 0x6fc44e1735f8243f),
        ],
    );
}
