//! The synthetic trace generator: turns a [`Profile`] into an endless
//! instruction stream with the profile's memory intensity, row-buffer
//! locality, bank balance, burstiness, write mix and dependence structure.
//!
//! Address-space layout: each thread slot owns a 256 MiB region
//! (`slot << 28`). Misses walk a footprint much larger than the L2 at the
//! region base; a 16 KiB hot set just above the footprint serves
//! cache-resident loads and idle-phase filler. Bank-skewed profiles
//! generate DRAM coordinates directly (restricted bank set, a private row
//! range per slot) and encode them through the system's
//! [`AddressMapping`], so skew survives the XOR bank permutation.

use crate::profile::Profile;
use std::collections::VecDeque;
use stfm_cpu::{TraceOp, TraceSource};
use stfm_dram::rng::SmallRng;
use stfm_dram::{AddressMapping, BankId, ChannelId, DecodedAddr, DramConfig, LINE_BYTES, ROWS};

/// Hot-set size in lines (16 KiB: fits the L1).
const HOT_LINES: u64 = 256;
/// Bubble chunk emitted per idle-phase record.
const IDLE_CHUNK: u32 = 256;

/// An endless synthetic instruction trace for one thread.
pub struct SyntheticTrace {
    profile: Profile,
    mapping: AddressMapping,
    channels: u32,
    columns: u32,
    region_base: u64,
    hot_base: u64,
    slot: u32,
    rng: SmallRng,
    queue: VecDeque<TraceOp>,
    /// Linear-mode stream position (line index within the footprint).
    cur_line: u64,
    /// Skewed-mode stream position.
    coords: DecodedAddr,
    hot_idx: u64,
    insts_carry: f64,
    in_burst: bool,
    phase_insts_left: u64,
    /// Hot-set lines still to be touched by the start-up prewarm pass.
    prewarm_left: u64,
}

impl SyntheticTrace {
    /// Creates the generator for thread slot `slot` (its address-space
    /// partition) on a system configured as `config`, deterministically
    /// seeded by `seed`.
    pub fn new(profile: Profile, config: &DramConfig, slot: u32, seed: u64) -> Self {
        let mapping = AddressMapping::new(config);
        let region_base = u64::from(slot) << 28;
        let footprint_bytes = profile.footprint_lines * u64::from(LINE_BYTES);
        let name_salt = profile.name.bytes().fold(0u64, |acc, b| {
            acc.wrapping_mul(131).wrapping_add(u64::from(b))
        });
        let (in_burst, phase) = match profile.burst {
            Some(b) => (true, b.on_insts),
            None => (true, u64::MAX),
        };
        SyntheticTrace {
            mapping,
            channels: config.channels,
            columns: config.columns(),
            region_base,
            hot_base: region_base + footprint_bytes,
            slot,
            rng: SmallRng::seed_from_u64(seed ^ name_salt ^ (u64::from(slot) << 32)),
            queue: VecDeque::with_capacity(8),
            cur_line: 0,
            coords: DecodedAddr {
                channel: ChannelId(0),
                bank: BankId(0),
                row: 0,
                col: 0,
            },
            hot_idx: 0,
            insts_carry: 0.0,
            in_burst,
            phase_insts_left: phase,
            prewarm_left: HOT_LINES,
            profile,
        }
    }

    /// The profile driving this trace.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    fn hot_addr(&mut self) -> u64 {
        self.hot_idx = (self.hot_idx + 1) % HOT_LINES;
        self.hot_base + self.hot_idx * u64::from(LINE_BYTES)
    }

    /// Next miss address in linear (unskewed) mode.
    fn linear_miss_addr(&mut self) -> u64 {
        if self.rng.random_bool(self.profile.stream_prob) {
            self.cur_line = (self.cur_line + 1) % self.profile.footprint_lines;
        } else {
            self.cur_line = self.rng.random_range(0..self.profile.footprint_lines);
        }
        self.region_base + self.cur_line * u64::from(LINE_BYTES)
    }

    /// Next miss address in bank-skewed mode: coordinates restricted to
    /// `skew` banks and this slot's private row range.
    fn skewed_miss_addr(&mut self, skew: u32) -> u64 {
        // 16 slots partition the row space.
        let rows_per_slot = ROWS / 16;
        let row_base = (self.slot % 16) * rows_per_slot;
        if self.rng.random_bool(self.profile.stream_prob) {
            // Continue the stream: next column, wrapping into the next row
            // of the same bank.
            self.coords.col += 1;
            if self.coords.col >= self.columns {
                self.coords.col = 0;
                let cur = self.coords.row.max(row_base);
                self.coords.row = row_base + ((cur - row_base + 1) % rows_per_slot);
            }
        } else {
            self.coords = DecodedAddr {
                channel: ChannelId(self.rng.random_range(0..self.channels)),
                bank: BankId(self.rng.random_range(0..skew)),
                row: row_base + self.rng.random_range(0..rows_per_slot),
                col: self.rng.random_range(0..self.columns),
            };
        }
        self.mapping.encode(self.coords).0
    }

    fn miss_addr(&mut self) -> u64 {
        match self.profile.bank_skew {
            Some(k) => self.skewed_miss_addr(k),
            None => self.linear_miss_addr(),
        }
    }

    /// Emits the next batch of records into the queue.
    fn refill(&mut self) {
        // Start-up prewarm: touch every hot-set line back to back so the
        // cache-resident working set is warm within any reasonable warmup
        // window (otherwise low-intensity profiles drip cold hot-set
        // misses deep into the measurement window).
        if self.prewarm_left > 0 {
            self.prewarm_left -= 1;
            let addr = self.hot_addr();
            self.queue.push_back(TraceOp::load(addr, 0));
            return;
        }

        // Phase bookkeeping for bursty profiles.
        if self.phase_insts_left == 0 {
            if let Some(b) = self.profile.burst {
                self.in_burst = !self.in_burst;
                self.phase_insts_left = if self.in_burst {
                    b.on_insts
                } else {
                    b.off_insts
                };
            }
        }

        if !self.in_burst {
            // Idle phase: pure compute plus an L1-resident load.
            let addr = self.hot_addr();
            let chunk = IDLE_CHUNK.min(self.phase_insts_left.max(1) as u32);
            self.queue
                .push_back(TraceOp::load(addr, chunk.saturating_sub(1)));
            self.phase_insts_left = self.phase_insts_left.saturating_sub(u64::from(chunk));
            return;
        }

        // Active phase: one miss group of `insts_per_miss` instructions.
        let target = self.profile.insts_per_miss() + self.insts_carry;
        let group = (target.floor() as u64).max(1);
        self.insts_carry = target - group as f64;

        let hot_ops = u64::from(self.profile.hot_ops_per_miss).min(group.saturating_sub(1));
        let bubbles_total = group - 1 - hot_ops;
        let share = if hot_ops > 0 {
            bubbles_total / (hot_ops + 1)
        } else {
            0
        };
        for _ in 0..hot_ops {
            let addr = self.hot_addr();
            self.queue.push_back(TraceOp::load(addr, share as u32));
        }
        let miss_bubbles = (bubbles_total - share * hot_ops) as u32;
        let addr = self.miss_addr();
        let is_store = self.rng.random_bool(self.profile.write_frac);
        let mut op = if is_store {
            TraceOp::store(addr, miss_bubbles)
        } else {
            TraceOp::load(addr, miss_bubbles)
        };
        if !is_store && self.rng.random_bool(self.profile.dependent_frac) {
            op = op.dependent();
        }
        self.queue.push_back(op);
        self.phase_insts_left = self.phase_insts_left.saturating_sub(group);
    }
}

impl TraceSource for SyntheticTrace {
    fn next_op(&mut self) -> TraceOp {
        loop {
            if let Some(op) = self.queue.pop_front() {
                return op;
            }
            self.refill();
        }
    }

    fn label(&self) -> &str {
        self.profile.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Category;
    use stfm_cpu::MemOpKind;
    use stfm_dram::PhysAddr;

    fn config() -> DramConfig {
        DramConfig::ddr2_800()
    }

    fn profile() -> Profile {
        Profile::base("test", Category::IntensiveHighRb, 5.0, 50.0, 0.9)
    }

    fn collect(trace: &mut SyntheticTrace, n: usize) -> Vec<TraceOp> {
        (0..n).map(|_| trace.next_op()).collect()
    }

    #[test]
    fn determinism_per_seed() {
        let a = collect(&mut SyntheticTrace::new(profile(), &config(), 0, 42), 2000);
        let b = collect(&mut SyntheticTrace::new(profile(), &config(), 0, 42), 2000);
        let c = collect(&mut SyntheticTrace::new(profile(), &config(), 0, 43), 2000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn instruction_rate_matches_mpki_target() {
        let mut t = SyntheticTrace::new(profile(), &config(), 0, 1);
        let hot_base = t.hot_base;
        let mut insts = 0u64;
        let mut misses = 0u64;
        for _ in 0..30_000 {
            let op = t.next_op();
            insts += u64::from(op.bubbles) + 1;
            if op.addr.0 < hot_base {
                misses += 1;
            }
        }
        let mpki = misses as f64 * 1000.0 / insts as f64;
        assert!((mpki - 50.0).abs() < 5.0, "mpki = {mpki}");
    }

    #[test]
    fn streaminess_controls_sequentiality() {
        let cfg = config();
        let mut streamy = SyntheticTrace::new(
            Profile::base("s", Category::IntensiveHighRb, 5.0, 50.0, 0.95),
            &cfg,
            0,
            1,
        );
        let hot = streamy.hot_base;
        let ops = collect(&mut streamy, 20_000);
        let miss_addrs: Vec<u64> = ops
            .iter()
            .filter(|o| o.addr.0 < hot)
            .map(|o| o.addr.0)
            .collect();
        let sequential = miss_addrs.windows(2).filter(|w| w[1] == w[0] + 64).count();
        let frac = sequential as f64 / (miss_addrs.len() - 1) as f64;
        assert!(frac > 0.88, "sequential fraction = {frac}");
    }

    #[test]
    fn bank_skew_restricts_banks() {
        let cfg = config();
        let p = profile().with_bank_skew(2);
        let mut t = SyntheticTrace::new(p, &cfg, 3, 7);
        let mapping = AddressMapping::new(&cfg);
        let hot = t.hot_base;
        for op in collect(&mut t, 20_000) {
            if op.addr.0 >= hot || op.addr.0 < (3u64 << 28) {
                continue; // hot-set access
            }
            let d = mapping.decode(PhysAddr(op.addr.0));
            assert!(d.bank.0 < 2, "bank {} outside skew set", d.bank.0);
        }
    }

    #[test]
    fn bursty_profiles_have_idle_gaps() {
        let cfg = config();
        let p = profile().with_burst(2_000, 6_000);
        let mut t = SyntheticTrace::new(p, &cfg, 0, 1);
        let hot = t.hot_base;
        let mut insts = 0u64;
        let mut misses_at: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            let op = t.next_op();
            insts += u64::from(op.bubbles) + 1;
            if op.addr.0 < hot {
                misses_at.push(insts);
            }
        }
        // There must exist an instruction gap of several thousand
        // instructions with no DRAM traffic (the idle phase).
        let max_gap = misses_at.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(max_gap > 4_000, "max inter-miss gap = {max_gap}");
    }

    #[test]
    fn slots_do_not_overlap() {
        let cfg = config();
        let mut t0 = SyntheticTrace::new(profile(), &cfg, 0, 1);
        let mut t1 = SyntheticTrace::new(profile(), &cfg, 1, 1);
        let max0 = collect(&mut t0, 5_000)
            .iter()
            .map(|o| o.addr.0)
            .max()
            .unwrap();
        let min1 = collect(&mut t1, 5_000)
            .iter()
            .map(|o| o.addr.0)
            .min()
            .unwrap();
        assert!(max0 < 1 << 28);
        assert!(min1 >= 1 << 28);
    }

    #[test]
    fn write_fraction_is_respected() {
        let cfg = config();
        let mut t = SyntheticTrace::new(profile().with_writes(0.4), &cfg, 0, 1);
        let hot = t.hot_base;
        let ops = collect(&mut t, 30_000);
        let misses: Vec<_> = ops.iter().filter(|o| o.addr.0 < hot).collect();
        let stores = misses.iter().filter(|o| o.kind == MemOpKind::Store).count();
        let frac = stores as f64 / misses.len() as f64;
        assert!((frac - 0.4).abs() < 0.05, "store fraction = {frac}");
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::profile::Category;

    /// Generated instruction streams respect their profile invariants
    /// for randomized knob settings: miss addresses stay inside the
    /// slot's region and instruction rates track the MPKI target.
    /// Deterministic seeded sweep over the knob space.
    #[test]
    fn generator_invariants() {
        let mut knobs = SmallRng::seed_from_u64(0x5EED_0001);
        for _ in 0..24 {
            let mpki = 1.0 + knobs.random_f64() * 79.0;
            let rb = knobs.random_f64() * 0.99;
            let writes = knobs.random_f64() * 0.6;
            let slot = knobs.random_range(0u32..8);
            let seed = knobs.random_range(0u64..1000);
            let cfg = DramConfig::ddr2_800();
            let mut p = Profile::base("prop", Category::IntensiveHighRb, 1.0, mpki, rb);
            p.write_frac = writes;
            let mut t = SyntheticTrace::new(p.clone(), &cfg, slot, seed);
            let region_lo = u64::from(slot) << 28;
            let region_hi = region_lo + p.footprint_lines * 64 + 16 * 1024;
            let mut insts = 0u64;
            let mut misses = 0u64;
            for _ in 0..5_000 {
                let op = t.next_op();
                assert!(
                    op.addr.0 >= region_lo && op.addr.0 < region_hi,
                    "address {:#x} outside region [{:#x}, {:#x})",
                    op.addr.0,
                    region_lo,
                    region_hi
                );
                insts += u64::from(op.bubbles) + 1;
                if op.addr.0 < region_lo + p.footprint_lines * 64 {
                    misses += 1;
                }
            }
            // Excluding the 256-op prewarm, the miss rate tracks MPKI.
            let measured = misses as f64 * 1000.0 / insts as f64;
            assert!(
                measured > mpki * 0.5 && measured < mpki * 2.0 + 60.0,
                "mpki target {mpki}, measured {measured}"
            );
        }
    }

    /// Bank skew holds for any skew width and seed.
    #[test]
    fn skew_invariant() {
        let mut knobs = SmallRng::seed_from_u64(0x5EED_0002);
        for _ in 0..16 {
            let skew = knobs.random_range(1u32..8);
            let seed = knobs.random_range(0u64..100);
            let cfg = DramConfig::ddr2_800();
            let p = Profile::base("s", Category::NotIntensiveHighRb, 1.0, 20.0, 0.5)
                .with_bank_skew(skew);
            let mapping = AddressMapping::new(&cfg);
            let mut t = SyntheticTrace::new(p.clone(), &cfg, 2, seed);
            let hot_base = (2u64 << 28) + p.footprint_lines * 64;
            for _ in 0..2_000 {
                let op = t.next_op();
                if op.addr.0 >= hot_base || op.addr.0 < (2u64 << 28) {
                    continue;
                }
                let d = mapping.decode(op.addr);
                assert!(d.bank.0 < skew, "skew {skew} seed {seed}");
            }
        }
    }
}
