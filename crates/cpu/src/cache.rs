//! Set-associative write-back caches with LRU replacement.
//!
//! Models tag state only (the simulator never tracks data contents): hits,
//! misses, dirty bits, and evictions. Used for the paper's per-core 32 KB
//! L1 and 512 KB L2 (Table 2).
//!
//! A line is 9 bytes of state: one `u64` word holding the tag above the
//! valid, dirty and prefetched bits (0 is an invalid line), and one `u8`
//! recency stamp that orders the lines of its set only. Both arrays start
//! zeroed, so a fresh cache is all invalid without writing a byte.

use stfm_dram::{PhysAddr, LINE_BYTES};

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// Line present.
    Hit,
    /// Line absent; the caller must fill it (see [`Cache::install`]).
    Miss,
}

/// Result of installing a line: the evicted victim, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line-aligned address of the victim.
    pub addr: PhysAddr,
    /// Whether the victim was dirty (needs writing back).
    pub dirty: bool,
}

/// Line-word flag bits; the tag sits above them.
const VALID: u64 = 1;
const DIRTY: u64 = 1 << 1;
/// Installed by a hardware prefetch and not yet demanded.
const PREFETCHED: u64 = 1 << 2;
const FLAG_BITS: u32 = 3;

/// Most ways a set may have: renumbering a set's stamps uses a stack
/// array of this size, and must leave stamps to spare below `u8::MAX`.
const MAX_WAYS: usize = 64;

/// A set-associative, write-back, write-allocate cache (tags only).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    /// Per line, `tag << FLAG_BITS | flags`; 0 is an invalid line.
    words: Vec<u64>,
    /// Per line, the recency stamp of its last touch: within a set, a
    /// larger stamp is a later touch. Stamps of invalid lines are stale
    /// and never read.
    stamps: Vec<u8>,
    /// Access statistics.
    pub hits: u64,
    /// Miss count.
    pub misses: u64,
    /// Demand hits on lines installed by a prefetch (useful prefetches).
    pub prefetch_hits: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways`-way associativity and
    /// [`LINE_BYTES`] lines.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes / (ways * LINE_BYTES)` is a power of two
    /// and `ways` is between 1 and 64.
    pub fn new(size_bytes: u32, ways: usize) -> Self {
        assert!((1..=MAX_WAYS).contains(&ways), "ways must be 1..=64");
        let sets = (size_bytes as usize) / (ways * LINE_BYTES as usize);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets,
            ways,
            words: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            hits: 0,
            misses: 0,
            prefetch_hits: 0,
        }
    }

    /// The paper's L1: 32 KB, 4-way.
    pub fn l1_paper() -> Self {
        Cache::new(32 * 1024, 4)
    }

    /// The paper's L2: 512 KB, 8-way.
    pub fn l2_paper() -> Self {
        Cache::new(512 * 1024, 8)
    }

    /// The set of `addr`, and the word of its line with the dirty and
    /// prefetched bits clear: the key [`Cache::find`] matches.
    #[inline]
    fn set_and_key(&self, addr: PhysAddr) -> (usize, u64) {
        let line = addr.0 / u64::from(LINE_BYTES);
        let tag = line / self.sets as u64;
        debug_assert!(tag >> (64 - FLAG_BITS) == 0, "tag overflows the line word");
        ((line as usize) & (self.sets - 1), tag << FLAG_BITS | VALID)
    }

    /// Index of the first line of `set`.
    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.ways
    }

    /// The way of `set` holding the line whose clean word is `key`.
    #[inline]
    fn find(&self, set: usize, key: u64) -> Option<usize> {
        let base = self.base(set);
        self.words[base..base + self.ways]
            .iter()
            .position(|&w| w & !(DIRTY | PREFETCHED) == key)
    }

    /// Makes `way` the most recently touched line of `set`. When the
    /// set's top stamp has reached `u8::MAX`, the set is first renumbered
    /// `1..=ways` in the same order.
    fn touch(&mut self, set: usize, way: usize) {
        let base = self.base(set);
        let stamps = &mut self.stamps[base..base + self.ways];
        let mut top = stamps.iter().copied().max().unwrap_or(0);
        if top == u8::MAX {
            let n = stamps.len();
            let mut ranks = [0u8; MAX_WAYS];
            for (way, rank) in ranks[..n].iter_mut().enumerate() {
                let me = (stamps[way], way);
                *rank = 1 + (0..n).filter(|&j| (stamps[j], j) < me).count() as u8;
            }
            stamps.copy_from_slice(&ranks[..n]);
            top = n as u8;
        }
        stamps[way] = top + 1;
    }

    /// Looks up `addr`; on a hit, updates LRU and (for writes) the dirty
    /// bit. On a miss nothing changes — call [`Cache::install`] when the
    /// fill arrives.
    pub fn access(&mut self, addr: PhysAddr, write: bool) -> CacheAccess {
        let (set, key) = self.set_and_key(addr);
        let Some(way) = self.find(set, key) else {
            self.misses += 1;
            return CacheAccess::Miss;
        };
        self.touch(set, way);
        let i = self.base(set) + way;
        let word = &mut self.words[i];
        if write {
            *word |= DIRTY;
        }
        self.hits += 1;
        if *word & PREFETCHED != 0 {
            *word &= !PREFETCHED;
            self.prefetch_hits += 1;
        }
        CacheAccess::Hit
    }

    /// True if the line containing `addr` is present (no LRU/stat update).
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let (set, key) = self.set_and_key(addr);
        self.find(set, key).is_some()
    }

    /// Installs the line containing `addr` (fill on miss), optionally
    /// already dirty (write-allocate). Returns the evicted victim if a
    /// valid line had to be replaced.
    pub fn install(&mut self, addr: PhysAddr, dirty: bool) -> Option<Eviction> {
        self.install_with(addr, dirty, false)
    }

    /// Like [`Cache::install`], optionally marking the line as brought in
    /// by a hardware prefetch (a later demand hit counts as a useful
    /// prefetch in [`Cache::prefetch_hits`]).
    pub fn install_with(
        &mut self,
        addr: PhysAddr,
        dirty: bool,
        prefetched: bool,
    ) -> Option<Eviction> {
        let (set, key) = self.set_and_key(addr);
        let base = self.base(set);
        let dirty_bit = if dirty { DIRTY } else { 0 };

        // Refresh in place if the line is somehow already present.
        if let Some(way) = self.find(set, key) {
            self.touch(set, way);
            self.words[base + way] |= dirty_bit;
            return None;
        }
        // Choose an invalid way, else the LRU way. Valid lines of a set
        // never share a stamp, so the least one is unique.
        let ways = &self.words[base..base + self.ways];
        let way = ways.iter().position(|&w| w == 0).unwrap_or_else(|| {
            let stamps = &self.stamps[base..base + self.ways];
            // Associativity is >= 1, so the scan always yields a victim;
            // the 0 fallback is unreachable.
            (0..self.ways).min_by_key(|&i| stamps[i]).unwrap_or(0)
        });
        let victim = ways[way];
        let prefetched_bit = if prefetched { PREFETCHED } else { 0 };
        self.words[base + way] = key | dirty_bit | prefetched_bit;
        self.touch(set, way);
        (victim != 0).then(|| {
            let line = (victim >> FLAG_BITS) * self.sets as u64 + set as u64;
            Eviction {
                addr: PhysAddr(line * u64::from(LINE_BYTES)),
                dirty: victim & DIRTY != 0,
            }
        })
    }

    /// Invalidates the line containing `addr`, returning whether it was
    /// dirty.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<bool> {
        let (set, key) = self.set_and_key(addr);
        let i = self.base(set) + self.find(set, key)?;
        let word = std::mem::take(&mut self.words[i]);
        Some(word & DIRTY != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(512, 2)
    }

    #[test]
    fn miss_then_hit_after_install() {
        let mut c = tiny();
        let a = PhysAddr(0x1000);
        assert_eq!(c.access(a, false), CacheAccess::Miss);
        assert!(c.install(a, false).is_none());
        assert_eq!(c.access(a, false), CacheAccess::Hit);
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = sets × line = 256 B).
        let (a, b, d) = (PhysAddr(0), PhysAddr(256), PhysAddr(512));
        c.install(a, false);
        c.install(b, false);
        c.access(a, false); // a is now more recent than b
        let ev = c.install(d, false).expect("set full, someone evicts");
        assert_eq!(ev.addr, b);
        assert!(c.probe(a) && c.probe(d) && !c.probe(b));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        let (a, b, d) = (PhysAddr(0), PhysAddr(256), PhysAddr(512));
        c.install(a, true); // dirty via write-allocate
        c.install(b, false);
        c.access(b, false);
        let ev = c.install(d, false).unwrap();
        assert_eq!(ev.addr, a);
        assert!(ev.dirty);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = tiny();
        let a = PhysAddr(0);
        c.install(a, false);
        c.access(a, true);
        assert_eq!(c.invalidate(a), Some(true));
        assert_eq!(c.invalidate(a), None);
    }

    #[test]
    fn eviction_address_reconstruction() {
        let mut c = tiny();
        let a = PhysAddr(0x12340);
        c.install(a, true);
        // Force eviction by filling the set.
        let set_stride = 256u64;
        let base = a.0 % set_stride;
        let mut evicted = None;
        for i in 1..10u64 {
            if let Some(ev) = c.install(PhysAddr(base + i * set_stride), false) {
                evicted = Some(ev);
                break;
            }
        }
        assert_eq!(evicted.unwrap().addr, PhysAddr(0x12340 & !63));
    }

    #[test]
    fn paper_configs() {
        let (l1, l2) = (Cache::l1_paper(), Cache::l2_paper());
        assert_eq!((l1.sets, l1.ways), (128, 4));
        assert_eq!((l2.sets, l2.ways), (1024, 8));
    }

    /// The footprint the model promises: 9 bytes of state per line (a
    /// `u64` word and a `u8` stamp), 73,728 bytes for the paper's L2.
    #[test]
    fn paper_l2_holds_nine_bytes_per_line() {
        let c = Cache::l2_paper();
        let lines = c.sets * c.ways;
        let bytes = c.words.capacity() * std::mem::size_of::<u64>() + c.stamps.capacity();
        assert_eq!(lines, 8_192);
        assert!(bytes <= 9 * lines, "{bytes} bytes for {lines} lines");
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use stfm_dram::rng::SmallRng;

    /// One resident line of the reference model.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Resident {
        line: u64,
        dirty: bool,
        prefetched: bool,
    }

    /// True LRU spelled out: each set is an explicit recency list, least
    /// recently touched first, holding at most `ways` lines.
    struct Model {
        sets: Vec<Vec<Resident>>,
        ways: usize,
        prefetch_hits: u64,
    }

    impl Model {
        fn new(sets: usize, ways: usize) -> Self {
            Model {
                sets: vec![Vec::new(); sets],
                ways,
                prefetch_hits: 0,
            }
        }

        fn set(&mut self, line: u64) -> &mut Vec<Resident> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line % n) as usize]
        }

        /// Removes and returns `line` if resident.
        fn take(&mut self, line: u64) -> Option<Resident> {
            let set = self.set(line);
            let pos = set.iter().position(|r| r.line == line)?;
            Some(set.remove(pos))
        }

        fn access(&mut self, line: u64, write: bool) -> bool {
            let Some(mut r) = self.take(line) else {
                return false;
            };
            r.dirty |= write;
            if r.prefetched {
                r.prefetched = false;
                self.prefetch_hits += 1;
            }
            self.set(line).push(r);
            true
        }

        /// Returns the evicted line and its dirtiness.
        fn install(&mut self, line: u64, dirty: bool, prefetched: bool) -> Option<(u64, bool)> {
            if let Some(mut r) = self.take(line) {
                r.dirty |= dirty;
                self.set(line).push(r);
                return None;
            }
            let ways = self.ways;
            let set = self.set(line);
            let victim = (set.len() == ways).then(|| set.remove(0));
            set.push(Resident {
                line,
                dirty,
                prefetched,
            });
            victim.map(|v| (v.line, v.dirty))
        }
    }

    /// Runs `ops` random operations on one cache geometry against the
    /// model and returns the most touches any one set received.
    fn check_against_model(seed: u64, ops: usize) -> usize {
        let mut rng = SmallRng::seed_from_u64(0xCAC4E00 ^ seed);
        let ways = [1usize, 2, 4, 8][rng.random_range(0usize..4)];
        let sets = [1usize, 2, 4][rng.random_range(0usize..3)];
        let mut c = Cache::new((sets * ways * 64) as u32, ways);
        let mut model = Model::new(sets, ways);
        let mut touches = vec![0usize; sets];
        // Three lines per way keep both hits and evictions frequent.
        let lines = (3 * sets * ways) as u64;
        for step in 0..ops {
            let line = rng.random_range(0..lines);
            let addr = PhysAddr(line * 64 + rng.random_range(0u64..64));
            let ctx = format!("seed {seed} step {step} ({sets}x{ways}) line {line}");
            let before = touches[(line % sets as u64) as usize];
            match rng.random_range(0u32..10) {
                0 => {
                    let dirty = model.take(line).map(|r| r.dirty);
                    assert_eq!(c.invalidate(addr), dirty, "{ctx}: invalidate");
                }
                1 | 2 => {
                    let (dirty, prefetched) = (rng.random_bool(0.3), rng.random_bool(0.5));
                    let want = model.install(line, dirty, prefetched);
                    let got = c.install_with(addr, dirty, prefetched);
                    let got = got.map(|ev| (ev.addr.0 / 64, ev.dirty));
                    assert_eq!(got, want, "{ctx}: install");
                    touches[(line % sets as u64) as usize] += 1;
                }
                _ => {
                    let write = rng.random_bool(0.4);
                    let hit = model.access(line, write);
                    assert_eq!(c.access(addr, write) == CacheAccess::Hit, hit, "{ctx}");
                    if !hit {
                        let want = model.install(line, write, false);
                        let got = c.install(addr, write).map(|ev| (ev.addr.0 / 64, ev.dirty));
                        assert_eq!(got, want, "{ctx}: fill");
                    }
                    touches[(line % sets as u64) as usize] += 1;
                }
            }
            assert_eq!(c.prefetch_hits, model.prefetch_hits, "{ctx}");
            if touches[(line % sets as u64) as usize] != before {
                for r in model.set(line).clone() {
                    assert!(c.probe(PhysAddr(r.line * 64)), "{ctx}: {r:?} resident");
                }
            }
        }
        touches.into_iter().max().unwrap_or(0)
    }

    /// The cache agrees with true LRU on every observable: hits, which
    /// line each install evicts and whether it was dirty, `invalidate`,
    /// and the prefetch-hit count. Each sequence touches some set more
    /// than 255 times, so the stamps' renumbering is exercised.
    /// Deterministic seeded sweep.
    #[test]
    fn reference_model() {
        for seed in 0..64u64 {
            assert!(check_against_model(seed, 3_000) > 255, "seed {seed}");
        }
    }

    /// [`reference_model`] over many more seeds and longer sequences.
    #[test]
    #[ignore = "deep tier: run with --include-ignored"]
    fn reference_model_deep() {
        for seed in 64..2_064u64 {
            assert!(check_against_model(seed, 10_000) > 255, "seed {seed}");
        }
    }
}
