//! Set-associative write-back caches with LRU replacement.
//!
//! Models tag state only (the simulator never tracks data contents): hits,
//! misses, dirty bits, and evictions. Used for the paper's per-core 32 KB
//! L1 and 512 KB L2 (Table 2).

use stfm_dram::PhysAddr;

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

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Installed by a hardware prefetch and not yet demanded.
    prefetched: bool,
    /// Monotonic last-use stamp for LRU.
    lru: u64,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    prefetched: false,
    lru: 0,
};

/// A set-associative, write-back, write-allocate cache (tags only).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_bytes: u32,
    lines: Vec<Line>,
    clock: u64,
    /// Access statistics.
    pub hits: u64,
    /// Miss count.
    pub misses: u64,
    /// Demand hits on lines installed by a prefetch (useful prefetches).
    pub prefetch_hits: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways`-way associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes / (ways * line_bytes)` is a power of two.
    pub fn new(size_bytes: u32, ways: usize, line_bytes: u32) -> Self {
        let sets = (size_bytes as usize) / (ways * line_bytes as usize);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets,
            ways,
            line_bytes,
            lines: vec![INVALID; sets * ways],
            clock: 0,
            hits: 0,
            misses: 0,
            prefetch_hits: 0,
        }
    }

    /// The paper's L1: 32 KB, 4-way, 64-byte lines.
    pub fn l1_paper() -> Self {
        Cache::new(32 * 1024, 4, 64)
    }

    /// The paper's L2: 512 KB, 8-way, 64-byte lines.
    pub fn l2_paper() -> Self {
        Cache::new(512 * 1024, 8, 64)
    }

    #[inline]
    fn set_and_tag(&self, addr: PhysAddr) -> (usize, u64) {
        let line = addr.0 / u64::from(self.line_bytes);
        ((line as usize) & (self.sets - 1), line / self.sets as u64)
    }

    #[inline]
    fn set_slice_mut(&mut self, set: usize) -> &mut [Line] {
        let start = set * self.ways;
        &mut self.lines[start..start + self.ways]
    }

    /// Looks up `addr`; on a hit, updates LRU and (for writes) the dirty
    /// bit. On a miss nothing changes — call [`Cache::install`] when the
    /// fill arrives.
    pub fn access(&mut self, addr: PhysAddr, write: bool) -> CacheAccess {
        self.clock += 1;
        let clock = self.clock;
        let (set, tag) = self.set_and_tag(addr);
        let mut prefetch_hit = false;
        for line in self.set_slice_mut(set) {
            if line.valid && line.tag == tag {
                line.lru = clock;
                if write {
                    line.dirty = true;
                }
                if line.prefetched {
                    line.prefetched = false;
                    prefetch_hit = true;
                }
                self.hits += 1;
                if prefetch_hit {
                    self.prefetch_hits += 1;
                }
                return CacheAccess::Hit;
            }
        }
        self.misses += 1;
        CacheAccess::Miss
    }

    /// True if the line containing `addr` is present (no LRU/stat update).
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let start = set * self.ways;
        self.lines[start..start + self.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
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
        self.clock += 1;
        let clock = self.clock;
        let (set, tag) = self.set_and_tag(addr);
        let sets = self.sets as u64;
        let line_bytes = u64::from(self.line_bytes);

        // Refresh in place if the line is somehow already present.
        for line in self.set_slice_mut(set) {
            if line.valid && line.tag == tag {
                line.lru = clock;
                line.dirty |= dirty;
                return None;
            }
        }
        // Choose an invalid way, else the LRU way.
        let ways = self.set_slice_mut(set);
        let victim_idx = ways
            .iter()
            .enumerate()
            .find(|(_, l)| !l.valid)
            .map(|(i, _)| i)
            .unwrap_or_else(|| {
                // Associativity is >= 1, so the LRU scan always yields a
                // victim; the 0 fallback is unreachable.
                ways.iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .map_or(0, |(i, _)| i)
            });
        let victim = ways[victim_idx];
        ways[victim_idx] = Line {
            tag,
            valid: true,
            dirty,
            prefetched,
            lru: clock,
        };
        victim.valid.then(|| Eviction {
            addr: PhysAddr((victim.tag * sets + set as u64) * line_bytes),
            dirty: victim.dirty,
        })
    }

    /// Invalidates the line containing `addr`, returning whether it was
    /// dirty.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<bool> {
        let (set, tag) = self.set_and_tag(addr);
        for line in self.set_slice_mut(set) {
            if line.valid && line.tag == tag {
                line.valid = false;
                return Some(line.dirty);
            }
        }
        None
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * u64::from(self.line_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(512, 2, 64)
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
        assert_eq!(Cache::l1_paper().capacity_bytes(), 32 * 1024);
        assert_eq!(Cache::l2_paper().capacity_bytes(), 512 * 1024);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use std::collections::HashMap;
    use stfm_dram::rng::SmallRng;

    /// The cache agrees with a reference model: after any access
    /// sequence, a line reported as a hit was installed and not yet
    /// evicted, and at most `ways` lines live per set. Deterministic
    /// seeded sweep over random access sequences.
    #[test]
    fn reference_model() {
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0xCAC4E00 ^ seed);
            let ops = rng.random_range(1usize..200);
            let mut c = Cache::new(512, 2, 64); // 4 sets x 2 ways
            let mut resident: HashMap<u64, bool> = HashMap::new(); // line -> dirty
            for _ in 0..ops {
                let line = rng.random_range(0u64..64);
                let write = rng.random_bool(0.5);
                let addr = PhysAddr(line * 64);
                let outcome = c.access(addr, write);
                let expected = resident.contains_key(&line);
                assert_eq!(outcome == CacheAccess::Hit, expected, "seed {seed}");
                if outcome == CacheAccess::Miss {
                    if let Some(ev) = c.install(addr, write) {
                        let evicted_line = ev.addr.0 / 64;
                        let was_dirty = resident.remove(&evicted_line);
                        assert_eq!(was_dirty, Some(ev.dirty), "seed {seed}");
                    }
                    resident.insert(line, write);
                } else if write {
                    resident.insert(line, true);
                }
                assert!(resident.len() <= 8);
            }
        }
    }
}
