//! Miss-status holding registers (MSHRs) with same-line merging.
//!
//! The paper's cores have 64 MSHRs (Table 2), which bound each core's
//! memory-level parallelism. Secondary misses to a line that is already
//! being fetched merge into the existing entry instead of generating
//! another DRAM request.

use std::collections::BTreeMap;
use stfm_dram::PhysAddr;

/// Token identifying a waiter (a window entry) attached to an MSHR.
pub type WaiterId = u64;

/// Outcome of an MSHR allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAlloc {
    /// New entry allocated; the caller must send a fill request to memory.
    NewEntry,
    /// Merged into an in-flight fetch of the same line; no request needed.
    Merged,
    /// All MSHRs busy; retry later.
    Full,
}

#[derive(Debug, Clone, Default)]
struct Entry {
    waiters: Vec<WaiterId>,
    /// Whether any merged access was a store (the fill installs dirty).
    any_store: bool,
    /// Whether the fill request has actually been accepted by the memory
    /// controller (back-pressure may delay it).
    sent: bool,
    /// Whether the fetch originated as a hardware prefetch.
    prefetch: bool,
}

/// A completed fill returned by [`MshrFile::complete`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillOutcome {
    /// Window entries waiting on the line (empty for an untouched
    /// prefetch).
    pub waiters: Vec<WaiterId>,
    /// Whether any merged access was a store.
    pub any_store: bool,
    /// Whether the fetch originated as a hardware prefetch (demand merges
    /// into it are *late-but-useful* prefetches).
    pub prefetch: bool,
}

/// A file of miss-status holding registers, keyed by line address.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: BTreeMap<u64, Entry>,
    line_bytes: u32,
    /// Line keys of entries with `sent == false`, kept sorted (the
    /// deterministic retry order) and maintained incrementally so the
    /// per-cycle retry path neither allocates nor scans the file.
    unsent_lines: Vec<u64>,
    /// Bumped whenever a line *enters* the unsent set. The core's
    /// once-per-DRAM-cycle retry gate keys on this so a newly stalled
    /// fill reopens the gate instead of waiting behind a stale stamp.
    unsent_epoch: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` registers for `line_bytes` lines.
    pub fn new(capacity: usize, line_bytes: u32) -> Self {
        MshrFile {
            capacity,
            entries: BTreeMap::new(),
            line_bytes,
            unsent_lines: Vec::new(),
            unsent_epoch: 0,
        }
    }

    #[inline]
    fn key(&self, addr: PhysAddr) -> u64 {
        addr.0 / u64::from(self.line_bytes)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no fetch is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when every register is busy.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// True if an allocation for `addr` would merge into an existing entry
    /// (and therefore succeed even when the file is full).
    pub fn would_merge(&self, addr: PhysAddr) -> bool {
        self.entries.contains_key(&self.key(addr))
    }

    /// Tries to track a miss on `addr` for `waiter`.
    pub fn allocate(&mut self, addr: PhysAddr, waiter: WaiterId, store: bool) -> MshrAlloc {
        let key = self.key(addr);
        if let Some(e) = self.entries.get_mut(&key) {
            e.waiters.push(waiter);
            e.any_store |= store;
            return MshrAlloc::Merged;
        }
        if self.entries.len() >= self.capacity {
            return MshrAlloc::Full;
        }
        self.entries.insert(
            key,
            Entry {
                waiters: vec![waiter],
                any_store: store,
                sent: false,
                prefetch: false,
            },
        );
        self.note_unsent(key);
        MshrAlloc::NewEntry
    }

    /// Allocates an entry with no waiters for a hardware prefetch of
    /// `addr`. Returns `true` if a new fill should be requested; `false`
    /// when the line is already being fetched or the file is full.
    pub fn allocate_prefetch(&mut self, addr: PhysAddr) -> bool {
        let key = self.key(addr);
        if self.entries.contains_key(&key) || self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.insert(
            key,
            Entry {
                prefetch: true,
                ..Entry::default()
            },
        );
        self.note_unsent(key);
        true
    }

    /// Registers `key` in the sorted unsent list and bumps the epoch.
    fn note_unsent(&mut self, key: u64) {
        let found = self.unsent_lines.binary_search(&key);
        debug_assert!(found.is_err(), "line already tracked as unsent");
        let (Ok(pos) | Err(pos)) = found;
        self.unsent_lines.insert(pos, key);
        self.unsent_epoch += 1;
    }

    /// Drops `key` from the sorted unsent list (it was sent or completed).
    fn forget_unsent(&mut self, key: u64) {
        match self.unsent_lines.binary_search(&key) {
            Ok(pos) => {
                self.unsent_lines.remove(pos);
            }
            Err(_) => debug_assert!(false, "line missing from unsent list"),
        }
    }

    /// Marks the fill request for `addr` as accepted by the memory system.
    pub fn mark_sent(&mut self, addr: PhysAddr) {
        let key = self.key(addr);
        if let Some(e) = self.entries.get_mut(&key) {
            if !e.sent {
                e.sent = true;
                self.forget_unsent(key);
            }
        }
    }

    /// True if any entry's fill request is still waiting to be accepted
    /// (cheap emptiness probe).
    pub fn has_unsent(&self) -> bool {
        debug_assert_eq!(
            self.unsent_lines.len(),
            self.entries.values().filter(|e| !e.sent).count()
        );
        !self.unsent_lines.is_empty()
    }

    /// The lowest-addressed line whose fill request has not been accepted
    /// yet — the head of the deterministic retry order. Allocation-free;
    /// the retry loop alternates `first_unsent` / [`MshrFile::mark_sent`]
    /// until it drains or hits back-pressure.
    pub fn first_unsent(&self) -> Option<PhysAddr> {
        self.unsent_lines
            .first()
            .map(|k| PhysAddr(k * u64::from(self.line_bytes)))
    }

    /// Generation stamp of the unsent set: changes whenever a line joins
    /// it. See the field docs for the retry-gate protocol.
    #[inline]
    pub fn unsent_epoch(&self) -> u64 {
        self.unsent_epoch
    }

    /// Line addresses whose fill request has not been accepted yet
    /// (needing a retry after back-pressure), in retry order.
    pub fn unsent(&self) -> Vec<PhysAddr> {
        let line = u64::from(self.line_bytes);
        self.unsent_lines
            .iter()
            .map(|k| PhysAddr(k * line))
            .collect()
    }

    /// Completes the fill of the line containing `addr`, returning the
    /// waiters to wake and the fill's provenance.
    pub fn complete(&mut self, addr: PhysAddr) -> Option<FillOutcome> {
        let key = self.key(addr);
        self.entries.remove(&key).map(|e| {
            if !e.sent {
                self.forget_unsent(key);
            }
            FillOutcome {
                waiters: e.waiters,
                any_store: e.any_store,
                prefetch: e.prefetch,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_complete() {
        let mut m = MshrFile::new(2, 64);
        assert_eq!(m.allocate(PhysAddr(0x100), 1, false), MshrAlloc::NewEntry);
        assert_eq!(m.allocate(PhysAddr(0x104), 2, true), MshrAlloc::Merged);
        assert_eq!(m.allocate(PhysAddr(0x200), 3, false), MshrAlloc::NewEntry);
        assert!(m.is_full());
        assert_eq!(m.allocate(PhysAddr(0x300), 4, false), MshrAlloc::Full);

        let fill = m.complete(PhysAddr(0x100)).unwrap();
        assert_eq!(fill.waiters, vec![1, 2]);
        assert!(fill.any_store);
        assert!(!fill.prefetch);
        assert!(!m.is_full());
        assert!(m.complete(PhysAddr(0x100)).is_none());
    }

    #[test]
    fn unsent_tracking() {
        let mut m = MshrFile::new(4, 64);
        m.allocate(PhysAddr(0x100), 1, false);
        m.allocate(PhysAddr(0x200), 2, false);
        assert_eq!(m.unsent().len(), 2);
        m.mark_sent(PhysAddr(0x100));
        assert_eq!(m.unsent(), vec![PhysAddr(0x200)]);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use stfm_dram::rng::SmallRng;

    /// Every allocated waiter is returned exactly once by `complete`,
    /// and occupancy never exceeds capacity. Deterministic seeded sweep.
    #[test]
    fn conservation() {
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0x3542000 ^ seed);
            let count = rng.random_range(1usize..100);
            let lines: Vec<u64> = (0..count).map(|_| rng.random_range(0u64..16)).collect();
            let mut m = MshrFile::new(8, 64);
            let mut expected: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
            let mut rejected = 0u64;
            for (i, line) in lines.iter().enumerate() {
                let waiter = i as u64;
                match m.allocate(PhysAddr(line * 64), waiter, false) {
                    MshrAlloc::Full => rejected += 1,
                    _ => expected.entry(*line).or_default().push(waiter),
                }
                assert!(m.len() <= 8);
            }
            let mut woken = 0usize;
            for (line, waiters) in expected {
                let got = m.complete(PhysAddr(line * 64)).unwrap().waiters;
                assert_eq!(&got, &waiters, "seed {seed}");
                woken += got.len();
            }
            assert!(m.is_empty());
            assert_eq!(woken as u64 + rejected, lines.len() as u64);
        }
    }
}
