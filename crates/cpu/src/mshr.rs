//! Miss-status holding registers (MSHRs) with same-line merging.
//!
//! The paper's cores have 64 MSHRs (Table 2), which bound each core's
//! memory-level parallelism. Secondary misses to a line that is already
//! being fetched merge into the existing entry instead of generating
//! another DRAM request.
//!
//! The file is a flat array of entries allocated once at its capacity;
//! lookups scan it. An entry holds its first waiter inline. Merges are
//! rare, so the second and later waiters of every entry share one list.

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

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Line address divided by the line size.
    line: u64,
    /// The first waiter, when `waiters > 0`.
    first: WaiterId,
    /// Waiters attached: `first`, then `waiters - 1` in the merged list.
    waiters: u32,
    /// Whether any merged access was a store (the fill installs dirty).
    any_store: bool,
    /// Whether the fill request has actually been accepted by the memory
    /// controller (back-pressure may delay it).
    sent: bool,
    /// Whether the fetch originated as a hardware prefetch.
    prefetch: bool,
}

/// A completed fill returned by [`MshrFile::complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Window entries that waited on the line (0 for an untouched
    /// prefetch); `complete` has handed each to its `wake` callback.
    pub waiters: u32,
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
    line_bytes: u32,
    /// The live entries, in no particular order; never longer than
    /// `capacity`, so never reallocated.
    entries: Vec<Entry>,
    /// `(line, waiter)` for every waiter after an entry's first, in
    /// arrival order.
    merged: Vec<(u64, WaiterId)>,
    /// Entries whose fill request has not been accepted yet.
    unsent: usize,
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
            line_bytes,
            entries: Vec::with_capacity(capacity),
            merged: Vec::new(),
            unsent: 0,
            unsent_epoch: 0,
        }
    }

    #[inline]
    fn key(&self, addr: PhysAddr) -> u64 {
        addr.0 / u64::from(self.line_bytes)
    }

    #[inline]
    fn position(&self, addr: PhysAddr) -> Option<usize> {
        let key = self.key(addr);
        self.entries.iter().position(|e| e.line == key)
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
        self.position(addr).is_some()
    }

    /// Tries to track a miss on `addr` for `waiter`.
    pub fn allocate(&mut self, addr: PhysAddr, waiter: WaiterId, store: bool) -> MshrAlloc {
        if let Some(i) = self.position(addr) {
            let e = &mut self.entries[i];
            if e.waiters == 0 {
                e.first = waiter;
            } else {
                self.merged.push((e.line, waiter));
            }
            e.waiters += 1;
            e.any_store |= store;
            return MshrAlloc::Merged;
        }
        if self.push(addr, Some(waiter), store) {
            MshrAlloc::NewEntry
        } else {
            MshrAlloc::Full
        }
    }

    /// Allocates an entry with no waiters for a hardware prefetch of
    /// `addr`. Returns `true` if a new fill should be requested; `false`
    /// when the line is already being fetched or the file is full.
    pub fn allocate_prefetch(&mut self, addr: PhysAddr) -> bool {
        !self.would_merge(addr) && self.push(addr, None, false)
    }

    /// Adds an unsent entry for `addr`, a demand miss of `waiter` or a
    /// prefetch; `false` when the file is full.
    fn push(&mut self, addr: PhysAddr, waiter: Option<WaiterId>, store: bool) -> bool {
        if self.is_full() {
            return false;
        }
        self.entries.push(Entry {
            line: self.key(addr),
            first: waiter.unwrap_or(0),
            waiters: u32::from(waiter.is_some()),
            any_store: store,
            sent: false,
            prefetch: waiter.is_none(),
        });
        self.unsent += 1;
        self.unsent_epoch += 1;
        true
    }

    /// Marks the fill request for `addr` as accepted by the memory system.
    pub fn mark_sent(&mut self, addr: PhysAddr) {
        if let Some(i) = self.position(addr) {
            let e = &mut self.entries[i];
            if !e.sent {
                e.sent = true;
                self.unsent -= 1;
            }
        }
    }

    /// True if any entry's fill request is still waiting to be accepted
    /// (cheap emptiness probe).
    pub fn has_unsent(&self) -> bool {
        debug_assert_eq!(self.unsent, self.entries.iter().filter(|e| !e.sent).count());
        self.unsent > 0
    }

    /// The lowest-addressed line whose fill request has not been accepted
    /// yet — the head of the deterministic retry order. Allocation-free;
    /// the retry loop alternates `first_unsent` / [`MshrFile::mark_sent`]
    /// until it drains or hits back-pressure.
    pub fn first_unsent(&self) -> Option<PhysAddr> {
        if self.unsent == 0 {
            return None;
        }
        self.entries
            .iter()
            .filter(|e| !e.sent)
            .map(|e| e.line)
            .min()
            .map(|k| PhysAddr(k * u64::from(self.line_bytes)))
    }

    /// Generation stamp of the unsent set: changes whenever a line joins
    /// it. See the field docs for the retry-gate protocol.
    #[inline]
    pub fn unsent_epoch(&self) -> u64 {
        self.unsent_epoch
    }

    /// Completes the fill of the line containing `addr`: frees its entry,
    /// hands each waiter to `wake` in arrival order, and returns the
    /// fill's provenance.
    pub fn complete(
        &mut self,
        addr: PhysAddr,
        mut wake: impl FnMut(WaiterId),
    ) -> Option<FillOutcome> {
        let e = self.entries.swap_remove(self.position(addr)?);
        if !e.sent {
            self.unsent -= 1;
        }
        if e.waiters > 0 {
            wake(e.first);
        }
        if e.waiters > 1 {
            self.merged.retain(|&(line, w)| {
                let mine = line == e.line;
                if mine {
                    wake(w);
                }
                !mine
            });
        }
        Some(FillOutcome {
            waiters: e.waiters,
            any_store: e.any_store,
            prefetch: e.prefetch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completes `addr`, returning the outcome and the woken waiters.
    pub(super) fn complete(m: &mut MshrFile, addr: PhysAddr) -> Option<(FillOutcome, Vec<u64>)> {
        let mut woken = Vec::new();
        m.complete(addr, |w| woken.push(w)).map(|f| (f, woken))
    }

    #[test]
    fn allocate_merge_complete() {
        let mut m = MshrFile::new(2, 64);
        assert_eq!(m.allocate(PhysAddr(0x100), 1, false), MshrAlloc::NewEntry);
        assert_eq!(m.allocate(PhysAddr(0x104), 2, true), MshrAlloc::Merged);
        assert_eq!(m.allocate(PhysAddr(0x200), 3, false), MshrAlloc::NewEntry);
        assert!(m.is_full());
        assert_eq!(m.allocate(PhysAddr(0x300), 4, false), MshrAlloc::Full);

        let (fill, woken) = complete(&mut m, PhysAddr(0x100)).unwrap();
        assert_eq!(woken, vec![1, 2]);
        assert_eq!(fill.waiters, 2);
        assert!(fill.any_store);
        assert!(!fill.prefetch);
        assert!(!m.is_full());
        assert!(complete(&mut m, PhysAddr(0x100)).is_none());
    }

    #[test]
    fn unsent_tracking() {
        let mut m = MshrFile::new(4, 64);
        m.allocate(PhysAddr(0x200), 2, false);
        m.allocate(PhysAddr(0x100), 1, false);
        assert_eq!(m.first_unsent(), Some(PhysAddr(0x100)));
        m.mark_sent(PhysAddr(0x100));
        assert_eq!(m.first_unsent(), Some(PhysAddr(0x200)));
        m.mark_sent(PhysAddr(0x200));
        assert!(!m.has_unsent());
        assert_eq!(m.first_unsent(), None);
    }

    /// The file is sized once: a seeded sweep of allocations, merges,
    /// prefetches and completions never reallocates its entry array.
    #[test]
    fn entries_never_outgrow_the_capacity() {
        use stfm_dram::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x3542001);
        let mut m = MshrFile::new(64, 64);
        let capacity = m.entries.capacity();
        for waiter in 0..20_000u64 {
            let addr = PhysAddr(rng.random_range(0u64..256) * 64);
            match rng.random_range(0u32..4) {
                0 => {
                    complete(&mut m, addr);
                }
                1 => {
                    m.allocate_prefetch(addr);
                }
                _ => {
                    m.allocate(addr, waiter, false);
                }
            }
            assert!(m.len() <= 64);
            assert_eq!(m.entries.capacity(), capacity, "step {waiter}");
        }
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::tests::complete;
    use super::*;
    use std::collections::BTreeMap;
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
            let mut expected: BTreeMap<u64, Vec<u64>> = Default::default();
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
                let (_, got) = complete(&mut m, PhysAddr(line * 64)).unwrap();
                assert_eq!(&got, &waiters, "seed {seed}");
                woken += got.len();
            }
            assert!(m.is_empty());
            assert_eq!(woken as u64 + rejected, lines.len() as u64);
        }
    }

    /// One entry of the reference model.
    #[derive(Debug, Default)]
    struct ModelEntry {
        waiters: Vec<WaiterId>,
        any_store: bool,
        sent: bool,
        prefetch: bool,
    }

    /// Runs `ops` random operations against a `BTreeMap` model of the
    /// file, which keys entries by line and keeps a `Vec` of waiters each.
    fn check_against_model(seed: u64, ops: usize) {
        let mut rng = SmallRng::seed_from_u64(0x3542E00 ^ seed);
        let capacity = rng.random_range(1usize..12);
        let lines = rng.random_range(1u64..3 * capacity as u64 + 2);
        let mut m = MshrFile::new(capacity, 64);
        let mut model: BTreeMap<u64, ModelEntry> = BTreeMap::new();
        for step in 0..ops {
            let line = rng.random_range(0..lines);
            let addr = PhysAddr(line * 64 + rng.random_range(0u64..64));
            let ctx = format!("seed {seed} step {step} cap {capacity} line {line}");
            let full = model.len() >= capacity;
            let epoch = m.unsent_epoch();
            let mut entered_unsent = false;
            match rng.random_range(0u32..10) {
                0..=3 => {
                    let store = rng.random_bool(0.3);
                    let want = match model.get_mut(&line) {
                        Some(e) => {
                            e.waiters.push(step as u64);
                            e.any_store |= store;
                            MshrAlloc::Merged
                        }
                        None if full => MshrAlloc::Full,
                        None => {
                            let e = ModelEntry {
                                waiters: vec![step as u64],
                                any_store: store,
                                ..ModelEntry::default()
                            };
                            model.insert(line, e);
                            entered_unsent = true;
                            MshrAlloc::NewEntry
                        }
                    };
                    assert_eq!(m.allocate(addr, step as u64, store), want, "{ctx}");
                }
                4 => {
                    let want = !full && !model.contains_key(&line);
                    if want {
                        let e = ModelEntry {
                            prefetch: true,
                            ..ModelEntry::default()
                        };
                        model.insert(line, e);
                        entered_unsent = true;
                    }
                    assert_eq!(m.allocate_prefetch(addr), want, "{ctx}: prefetch");
                }
                5 | 6 => {
                    // Send the head of the retry order, or a random line.
                    let target = match rng.random_bool(0.5) {
                        true => m.first_unsent().unwrap_or(addr),
                        false => addr,
                    };
                    if let Some(e) = model.get_mut(&(target.0 / 64)) {
                        e.sent = true;
                    }
                    m.mark_sent(target);
                }
                _ => {
                    let want = model.remove(&line).map(|e| {
                        let fill = FillOutcome {
                            waiters: e.waiters.len() as u32,
                            any_store: e.any_store,
                            prefetch: e.prefetch,
                        };
                        (fill, e.waiters)
                    });
                    assert_eq!(complete(&mut m, addr), want, "{ctx}: complete");
                }
            }
            assert_eq!(m.unsent_epoch() != epoch, entered_unsent, "{ctx}: epoch");
            let first_unsent = model.iter().find(|(_, e)| !e.sent).map(|(&k, _)| k);
            assert_eq!(
                m.first_unsent(),
                first_unsent.map(|k| PhysAddr(k * 64)),
                "{ctx}"
            );
            assert_eq!(m.has_unsent(), first_unsent.is_some(), "{ctx}");
            assert_eq!(m.len(), model.len(), "{ctx}");
            assert_eq!(m.is_full(), model.len() >= capacity, "{ctx}");
            assert_eq!(m.would_merge(addr), model.contains_key(&line), "{ctx}");
        }
    }

    /// The flat file behaves exactly like a `BTreeMap` of entries with a
    /// `Vec` of waiters each: merge, prefetch, full, the lowest-line-first
    /// retry order, the unsent epoch, and `complete`'s waiters in arrival
    /// order. Deterministic seeded sweep.
    #[test]
    fn reference_model() {
        for seed in 0..64u64 {
            check_against_model(seed, 2_000);
        }
    }

    /// [`reference_model`] over many more seeds and longer sequences.
    #[test]
    #[ignore = "deep tier: run with --include-ignored"]
    fn reference_model_deep() {
        for seed in 64..2_064u64 {
            check_against_model(seed, 10_000);
        }
    }
}
