//! Content-addressed persistent result cache.
//!
//! Keys are the FNV-1a hex digests of a cell's canonical form
//! ([`crate::spec::Cell::key`]); values are complete, verbatim result
//! lines ([`crate::result::result_line`]). Because a stored line is
//! byte-identical to what a fresh run would emit, a cache hit can be
//! replayed directly onto the output stream without breaking the
//! determinism guarantee.
//!
//! The cache is a record over [`stfm_sim::store::Store`], which owns the
//! memo, the `cell-<key>.json` files, their checksums, quarantine and
//! temp-file reap. A stored line must parse and carry its own key.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "fault-inject")]
use std::sync::{Mutex, PoisonError};

use stfm_sim::store::Store;
use stfm_sim::WorkloadMetrics;

use crate::result::parse_result_line;

/// A validated cache hit: the stored line plus its parsed metrics.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The verbatim result line to replay.
    pub line: String,
    /// Metrics reconstructed from the line's integer counters.
    pub metrics: WorkloadMetrics,
}

/// Predicate deciding whether a disk write for a given key should be
/// dropped, simulating a cache IO failure (fault-injection only).
#[cfg(feature = "fault-inject")]
pub type WriteFaultFn = Box<dyn Fn(&str) -> bool + Send + Sync>;

#[cfg(feature = "fault-inject")]
struct WriteFault(WriteFaultFn);

#[cfg(feature = "fault-inject")]
impl std::fmt::Debug for WriteFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WriteFault(..)")
    }
}

/// Two-tier (memory + optional disk) result cache, safe to share across
/// worker threads.
#[derive(Debug, Default)]
pub struct ResultCache {
    lines: Store<String>,
    hits: AtomicU64,
    misses: AtomicU64,
    #[cfg(feature = "fault-inject")]
    write_fault: Mutex<Option<WriteFault>>,
}

impl ResultCache {
    /// A purely in-memory cache (no persistence).
    #[must_use]
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A cache backed by `dir`, created if missing, after the store has
    /// reaped crashed writers' temp files.
    ///
    /// # Errors
    ///
    /// Propagates the error if the directory cannot be created or listed.
    pub fn with_dir(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Ok(Self {
            lines: Store::with_dir(dir, "cell-", "json")?,
            ..Self::default()
        })
    }

    /// Looks up a cell by content-address. Counts a hit or a miss. A
    /// stored line that no longer parses, or is filed under the wrong
    /// key, is a miss (and, on disk, quarantined), never an error.
    pub fn lookup(&self, key: &str) -> Option<CachedResult> {
        let mine = |line: &str| parse_result_line(line).ok().filter(|p| p.key == key);
        let line = self.lines.get(key, |l| mine(l).map(|_| l.to_string()));
        let hit = line.and_then(|line| {
            let metrics = mine(&line)?.metrics;
            Some(CachedResult { line, metrics })
        });
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Stores a freshly computed result line; disk failures are
    /// swallowed, as persistence is only an optimization.
    pub fn store(&self, key: &str, line: &str) {
        #[cfg(feature = "fault-inject")]
        if self.write_fault_fires(key) {
            return self.lines.remember(key, line.to_string());
        }
        self.lines.put(key, line.to_string(), line);
    }

    /// Installs a predicate that makes [`ResultCache::store`] silently
    /// drop the *disk* write for matching keys (the memo tier still
    /// updates), simulating cache IO failures.
    #[cfg(feature = "fault-inject")]
    pub fn set_write_fault(&self, f: impl Fn(&str) -> bool + Send + Sync + 'static) {
        *self
            .write_fault
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(WriteFault(Box::new(f)));
    }

    #[cfg(feature = "fault-inject")]
    fn write_fault_fires(&self, key: &str) -> bool {
        self.write_fault
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .is_some_and(|f| (f.0)(key))
    }

    /// Number of successful lookups so far.
    #[must_use]
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of failed lookups so far.
    #[must_use]
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of corrupt disk entries quarantined so far.
    #[must_use]
    pub fn quarantined_count(&self) -> u64 {
        self.lines.quarantined_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::result_line;
    use crate::runner::run_cell_cancellable;
    use crate::spec::{Cell, SchedSpec};
    use std::fs;
    use stfm_sim::digest::hex_digest;
    use stfm_sim::AloneCache;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stfm-serve-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_cell() -> Cell {
        Cell::new(SchedSpec::Fcfs, vec!["mcf".into()]).insts(1_000)
    }

    fn sample_line() -> (String, String) {
        let cell = sample_cell();
        let metrics = cell.to_experiment().unwrap().run();
        (cell.key(), result_line(&cell, &metrics))
    }

    #[test]
    fn memory_tier_hits_after_store() {
        let cache = ResultCache::in_memory();
        let (key, line) = sample_line();
        assert!(cache.lookup(&key).is_none());
        cache.store(&key, &line);
        let hit = cache.lookup(&key).unwrap();
        assert_eq!(hit.line, line);
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.miss_count(), 1);
    }

    #[test]
    fn disk_tier_survives_process_restart() {
        let dir = scratch_dir("restart");
        let (key, line) = sample_line();
        {
            let cache = ResultCache::with_dir(&dir).unwrap();
            cache.store(&key, &line);
        }
        // A brand-new cache over the same directory sees the entry.
        let cache = ResultCache::with_dir(&dir).unwrap();
        let hit = cache.lookup(&key).unwrap();
        assert_eq!(hit.line, line);
        assert!(!hit.metrics.threads.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_entries_carry_a_verifiable_checksum_footer() {
        let dir = scratch_dir("footer");
        let (key, line) = sample_line();
        let cache = ResultCache::with_dir(&dir).unwrap();
        cache.store(&key, &line);
        let raw = fs::read_to_string(dir.join(format!("cell-{key}.json"))).unwrap();
        assert_eq!(
            raw,
            format!("{line}\n#fnv:{}\n", hex_digest(&line)),
            "entry must be line + checksum footer"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_mismatched_entries_are_misses() {
        let dir = scratch_dir("corrupt");
        let (key, line) = sample_line();
        let cache = ResultCache::with_dir(&dir).unwrap();
        fs::write(dir.join(format!("cell-{key}.json")), "{ truncated").unwrap();
        assert!(cache.lookup(&key).is_none());
        // A valid line filed under a different key is also a miss.
        cache.store("0000000000000000", &line);
        assert!(cache.lookup("0000000000000000").is_none());
        assert_eq!(cache.hit_count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The store's corruption matrix against this record: every damaged
    /// entry (a footer-less one from before the checksum included) is a
    /// miss, is quarantined exactly once, leaves nothing on the hit path,
    /// and is recomputed into the identical line.
    #[test]
    fn corruption_matrix_degrades_to_misses_and_quarantines() {
        let (key, line) = sample_line();
        for (tag, content) in stfm_sim::store::corruptions(&line) {
            let dir = scratch_dir(tag);
            let cache = ResultCache::with_dir(&dir).unwrap();
            let path = dir.join(format!("cell-{key}.json"));
            fs::write(&path, content).unwrap();
            assert!(cache.lookup(&key).is_none(), "{tag}: corrupt entry hit");
            assert_eq!(cache.quarantined_count(), 1, "{tag}: not quarantined");
            assert!(!path.exists(), "{tag}: bad file left on the hit path");
            let bad = dir.join(format!("cell-{key}.json.bad"));
            assert!(bad.exists(), "{tag}: quarantine file missing");
            let run = run_cell_cancellable(&sample_cell(), &AloneCache::new(), &cache, None);
            let (again, _, from_cache) = run.unwrap().unwrap();
            assert!(!from_cache, "{tag}: served without recomputing");
            assert_eq!(again, line, "{tag}: recomputed line differs");
            assert_eq!(cache.quarantined_count(), 1, "{tag}: quarantined twice");
            let fresh = ResultCache::with_dir(&dir).unwrap();
            assert_eq!(fresh.lookup(&key).unwrap().line, line, "{tag}: not healed");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn wrong_key_contents_quarantine_on_disk_load() {
        let dir = scratch_dir("wrongkey");
        let (key, line) = sample_line();
        let cache = ResultCache::with_dir(&dir).unwrap();
        // A checksum-valid entry whose line belongs to a different cell:
        // the checksum passes but the key check must still reject it.
        let path = dir.join("cell-0000000000000000.json");
        fs::write(&path, format!("{line}\n#fnv:{}\n", hex_digest(&line))).unwrap();
        assert!(cache.lookup("0000000000000000").is_none());
        assert_eq!(cache.quarantined_count(), 1);
        assert!(!path.exists());
        // The real key still resolves nothing (entry was never for it).
        assert!(cache.lookup(&key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_sweep_reaps_stale_temp_files() {
        let dir = scratch_dir("reap");
        fs::create_dir_all(&dir).unwrap();
        // Leftovers from two different crashed writers + one real entry.
        fs::write(dir.join("cell-abc.json.tmp123-0"), "torn").unwrap();
        fs::write(dir.join("cell-abc.json.tmp999-7"), "torn").unwrap();
        let (key, line) = sample_line();
        fs::write(
            dir.join(format!("cell-{key}.json")),
            format!("{line}\n#fnv:{}\n", hex_digest(&line)),
        )
        .unwrap();
        let cache = ResultCache::with_dir(&dir).unwrap();
        assert!(!dir.join("cell-abc.json.tmp123-0").exists());
        assert!(!dir.join("cell-abc.json.tmp999-7").exists());
        assert!(cache.lookup(&key).is_some(), "real entry must survive");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_of_one_key_leave_a_clean_entry() {
        let dir = scratch_dir("race");
        let (key, line) = sample_line();
        let cache = ResultCache::with_dir(&dir).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        cache.store(&key, &line);
                    }
                });
            }
        });
        // No temp litter, and the surviving entry validates.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        let fresh = ResultCache::with_dir(&dir).unwrap();
        assert_eq!(fresh.lookup(&key).unwrap().line, line);
        assert_eq!(fresh.quarantined_count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
