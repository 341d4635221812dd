//! The one on-disk record store.
//!
//! A [`Store`] maps names to typed values in two tiers: an in-process
//! memo shared by every worker thread, and an optional directory. Both
//! persistent caches are records over it, [`crate::AloneCache`] and
//! `stfm_serve::ResultCache`. The store owns the file format; a record
//! supplies its body text and a decoder that checks it.
//!
//! The directory tier never serves a wrong value, wherever a crash hits:
//!
//! - Record `name` is the file `<prefix><name>.<ext>`, holding
//!   `body + "\n#fnv:<hex_digest(body)>\n"`, so a torn write is detected.
//! - A write goes to `<file>.tmp<pid>-<seq>` and is renamed over the
//!   record. The sequence is process-wide, so two threads writing one
//!   name never share a temp file.
//! - A file that cannot be read (except "not found", a plain miss), fails
//!   the footer or fails the decoder is **quarantined**: renamed to
//!   `<file>.bad` (deleted if that fails) and read as a miss, which the
//!   next [`Store::put`] heals.
//! - Opening a directory reaps `<prefix>*.tmp*`, which only crashed
//!   writers leave. That never races the opening store's own writes. It
//!   can race another store over the same directory (a second process
//!   or handle): a write whose temp file is reaped is dropped, and the
//!   value is recomputed by whoever next misses it.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::digest::hex_digest;

/// Checksum footer prefix: the last line of a record file.
const FOOTER: &str = "#fnv:";

/// Two-tier (memory + optional directory) store of `V` records, safe to
/// share across worker threads.
#[derive(Debug, Default)]
pub struct Store<V> {
    memo: Mutex<HashMap<String, V>>,
    dir: Option<PathBuf>,
    prefix: &'static str,
    ext: &'static str,
    quarantined: AtomicU64,
}

impl<V: Clone> Store<V> {
    /// A store over `dir` (created if missing) whose records are
    /// `<prefix><name>.<ext>`, after reaping stale temp files.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or listed.
    pub fn with_dir(
        dir: impl Into<PathBuf>,
        prefix: &'static str,
        ext: &'static str,
    ) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)?.flatten() {
            let name = entry.file_name();
            let stale = name
                .to_str()
                .is_some_and(|n| n.starts_with(prefix) && n.contains(".tmp"));
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(Store {
            memo: Mutex::default(),
            dir: Some(dir),
            prefix,
            ext,
            quarantined: AtomicU64::new(0),
        })
    }

    /// The memo. A poisoned lock only means a worker panicked mid-insert;
    /// every entry is still a complete value.
    fn memo(&self) -> MutexGuard<'_, HashMap<String, V>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        Some(dir.join(format!("{}{name}.{}", self.prefix, self.ext)))
    }

    /// The value under `name`: memoized, or read from a file whose footer
    /// verifies and whose body `decode` accepts (then memoized). Any other
    /// file is quarantined.
    pub fn get(&self, name: &str, decode: impl FnOnce(&str) -> Option<V>) -> Option<V> {
        if let Some(hit) = self.memo().get(name) {
            return Some(hit.clone());
        }
        let path = self.path(name)?;
        let value = match fs::read_to_string(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            read => read.ok().as_deref().and_then(unseal).and_then(decode),
        };
        match &value {
            Some(v) => self.remember(name, v.clone()),
            None => self.quarantine(&path),
        }
        value
    }

    /// Memoizes `value` under `name` and persists `body` as its record.
    /// Disk failures are swallowed: the directory is an optimization.
    pub fn put(&self, name: &str, value: V, body: &str) {
        self.remember(name, value);
        let Some(path) = self.path(name) else { return };
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut tmp = path.clone().into_os_string();
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        tmp.push(format!(".tmp{}-{seq}", std::process::id()));
        if fs::write(&tmp, seal(body))
            .and_then(|()| fs::rename(&tmp, &path))
            .is_err()
        {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Memoizes `value` under `name` without touching the directory.
    pub fn remember(&self, name: &str, value: V) {
        self.memo().insert(name.to_string(), value);
    }

    /// Moves a bad record off the hit path. Counted only if this call
    /// moved it, so racing readers of one file count it once.
    fn quarantine(&self, path: &Path) {
        let mut bad = path.as_os_str().to_owned();
        bad.push(".bad");
        if fs::rename(path, bad).is_ok() || fs::remove_file(path).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of memoized values.
    pub fn len(&self) -> usize {
        self.memo().len()
    }

    /// True if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of record files quarantined so far.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

/// A record file's content: `body`, then its checksum footer.
fn seal(body: &str) -> String {
    format!("{body}\n{FOOTER}{}\n", hex_digest(body))
}

/// The body of a record file, if its footer verifies and ends the file.
fn unseal(raw: &str) -> Option<&str> {
    let (body, footer) = raw.strip_suffix('\n')?.rsplit_once('\n')?;
    (footer.strip_prefix(FOOTER)? == hex_digest(body)).then_some(body)
}

/// The corruption matrix: eight damaged versions of the record file
/// holding `body`, by name, for every record's tests to run.
#[doc(hidden)]
pub fn corruptions(body: &str) -> [(&'static str, Vec<u8>); 8] {
    let sealed = seal(body);
    let (half, footer) = (&body[..body.len() / 2], &sealed[body.len() + 1..]);
    [
        ("truncated_mid_line", format!("{half}\n{footer}").into()),
        ("garbage", b"{\"type\":\"result\",oops}\n".to_vec()),
        ("empty_file", Vec::new()),
        (
            "wrong_checksum",
            format!("{body}\n{FOOTER}{}\n", hex_digest("x")).into(),
        ),
        ("footer_only", footer.into()),
        ("trailing_garbage", format!("{sealed}extra\n").into()),
        (
            "invalid_utf8",
            [half.as_bytes(), b"\xff", &sealed.as_bytes()[half.len()..]].concat(),
        ),
        ("footerless", format!("{body}\n").into()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stfm-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Accepts exactly the two-line body this module's tests write.
    fn decode(body: &str) -> Option<String> {
        let (a, b) = body.split_once('\n')?;
        (a == "first" && b == "second").then(|| body.to_string())
    }

    const BODY: &str = "first\nsecond";

    #[test]
    fn a_record_is_its_body_and_a_checksum_footer() {
        let dir = scratch_dir("format");
        let store = Store::with_dir(&dir, "rec-", "txt").unwrap();
        store.put("a", BODY.to_string(), BODY);
        let raw = fs::read_to_string(dir.join("rec-a.txt")).unwrap();
        assert_eq!(raw, format!("{BODY}\n#fnv:{}\n", hex_digest(BODY)));
        assert_eq!(unseal(&raw), Some(BODY));
        let fresh: Store<String> = Store::with_dir(&dir, "rec-", "txt").unwrap();
        assert!(fresh.is_empty());
        assert_eq!(fresh.get("a", decode).as_deref(), Some(BODY));
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh.get("b", decode), None);
        assert_eq!(
            fresh.quarantined_count(),
            0,
            "a missing file is a plain miss"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every damaged file misses, is quarantined exactly once, leaves
    /// nothing on the hit path, and heals on the next put.
    #[test]
    fn corruption_matrix_quarantines_once_and_heals() {
        for (tag, bytes) in corruptions(BODY) {
            let dir = scratch_dir(tag);
            let store = Store::with_dir(&dir, "rec-", "txt").unwrap();
            let path = dir.join("rec-a.txt");
            fs::write(&path, bytes).unwrap();
            assert_eq!(store.get("a", decode), None, "{tag}: corrupt record hit");
            assert_eq!(store.quarantined_count(), 1, "{tag}: not quarantined");
            assert!(!path.exists(), "{tag}: bad file left on the hit path");
            assert!(
                dir.join("rec-a.txt.bad").exists(),
                "{tag}: no quarantine file"
            );
            assert_eq!(store.get("a", decode), None, "{tag}: second miss");
            assert_eq!(store.quarantined_count(), 1, "{tag}: quarantined twice");
            store.put("a", BODY.to_string(), BODY);
            let fresh: Store<String> = Store::with_dir(&dir, "rec-", "txt").unwrap();
            assert_eq!(
                fresh.get("a", decode).as_deref(),
                Some(BODY),
                "{tag}: not healed"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_body_the_decoder_rejects_is_quarantined() {
        let dir = scratch_dir("decoder");
        let store = Store::with_dir(&dir, "rec-", "txt").unwrap();
        store.put("a", "other".to_string(), "other");
        let fresh: Store<String> = Store::with_dir(&dir, "rec-", "txt").unwrap();
        assert_eq!(fresh.get("a", decode), None);
        assert_eq!(fresh.quarantined_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_reaps_only_this_prefix_temp_files() {
        let dir = scratch_dir("reap");
        fs::create_dir_all(&dir).unwrap();
        for name in [
            "rec-a.txt.tmp1-0",
            "rec-b.txt.tmp99-7",
            "other-a.txt.tmp1-0",
        ] {
            fs::write(dir.join(name), "torn").unwrap();
        }
        let _store: Store<String> = Store::with_dir(&dir, "rec-", "txt").unwrap();
        assert!(!dir.join("rec-a.txt.tmp1-0").exists());
        assert!(!dir.join("rec-b.txt.tmp99-7").exists());
        assert!(dir.join("other-a.txt.tmp1-0").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
