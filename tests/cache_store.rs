//! One served cell through both persistent caches over one directory:
//! cold, then warm from disk, then with one file of each kind poisoned.
//! Both caches are records over `stfm_sim::store`, so this is the
//! workspace-level check that the store's format, quarantine and reuse
//! hold end to end (the unit matrices live beside each record).

// Inodes tell a file served from disk from one rewritten in place.
#![cfg(unix)]
// `allow-unwrap-in-tests` covers `#[test]` fns only, not their helpers.
#![allow(clippy::unwrap_used)]

use std::fs;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

use stfm_serve::{run_cell, Cell, ResultCache, SchedSpec};
use stfm_sim::AloneCache;

/// Each file of `dir` with its inode, sorted: a rewrite (temp file plus
/// rename) changes the inode even when the bytes come out the same.
fn files(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut out: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let ino = fs::metadata(&path).unwrap().ino();
            (path, ino)
        })
        .collect();
    out.sort();
    out
}

fn caches(dir: &Path) -> (AloneCache, ResultCache) {
    (
        AloneCache::with_dir(dir.join("alone")).unwrap(),
        ResultCache::with_dir(dir.join("cells")).unwrap(),
    )
}

#[test]
fn a_served_cell_survives_restarts_and_poisoned_files() {
    let dir = std::env::temp_dir().join(format!("stfm-cache-store-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cell = Cell::new(SchedSpec::Stfm, vec!["mcf".into(), "libquantum".into()]).insts(1_000);

    // 1. Cold: simulated, one result file and two alone files written.
    let (alone, results) = caches(&dir);
    let (line, _, from_cache) = run_cell(&cell, &alone, &results).unwrap();
    assert!(!from_cache);
    let alone_files = files(&dir.join("alone"));
    let cell_files = files(&dir.join("cells"));
    assert_eq!((alone_files.len(), cell_files.len()), (2, 1));

    // 2. Fresh caches over the same directory: the result replays byte
    // for byte; with the result cache bypassed, both baselines come from
    // their files, which are left as they were.
    let (alone, results) = caches(&dir);
    let (warm, _, from_cache) = run_cell(&cell, &alone, &results).unwrap();
    assert!(from_cache);
    assert_eq!(warm, line);
    let (resimulated, _, from_cache) = run_cell(&cell, &alone, &ResultCache::in_memory()).unwrap();
    assert!(!from_cache);
    assert_eq!(resimulated, line);
    assert_eq!(alone.len(), 2);
    assert_eq!(
        files(&dir.join("alone")),
        alone_files,
        "a baseline was rewritten"
    );

    // 3. One file of each kind poisoned: both quarantined, and the
    // recomputed line is identical.
    fs::write(&alone_files[0].0, "torn").unwrap();
    fs::write(&cell_files[0].0, "torn").unwrap();
    let (alone, results) = caches(&dir);
    let (healed, _, from_cache) = run_cell(&cell, &alone, &results).unwrap();
    assert!(!from_cache);
    assert_eq!(healed, line);
    assert_eq!(alone.quarantined_count(), 1);
    assert_eq!(results.quarantined_count(), 1);
    for (path, _) in [&alone_files[0], &cell_files[0]] {
        let mut bad = path.clone().into_os_string();
        bad.push(".bad");
        assert!(
            Path::new(&bad).exists(),
            "{} not quarantined",
            path.display()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
