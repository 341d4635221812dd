//! The two source rules no compiler lint states, read from raw text, and
//! the check that keeps the lints which *are* stated (`[workspace.lints]`
//! in the root manifest, `clippy.toml`) from being escaped: every Rust
//! file opens with a `//!` doc saying what it is for, no file carries a
//! to-do or fix-me marker, and every member manifest opts in to the
//! workspace lint tables and the workspace's toolchain floor.

// `allow-unwrap-in-tests` covers `#[test]` fns only, not their helpers.
#![allow(clippy::unwrap_used)]

use std::fs;
use std::path::{Path, PathBuf};

/// Assembled from halves so this file does not flag itself.
const MARKERS: [&str; 2] = [concat!("TO", "DO"), concat!("FIX", "ME")];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, build output excluded.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if !path.ends_with("target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_source_file_has_a_module_doc_and_no_placeholder() {
    let mut files = Vec::new();
    for tree in ["src", "crates", "tests", "examples"] {
        let before = files.len();
        rust_files(&root().join(tree), &mut files);
        assert!(files.len() > before, "the walk found no file under {tree}/");
    }
    let mut bad = Vec::new();
    for path in files {
        let src = read(&path);
        // Plain `//` lines may come first; an item or attribute may not.
        let opens = src
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && (l.starts_with("//!") || !l.starts_with("//")));
        if !opens.is_some_and(|l| l.starts_with("//!")) {
            bad.push(format!("{}: no opening `//!` doc", path.display()));
        }
        for (n, line) in src.lines().enumerate() {
            if MARKERS.iter().any(|m| line.contains(m)) {
                bad.push(format!("{}:{}: placeholder marker", path.display(), n + 1));
            }
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// The manifest's lint entries, one `table.key = value` per line, with
/// the root's `workspace.` prefix dropped so root and member compare equal.
fn lint_entries(manifest: &str) -> String {
    let mut table = None;
    let mut out = String::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']');
            let header = header.strip_prefix("workspace.").unwrap_or(header);
            table = header.strip_prefix("lints.");
        } else if let Some(t) = table {
            if !line.starts_with('#') && line.contains(" = ") {
                out += &format!("{t}.{line}\n");
            }
        }
    }
    out
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let root_manifest = read(&root().join("Cargo.toml"));
    let wanted = lint_entries(&root_manifest);
    assert!(wanted.lines().count() >= 10, "root lint tables:\n{wanted}");
    assert!(root().join("clippy.toml").is_file());
    // The toolchain floor, so an older toolchain says so up front: trait
    // upcasting needs 1.86 and `u64::is_multiple_of` 1.87 (clippy's
    // `incompatible_msrv` flags any newer standard-library item).
    assert!(root_manifest.contains("\nrust-version = \"1.87\"\n"));
    let mut members = vec![root_manifest];
    for dir in fs::read_dir(root().join("crates")).unwrap() {
        members.push(read(&dir.unwrap().path().join("Cargo.toml")));
    }
    for manifest in &members {
        let name = manifest.lines().find(|l| l.starts_with("name = "));
        assert!(
            manifest.contains("\nrust-version.workspace = true\n"),
            "{name:?} does not inherit the toolchain floor"
        );
        if manifest.contains("\n[lints]\nworkspace = true\n") {
            continue;
        }
        // The one member that restates the tables (see its manifest for
        // why) may differ from them in exactly one level.
        assert_eq!(name, Some("name = \"stfm-bench\""), "does not inherit");
        let own = lint_entries(manifest).replace("methods = \"allow\"", "methods = \"deny\"");
        assert_eq!(own, wanted, "{name:?} restates the lint tables wrongly");
    }
}
