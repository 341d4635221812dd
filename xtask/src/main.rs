//! Workspace automation tasks (`cargo xtask <task>`).
//!
//! The only task so far is `tidy`, a dependency-free static-analysis
//! engine. Source is lexed into a token stream ([`lexer`]) and every
//! rule in [`lint`] runs over it:
//!
//! 1. `cycle-cast` — no `as`-casts involving the cycle-domain newtypes
//!    (`DramCycle`, `CpuCycle`, `DramDelta`, `CpuDelta`); conversions
//!    go through `stfm_cycles::ClockRatio` or `new()`/`get()`.
//! 2. `unwrap` — no `.unwrap()` / `.expect(...)` outside test code.
//!    Vetted exceptions live in `xtask/tidy.allow`; stale entries are
//!    an error, so the list can only shrink.
//! 3. `module-doc` — every `.rs` file under `src/` or `tests/` opens
//!    with a `//!` doc comment.
//! 4. `dbg` / `placeholder` — no debug macros in code, no
//!    to-do/fix-me markers anywhere.
//! 5. `crate-root-lints` — every crate root carries
//!    `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]`.
//! 6. `hash-iter` — no unordered `HashMap`/`HashSet` iteration in the
//!    deterministic-core crates (bit-identical replay is the
//!    simulator's load-bearing property).
//! 7. `wall-clock` — no `Instant`/`SystemTime`/`std::time` in the
//!    deterministic core; no `SystemTime` in the edge layers.
//! 8. `lock-unwrap` — no `lock().unwrap()` poisoning hazards in the
//!    `catch_unwind`-isolated serve/sim paths.
//! 9. `index-arith` — no arithmetic inside `[…]` slice indexing in the
//!    serve parsers; use `.get(…)`.
//!
//! `cargo xtask tidy` prints human-readable findings;
//! `--format json` emits a machine-readable findings array (for the CI
//! artifact); `--self-test` proves every registered rule fires on its
//! committed negative fixture and stays silent on `clean.rs`.
//!
//! Everything is token/line level on purpose — no `syn`, no external
//! dependencies — so `cargo xtask tidy` works on a bare offline
//! toolchain.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod lexer;
mod lint;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lint::{parse_allowlist, Finding, Severity};

/// Output format for findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// One `path:line: severity [rule] text` line per finding.
    Human,
    /// A JSON array of finding objects (CI artifact).
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("tidy") => {
            let mut format = Format::Human;
            let mut self_test = false;
            let mut rest = args[1..].iter();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--self-test" => self_test = true,
                    "--format" => match rest.next().map(String::as_str) {
                        Some("human") => format = Format::Human,
                        Some("json") => format = Format::Json,
                        other => {
                            eprintln!(
                                "--format takes `human` or `json`, got {:?}",
                                other.unwrap_or("nothing")
                            );
                            return ExitCode::FAILURE;
                        }
                    },
                    "--format=human" => format = Format::Human,
                    "--format=json" => format = Format::Json,
                    other => {
                        eprintln!("unknown tidy option `{other}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if self_test {
                run_self_test()
            } else {
                tidy(format)
            }
        }
        Some(other) => {
            eprintln!("unknown task `{other}`; available tasks: tidy");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask <task>\n\ntasks:\n  tidy [--format human|json] [--self-test]\n          run the static-analysis engine"
            );
            ExitCode::FAILURE
        }
    }
}

/// `tidy --self-test`: every rule must fire on its negative fixture
/// and stay silent on the clean one.
fn run_self_test() -> ExitCode {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    match lint::self_test(&fixtures) {
        Ok(report) => {
            for line in &report {
                println!("{line}");
            }
            println!("tidy --self-test: {} rule(s) verified", report.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tidy --self-test FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every lint over the workspace and reports findings.
fn tidy(format: Format) -> ExitCode {
    let root = match repo_root() {
        Some(r) => r,
        None => {
            eprintln!("xtask: cannot locate the workspace root");
            return ExitCode::FAILURE;
        }
    };
    let allow_path = root.join("xtask").join("tidy.allow");
    let allow_src = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let allowlist = parse_allowlist(&allow_src);

    let mut files = Vec::new();
    collect_rs_files(&root, &root, &mut files);
    files.sort();

    let mut findings = Vec::new();
    for path in &files {
        let rel = relative_path(&root, path);
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                findings.push(Finding {
                    path: rel,
                    line: 0,
                    rule: "io",
                    severity: Severity::Error,
                    text: format!("unreadable: {e}"),
                });
                continue;
            }
        };
        findings.extend(lint::check_file(&rel, &src, &allowlist));
    }
    // A stale allowlist entry is an error: the list may only shrink.
    for entry in &allowlist {
        if !entry.used.get() {
            findings.push(Finding {
                path: "xtask/tidy.allow".into(),
                line: entry.line,
                rule: "stale-allow",
                severity: Severity::Error,
                text: format!("unused allowlist entry: {}: {}", entry.path, entry.needle),
            });
        }
    }

    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    match format {
        Format::Human => {
            for f in &findings {
                println!("{f}");
            }
            println!(
                "tidy: {} finding(s) ({errors} error(s)) in {} files scanned",
                findings.len(),
                files.len()
            );
        }
        Format::Json => {
            let body: Vec<String> = findings.iter().map(Finding::to_json).collect();
            println!("[{}]", body.join(",\n "));
            eprintln!(
                "tidy: {} finding(s) ({errors} error(s)) in {} files scanned",
                findings.len(),
                files.len()
            );
        }
    }
    if errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The repository root: the parent of this crate's manifest directory.
fn repo_root() -> Option<PathBuf> {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
}

/// `path` relative to `root`, `/`-separated.
fn relative_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursively collects `.rs` files, skipping build output, VCS state, and
/// the lint fixtures (which are deliberately dirty).
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            if name == "fixtures" && relative_path(root, &path).starts_with("xtask/") {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lint::check_file;

    fn fixture(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        std::fs::read_to_string(&path).unwrap()
    }

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> = check_file(rel, src, &[])
            .into_iter()
            .map(|f| f.rule)
            .collect();
        rules.sort();
        rules.dedup();
        rules
    }

    fn count_rule(rel: &str, src: &str, rule: &str) -> usize {
        check_file(rel, src, &[])
            .into_iter()
            .filter(|f| f.rule == rule)
            .count()
    }

    #[test]
    fn bad_cycle_cast_fixture_is_flagged_including_multiline() {
        let src = fixture("bad_cycle_cast.rs");
        // Three casts: single-line, parenthesized, and split across lines.
        assert_eq!(count_rule("crates/x/src/bad.rs", &src, "cycle-cast"), 3);
    }

    #[test]
    fn bad_unwrap_fixture_is_flagged_outside_tests_only() {
        let src = fixture("bad_unwrap.rs");
        // The fixture has two non-test sites and one inside #[cfg(test)].
        assert_eq!(count_rule("crates/x/src/bad.rs", &src, "unwrap"), 2);
        // The same file under tests/ is exempt.
        assert_eq!(count_rule("crates/x/tests/bad.rs", &src, "unwrap"), 0);
    }

    #[test]
    fn unwrap_variants_do_not_match() {
        let src = "//! Doc.\nfn f(v: Option<u32>) -> u32 {\n    v.unwrap_or_else(|| v.unwrap_or_default().max(v.unwrap_or(1)))\n}\n";
        assert_eq!(count_rule("crates/x/src/s.rs", src, "unwrap"), 0);
    }

    #[test]
    fn multiline_unwrap_is_still_caught() {
        let src = "//! Doc.\nfn f(v: Option<u32>) -> u32 {\n    v\n        .unwrap()\n}\n";
        assert_eq!(count_rule("crates/x/src/s.rs", src, "unwrap"), 1);
    }

    #[test]
    fn allowlisted_unwrap_is_accepted_and_marked_used() {
        let src = fixture("bad_unwrap.rs");
        let allow = parse_allowlist("# vetted\ncrates/x/src/bad.rs: let a = maybe().unwrap();\n");
        let findings = check_file("crates/x/src/bad.rs", &src, &allow);
        assert_eq!(
            findings.iter().filter(|f| f.rule == "unwrap").count(),
            1,
            "only the non-allowlisted site remains"
        );
        assert!(allow[0].used.get());
    }

    #[test]
    fn allowlist_parser_skips_comments_and_malformed_lines() {
        let allow = parse_allowlist(
            "# comment\n\nnot a valid entry\ncrates/a.rs: foo();\n  crates/b.rs: bar(); \n",
        );
        assert_eq!(allow.len(), 2);
        assert_eq!(allow[0].line, 4);
        assert_eq!(allow[0].path, "crates/a.rs");
        assert_eq!(allow[0].needle, "foo();");
        assert_eq!(allow[1].line, 5);
        assert_eq!(allow[1].path, "crates/b.rs");
        assert_eq!(allow[1].needle, "bar();");
        assert!(!allow[0].used.get() && !allow[1].used.get());
    }

    #[test]
    fn bad_module_doc_fixture_is_flagged() {
        let rules = rules_hit("crates/x/src/bad.rs", &fixture("bad_module_doc.rs"));
        assert!(rules.contains(&"module-doc"), "rules: {rules:?}");
    }

    #[test]
    fn module_doc_rule_covers_integration_tests() {
        // Integration tests under tests/ are held to the module-doc rule
        // like src/ files (a test's opening doc states what it proves)...
        let rules = rules_hit("crates/x/tests/bad.rs", &fixture("bad_module_doc.rs"));
        assert!(rules.contains(&"module-doc"), "rules: {rules:?}");
        // ...while files outside both trees (e.g. build scripts) are not.
        let rules = rules_hit("crates/x/build.rs", &fixture("bad_module_doc.rs"));
        assert!(!rules.contains(&"module-doc"), "rules: {rules:?}");
    }

    #[test]
    fn bad_marker_fixture_is_flagged() {
        let rules = rules_hit("crates/x/src/bad.rs", &fixture("bad_markers.rs"));
        assert!(rules.contains(&"placeholder"), "rules: {rules:?}");
        assert!(rules.contains(&"dbg"), "rules: {rules:?}");
    }

    #[test]
    fn bad_crate_root_fixture_is_flagged() {
        let src = fixture("bad_crate_root.rs");
        assert_eq!(
            count_rule("crates/x/src/lib.rs", &src, "crate-root-lints"),
            2
        );
        // The same file not at a crate root is not held to that rule.
        assert_eq!(
            count_rule("crates/x/src/inner.rs", &src, "crate-root-lints"),
            0
        );
    }

    #[test]
    fn hash_iter_fixture_counts_and_scoping() {
        let src = fixture("bad_hash_iter.rs");
        // for-in over &self.rank, rank.values(), seen.iter(),
        // drained.drain() — and nothing for the lookup-only `cache`.
        assert_eq!(count_rule("crates/mc/src/bad.rs", &src, "hash-iter"), 4);
        // Outside the deterministic core the rule does not apply.
        assert_eq!(count_rule("crates/serve/src/bad.rs", &src, "hash-iter"), 0);
        assert_eq!(count_rule("tools/src/bad.rs", &src, "hash-iter"), 0);
    }

    #[test]
    fn hash_iter_leaves_btreemap_and_lookups_alone() {
        let src = "//! Doc.\nuse std::collections::{BTreeMap, HashMap};\nfn f(m: &BTreeMap<u32, u32>, h: &HashMap<u32, u32>) -> u32 {\n    let mut acc = 0;\n    for (k, v) in m {\n        acc += k + v;\n    }\n    acc + h.get(&0).copied().unwrap_or(0)\n}\n";
        assert_eq!(count_rule("crates/mc/src/s.rs", src, "hash-iter"), 0);
    }

    #[test]
    fn hash_iter_applies_inside_test_code_too() {
        let src = "//! Doc.\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let mut m = std::collections::HashMap::new();\n        m.insert(1u32, 2u32);\n        for (k, v) in &m {\n            assert!(k < v);\n        }\n    }\n}\n";
        assert_eq!(count_rule("crates/mc/src/s.rs", src, "hash-iter"), 1);
    }

    #[test]
    fn wall_clock_fixture_and_scoping() {
        let src = fixture("bad_wall_clock.rs");
        // use std::time (line), Instant::now, SystemTime::now.
        assert_eq!(count_rule("crates/mc/src/bad.rs", &src, "wall-clock"), 3);
        // cancel.rs is the vetted core exception.
        assert_eq!(
            count_rule("crates/sim/src/cancel.rs", &src, "wall-clock"),
            0
        );
        // Edge layers: Instant fine, SystemTime flagged.
        assert_eq!(count_rule("crates/serve/src/bad.rs", &src, "wall-clock"), 1);
        assert_eq!(count_rule("crates/bench/src/bad.rs", &src, "wall-clock"), 1);
        // Outside every scope nothing fires.
        assert_eq!(count_rule("tools/src/bad.rs", &src, "wall-clock"), 0);
    }

    #[test]
    fn lock_unwrap_fixture_and_scoping() {
        let src = fixture("bad_lock_unwrap.rs");
        // unwrap + expect flagged; PoisonError recovery not.
        assert_eq!(
            count_rule("crates/serve/src/bad.rs", &src, "lock-unwrap"),
            2
        );
        assert_eq!(count_rule("crates/sim/src/bad.rs", &src, "lock-unwrap"), 2);
        assert_eq!(count_rule("crates/mc/src/bad.rs", &src, "lock-unwrap"), 0);
    }

    #[test]
    fn index_arith_fixture_and_scoping() {
        let src = fixture("bad_index_arith.rs");
        // bytes[pos + 1] and bytes[pos..pos + 4]; .get(pos + 1) and
        // bytes[0] stay clean.
        assert_eq!(
            count_rule("crates/serve/src/bad.rs", &src, "index-arith"),
            2
        );
        assert_eq!(count_rule("crates/mc/src/bad.rs", &src, "index-arith"), 0);
    }

    #[test]
    fn index_arith_ignores_float_exponents() {
        // `1e-9` lexes as one number: its sign is not index arithmetic.
        let src = "//! Doc.\nfn f(xs: &[f64], i: usize) -> f64 {\n    xs[i].max(1e-9)\n}\n";
        assert_eq!(count_rule("crates/serve/src/s.rs", src, "index-arith"), 0);
    }

    #[test]
    fn clean_fixture_has_zero_findings_under_every_scope() {
        let src = fixture("clean.rs");
        for vpath in [
            "crates/mc/src/lib.rs",
            "crates/serve/src/lib.rs",
            "crates/bench/src/lib.rs",
            "crates/sim/src/lib.rs",
        ] {
            let findings = check_file(vpath, &src, &[]);
            assert!(findings.is_empty(), "{vpath}: {findings:?}");
        }
    }

    #[test]
    fn strings_and_comments_do_not_fool_the_scanner() {
        let src =
            "//! Doc.\nfn f() -> &'static str {\n    \".unwrap() dbg!( lock().unwrap()\"\n}\n";
        assert_eq!(rules_hit("crates/serve/src/s.rs", src), Vec::<&str>::new());
        let cast_in_doc = "//! `x as DramCycle` is banned.\n//! So is `map.iter()` and `Instant::now()`.\nfn f() {}\n";
        assert_eq!(
            rules_hit("crates/mc/src/t.rs", cast_in_doc),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn cycle_cast_detects_all_four_types_and_no_others() {
        for ty in lint::CYCLE_TYPES {
            let src = format!("//! D.\nfn f(y: u64) {{ let _ = y as {ty}; }}\n");
            assert_eq!(count_rule("crates/mc/src/s.rs", &src, "cycle-cast"), 1);
        }
        let src = "//! D.\nfn f(y: u64) { let _ = y as u64; }\n";
        assert_eq!(count_rule("crates/mc/src/s.rs", src, "cycle-cast"), 0);
        let src = "//! D.\nfn f(y: u64) { let _ = y as DramCycleish; }\n";
        assert_eq!(count_rule("crates/mc/src/s.rs", src, "cycle-cast"), 0);
    }

    #[test]
    fn self_test_passes_on_committed_fixtures() {
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let report = lint::self_test(&fixtures).unwrap();
        assert_eq!(report.len(), lint::all_rules().len());
    }

    #[test]
    fn json_output_is_escaped() {
        let f = Finding {
            path: "a/b.rs".into(),
            line: 3,
            rule: "unwrap",
            severity: Severity::Error,
            text: "say \"hi\"\\".into(),
        };
        assert_eq!(
            f.to_json(),
            r#"{"path":"a/b.rs","line":3,"rule":"unwrap","severity":"error","text":"say \"hi\"\\"}"#
        );
    }
}
