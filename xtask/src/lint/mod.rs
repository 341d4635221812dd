//! The lint framework: rule trait, per-file context, scoping config,
//! allowlist, and the `--self-test` harness.
//!
//! Every rule is one module in this directory implementing [`Rule`].
//! A rule receives a [`FileCtx`] — the token stream from
//! [`crate::lexer`], the raw source lines, and precomputed
//! test-context flags — and appends [`Finding`]s. Scoping is data,
//! not code: the `DETERMINISTIC_CORE` / `WALL_CLOCK_*` / `PANIC_*`
//! path-prefix tables below say where each semantic rule applies, so
//! adding a crate to the deterministic core is a one-line change.
//!
//! To add a rule: create `lint/<name>.rs` with a unit struct
//! implementing [`Rule`], give it a negative fixture under
//! `xtask/fixtures/`, and register it in [`all_rules`]. The
//! `--self-test` mode then enforces that the rule fires on its
//! fixture and stays silent on `clean.rs` — an unregistered or
//! non-firing rule fails CI, so dead lints cannot accumulate.

use std::cell::Cell;
use std::fmt;
use std::path::Path;

use crate::lexer::{lex, Token};

mod crate_root;
mod cycle_cast;
#[cfg(test)]
pub use cycle_cast::CYCLE_TYPES;
mod hash_iter;
mod index_arith;
mod lock_unwrap;
mod markers;
mod module_doc;
mod unwrap;
mod wall_clock;

/// Crates whose `src/` trees must stay bit-deterministic: no unordered
/// map/set iteration, no wall-clock reads. These are the crates on the
/// replay path of the differential fuzz suite and the result cache.
pub const DETERMINISTIC_CORE: [&str; 6] = [
    "crates/core/src/",
    "crates/cpu/src/",
    "crates/dram/src/",
    "crates/mc/src/",
    "crates/sim/src/",
    "crates/workloads/src/",
];

/// Files inside the deterministic core that may read the wall clock.
/// `cancel.rs` implements deadline cancellation — wall-clock is its job,
/// and it never feeds simulation state.
pub const WALL_CLOCK_CORE_ALLOW: [&str; 1] = ["crates/sim/src/cancel.rs"];

/// Edge layers where `Instant` latency measurement is legitimate but
/// `SystemTime` (calendar time) is banned outright, so timestamps cannot
/// silently leak into cached results or output artifacts.
pub const WALL_CLOCK_EDGE: [&str; 3] =
    ["crates/bench/src/", "crates/cli/src/", "crates/serve/src/"];

/// Crates whose `src/` trees run under `catch_unwind` isolation (the
/// serve degradation ladder) — a poisoned lock or a sliced-index panic
/// here turns one bad cell into a wedged service.
pub const PANIC_ISOLATED: [&str; 2] = ["crates/serve/src/", "crates/sim/src/"];

/// Where slice-index arithmetic is banned outright: the serve parsers
/// that feed `catch_unwind` cells with untrusted input.
pub const INDEX_ARITH_SCOPE: [&str; 1] = ["crates/serve/src/"];

/// True if `rel` falls under any of the given `/`-separated prefixes
/// (exact file paths match themselves).
pub fn in_scope(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p) || rel == *p)
}

/// How bad a finding is. `Error` findings fail the run; `Warn` findings
/// are reported (and serialized) but do not affect the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Must be fixed before merge.
    Error,
    /// Advisory; surfaced in output and the JSON artifact only.
    /// Reserved for rules being phased in against an unclean tree —
    /// every current rule is `Error`.
    #[allow(dead_code)]
    Warn,
}

impl Severity {
    /// Lower-case label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the repository root, `/`-separated.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Short rule identifier.
    pub rule: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Trimmed offending line, or a description for whole-file findings.
    pub text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.path,
            self.line,
            self.severity.label(),
            self.rule,
            self.text
        )
    }
}

impl Finding {
    /// Serializes the finding as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"path":"{}","line":{},"rule":"{}","severity":"{}","text":"{}"}}"#,
            json_escape(&self.path),
            self.line,
            json_escape(self.rule),
            self.severity.label(),
            json_escape(&self.text)
        )
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One vetted `unwrap`/`expect` site from `tidy.allow`.
#[derive(Debug)]
pub struct AllowEntry {
    /// 1-based line in `tidy.allow` (for stale-entry reports).
    pub line: usize,
    /// Repo-relative `/`-separated path.
    pub path: String,
    /// Trimmed content the offending line must equal.
    pub needle: String,
    /// Set when a lint consumed the entry; unused entries are stale.
    pub used: Cell<bool>,
}

/// Parses `tidy.allow`: `path: trimmed line content`, `#` comments.
pub fn parse_allowlist(src: &str) -> Vec<AllowEntry> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((path, needle)) = line.split_once(": ") {
            out.push(AllowEntry {
                line: i + 1,
                path: path.trim().to_string(),
                needle: needle.trim().to_string(),
                used: Cell::new(false),
            });
        }
    }
    out
}

/// Everything a rule may look at for one file.
pub struct FileCtx<'a> {
    /// Repo-relative `/`-separated path.
    pub rel: &'a str,
    /// Raw source text.
    pub src: &'a str,
    /// Raw source split into lines (1-based access via `line - 1`).
    pub raw_lines: Vec<&'a str>,
    /// The lexed token stream (comments/literal bodies stripped).
    pub tokens: Vec<Token>,
    /// True when the file lives under a `tests/` directory.
    pub in_tests_dir: bool,
    /// Per-token flag: inside a `#[cfg(test)]` / `#[test]` item.
    pub test_flags: Vec<bool>,
    /// The vetted-unwrap allowlist (entries mark themselves used).
    pub allow: &'a [AllowEntry],
}

impl<'a> FileCtx<'a> {
    /// Lexes `src` and precomputes the per-token test-context flags.
    pub fn new(rel: &'a str, src: &'a str, allow: &'a [AllowEntry]) -> Self {
        let tokens = lex(src);
        let test_flags = test_token_flags(&tokens);
        FileCtx {
            rel,
            src,
            raw_lines: src.lines().collect(),
            tokens,
            in_tests_dir: rel.split('/').any(|c| c == "tests"),
            test_flags,
            allow,
        }
    }

    /// True when token `i` sits in test-only code (a `tests/` file or a
    /// `#[cfg(test)]` / `#[test]` item).
    pub fn is_test_token(&self, i: usize) -> bool {
        self.in_tests_dir || self.test_flags.get(i).copied().unwrap_or(false)
    }

    /// The trimmed raw source line a token reports (empty if out of
    /// range, which only happens on pathological input).
    pub fn trimmed_line(&self, line: u32) -> &str {
        self.raw_lines
            .get(line as usize - 1)
            .map_or("", |l| l.trim())
    }

    /// Emits a finding anchored at `line`.
    pub fn push(
        &self,
        out: &mut Vec<Finding>,
        rule: &'static str,
        severity: Severity,
        line: u32,
        text: String,
    ) {
        out.push(Finding {
            path: self.rel.to_string(),
            line: line as usize,
            rule,
            severity,
            text,
        });
    }
}

/// Per-token flags: true when the token is part of a `#[cfg(test)]` or
/// `#[test]` item (the attribute itself, the item header, and the
/// brace-delimited body), tracked by brace depth on the token stream.
fn test_token_flags(tokens: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    let mut depth: i64 = 0;
    // Depths at which a test item's block was entered.
    let mut test_depths: Vec<i64> = Vec::new();
    let mut pending_attr = false;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        // An outer attribute `#[...]`: scan to the matching `]`.
        if t.is_punct('#') && tokens.get(i + 1).is_some_and(|u| u.is_punct('[')) {
            let mut j = i + 2;
            let mut d = 1i64;
            let mut has_test = false;
            let mut has_not = false;
            while j < tokens.len() && d > 0 {
                let u = &tokens[j];
                if u.is_punct('[') {
                    d += 1;
                } else if u.is_punct(']') {
                    d -= 1;
                } else if u.is_ident("test") {
                    has_test = true;
                } else if u.is_ident("not") {
                    has_not = true;
                }
                j += 1;
            }
            if has_test && !has_not {
                pending_attr = true;
            }
            let covered = pending_attr || !test_depths.is_empty();
            for flag in &mut flags[i..j] {
                *flag = covered;
            }
            i = j;
            continue;
        }
        flags[i] = pending_attr || !test_depths.is_empty();
        if t.is_punct('{') {
            depth += 1;
            if pending_attr {
                test_depths.push(depth);
                pending_attr = false;
            }
        } else if t.is_punct('}') {
            if test_depths.last().is_some_and(|d| *d == depth) {
                test_depths.pop();
            }
            depth -= 1;
        } else if t.is_punct(';') && test_depths.is_empty() {
            // `#[test]`-attributed statement without a block (should not
            // happen in practice); don't let the flag leak forever.
            pending_attr = false;
        }
        i += 1;
    }
    flags
}

/// True for files that are a crate root (`src/lib.rs`, `src/main.rs`).
pub fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || rel == "src/main.rs"
        || rel.ends_with("/src/lib.rs")
        || rel.ends_with("/src/main.rs")
}

/// A lint rule: a name, a severity, a negative fixture proving it
/// fires, and the check itself.
pub trait Rule {
    /// Short kebab-case identifier used in findings and JSON output.
    fn name(&self) -> &'static str;

    /// How findings from this rule are classified.
    fn severity(&self) -> Severity {
        Severity::Error
    }

    /// `(fixture file name, virtual repo path)` — the committed
    /// negative fixture this rule must fire on, and the repo-relative
    /// path it is linted under (so scoped rules see an in-scope path).
    fn fixture(&self) -> (&'static str, &'static str);

    /// Appends this rule's findings for one file.
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>);
}

/// The rule registry, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(cycle_cast::CycleCast),
        Box::new(unwrap::Unwrap),
        Box::new(module_doc::ModuleDoc),
        Box::new(markers::Dbg),
        Box::new(markers::Placeholder),
        Box::new(crate_root::CrateRoot),
        Box::new(hash_iter::HashIter),
        Box::new(wall_clock::WallClock),
        Box::new(lock_unwrap::LockUnwrap),
        Box::new(index_arith::IndexArith),
    ]
}

/// Runs every rule over one file.
pub fn check_file(rel: &str, src: &str, allow: &[AllowEntry]) -> Vec<Finding> {
    let ctx = FileCtx::new(rel, src, allow);
    let mut out = Vec::new();
    for rule in all_rules() {
        rule.check(&ctx, &mut out);
    }
    out
}

/// `--self-test`: proves every registered rule fires on its committed
/// negative fixture and stays silent on `clean.rs` linted under the
/// same virtual path. Returns one human-readable line per rule.
pub fn self_test(fixtures_dir: &Path) -> Result<Vec<String>, String> {
    let clean = std::fs::read_to_string(fixtures_dir.join("clean.rs"))
        .map_err(|e| format!("cannot read fixture clean.rs: {e}"))?;
    let mut report = Vec::new();
    for rule in all_rules() {
        let (fixture, vpath) = rule.fixture();
        let src = std::fs::read_to_string(fixtures_dir.join(fixture))
            .map_err(|e| format!("cannot read fixture {fixture}: {e}"))?;
        let ctx = FileCtx::new(vpath, &src, &[]);
        let mut out = Vec::new();
        rule.check(&ctx, &mut out);
        let hits = out.iter().filter(|f| f.rule == rule.name()).count();
        if hits == 0 {
            return Err(format!(
                "rule `{}` did not fire on its fixture {fixture} (as {vpath})",
                rule.name()
            ));
        }
        let cctx = FileCtx::new(vpath, &clean, &[]);
        let mut clean_out = Vec::new();
        rule.check(&cctx, &mut clean_out);
        if let Some(f) = clean_out.first() {
            return Err(format!(
                "rule `{}` fired on clean.rs (as {vpath}): {f}",
                rule.name()
            ));
        }
        report.push(format!(
            "rule `{}`: {hits} finding(s) on {fixture}, silent on clean.rs",
            rule.name()
        ));
    }
    Ok(report)
}
