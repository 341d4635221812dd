//! Rule `wall-clock`: no wall-clock reads where determinism or
//! reproducibility depends on their absence.
//!
//! Two scopes, both path-prefix data in [`super`]:
//!
//! * **Deterministic core** (`DETERMINISTIC_CORE` minus
//!   `WALL_CLOCK_CORE_ALLOW`): any `Instant`, `SystemTime`, or
//!   `std::time` reference is banned. Simulated time is the only clock
//!   these crates may observe; a wall-clock read is either dead code
//!   or a replay-divergence bug. `sim/src/cancel.rs` is the one
//!   allowed file — deadline cancellation is its purpose and its
//!   clock never feeds simulation state.
//! * **Edge layers** (`WALL_CLOCK_EDGE`, no exception): `Instant`
//!   (monotonic latency measurement) is legitimate, but calendar time
//!   (`SystemTime`) is not, so no timestamp can enter an output
//!   artifact.

use super::{FileCtx, Finding, Rule, DETERMINISTIC_CORE, WALL_CLOCK_CORE_ALLOW, WALL_CLOCK_EDGE};

/// See the module docs.
pub struct WallClock;

impl Rule for WallClock {
    fn name(&self) -> &'static str {
        "wall-clock"
    }

    fn fixture(&self) -> (&'static str, &'static str) {
        ("bad_wall_clock.rs", "crates/mc/src/bad.rs")
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        let core = super::in_scope(ctx.rel, &DETERMINISTIC_CORE)
            && !super::in_scope(ctx.rel, &WALL_CLOCK_CORE_ALLOW);
        let edge = super::in_scope(ctx.rel, &WALL_CLOCK_EDGE);
        if !core && !edge {
            return;
        }
        let mut reported_lines = Vec::new();
        let mut report = |line: u32, text: String, out: &mut Vec<Finding>| {
            if !reported_lines.contains(&line) {
                reported_lines.push(line);
                ctx.push(out, self.name(), self.severity(), line, text);
            }
        };
        for (i, t) in ctx.tokens.iter().enumerate() {
            if t.is_ident("SystemTime") {
                let why = if core {
                    "deterministic core must not read the wall clock"
                } else {
                    "edge layers must not read calendar time"
                };
                report(t.line, format!("`SystemTime` use; {why}"), out);
            }
            if core && t.is_ident("Instant") {
                report(
                    t.line,
                    "`Instant` use; deterministic core must not read the wall clock".to_string(),
                    out,
                );
            }
            if core
                && t.is_ident("std")
                && ctx.tokens.get(i + 1).is_some_and(|u| u.is_punct(':'))
                && ctx.tokens.get(i + 2).is_some_and(|u| u.is_punct(':'))
                && ctx.tokens.get(i + 3).is_some_and(|u| u.is_ident("time"))
            {
                report(
                    t.line,
                    "`std::time` use; deterministic core must not read the wall clock".to_string(),
                    out,
                );
            }
        }
    }
}
