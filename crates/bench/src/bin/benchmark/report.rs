//! The result object: what one workload printed, what a whole run
//! writes to `--out` (and `baseline.json` records for HEAD), and the
//! comparisons `diff` and `selfcheck` make between two of them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use stfm_serve::json::{self, Value};

use crate::measure::Outcome;
use crate::names::{self, Better, Class, END_TO_END, PER_LAYER};

/// One workload's result, as parsed back from its JSON line.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Hex digest of the checked outputs, when the line carried one.
    pub digest: Option<String>,
    /// Values by metric name.
    pub metrics: BTreeMap<String, f64>,
}

/// A whole run: every workload's result, in run order.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Workload seed.
    pub seed: u64,
    /// Whether `--quick` shortened the workloads.
    pub quick: bool,
    /// Results by workload name.
    pub workloads: Vec<(String, WorkloadResult)>,
}

/// The one-line JSON object a workload prints last. `names` selects
/// the metrics; a per-layer metric the workload did not observe reads
/// 0. The digest is added only when `with_digest` is set, so the line
/// the driver reads has exactly the four contract keys.
pub fn result_line<'a>(
    out: &Outcome,
    names: impl Iterator<Item = &'a str>,
    with_digest: bool,
) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, ",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    if with_digest {
        let _ = write!(s, "\"digest\": \"{:016x}\", ", out.digest);
    }
    s.push_str("\"metrics\": {");
    for (i, name) in names.enumerate() {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        let unit = names::unit_of(name).unwrap_or("");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn parse_workload(v: &Value) -> Result<WorkloadResult, String> {
    let field = |k: &str| v.get(k).ok_or_else(|| format!("result lacks \"{k}\""));
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
    {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(WorkloadResult {
        correct: matches!(field("correct")?, Value::Bool(true)),
        attempted: field("attempted")?
            .as_u64()
            .ok_or("attempted is not a count")?,
        failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
        digest: v.get("digest").and_then(Value::as_str).map(str::to_string),
        metrics,
    })
}

/// Parses the JSON line a workload printed.
pub fn parse_result_line(line: &str) -> Result<WorkloadResult, String> {
    parse_workload(&json::parse(line)?)
}

impl Report {
    /// Parses a report written by [`Report::to_json`] (unknown keys, such
    /// as the notes `baseline.json` carries, are ignored).
    pub fn parse(src: &str) -> Result<Report, String> {
        let v = json::parse(src)?;
        let mut workloads = Vec::new();
        for (name, w) in v
            .get("workloads")
            .and_then(Value::as_obj)
            .ok_or("report lacks \"workloads\"")?
        {
            workloads.push((name.clone(), parse_workload(w)?));
        }
        Ok(Report {
            seed: v.get("seed").and_then(Value::as_u64).unwrap_or(1),
            quick: matches!(v.get("quick"), Some(Value::Bool(true))),
            workloads,
        })
    }

    /// The report as a JSON document, one metric per line.
    pub fn to_json(&self) -> String {
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        let mut s = format!(
            "{{\n  \"schema\": \"stfm-benchmark-1\",\n  \"seed\": {},\n  \"quick\": {},\n  \"host_threads\": {threads},\n  \"workloads\": {{\n",
            self.seed, self.quick
        );
        for (i, (name, w)) in self.workloads.iter().enumerate() {
            let _ = write!(
                s,
                "    \"{name}\": {{\n      \"correct\": {}, \"attempted\": {}, \"failed\": {},\n",
                w.correct, w.attempted, w.failed
            );
            if let Some(d) = &w.digest {
                let _ = writeln!(s, "      \"digest\": \"{d}\",");
            }
            s.push_str("      \"metrics\": {\n");
            for (j, (metric, value)) in w.metrics.iter().enumerate() {
                let unit = names::unit_of(metric).unwrap_or("");
                let sep = if j + 1 == w.metrics.len() { "" } else { "," };
                let _ = writeln!(
                    s,
                    "        \"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}{sep}"
                );
            }
            let sep = if i + 1 == self.workloads.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(s, "      }}\n    }}{sep}");
        }
        s.push_str("  }\n}\n");
        s
    }

    fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w)
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// it is better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// What comparing two reports found.
pub struct Comparison {
    /// The table, ready to print.
    pub text: String,
    /// End-to-end metrics or simulated outcomes of `b` worse than `a` by
    /// more than their bound, and `fail_share` rises.
    pub regressions: u64,
    /// End-to-end metrics differing by more than their bound in either
    /// direction (what `selfcheck` must not see between two runs of one
    /// build).
    pub beyond_bound: u64,
    /// Exact values that differ.
    pub exact_differences: u64,
}

/// Compares report `b` against base `a`, workload by workload. Every
/// change is given as a share of `a`'s value.
pub fn compare(a: &Report, b: &Report) -> Comparison {
    let mut c = Comparison {
        text: String::new(),
        regressions: 0,
        beyond_bound: 0,
        exact_differences: 0,
    };
    let t = &mut c.text;
    if a.seed != b.seed || a.quick != b.quick {
        let _ = writeln!(
            t,
            "note: seeds or sizes differ (A seed {} quick {}, B seed {} quick {}): exact values are expected to differ",
            a.seed, a.quick, b.seed, b.quick
        );
    }
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workload(name) else {
            let _ = writeln!(t, "== {name}: missing from B");
            c.regressions += 1;
            continue;
        };
        let _ = writeln!(t, "== {name}");
        let share = |w: &WorkloadResult| w.failed as f64 / w.attempted.max(1) as f64;
        if share(wb) > share(wa) {
            c.regressions += 1;
            let _ = writeln!(t, "  fail_share {} -> {}  REGRESSION", share(wa), share(wb));
        }
        let _ = writeln!(t, "  end to end (change as a share of A; bound):");
        for m in &END_TO_END {
            let (Some(&va), Some(&vb)) = (wa.metrics.get(m.name), wb.metrics.get(m.name)) else {
                continue;
            };
            let worse = worse_by(va, vb, m.better);
            let bound = names::bound_between_runs(name, m);
            let verdict = if worse > bound {
                c.regressions += 1;
                "REGRESSION"
            } else if worse < -bound {
                "improvement"
            } else {
                "within noise"
            };
            c.beyond_bound += u64::from(worse.abs() > bound);
            let _ = writeln!(
                t,
                "    {:<22} A {va:>12.4} B {vb:>12.4} {} {:+6.1}% of A ({}% bound)  {verdict}",
                m.name,
                m.unit,
                (vb - va) / va * 100.0,
                bound * 100.0
            );
        }
        let mut host = String::new();
        let mut exact = String::new();
        if let (Some(da), Some(db)) = (&wa.digest, &wb.digest) {
            if da != db {
                c.exact_differences += 1;
                let _ = writeln!(
                    exact,
                    "    {:<34} A {da} B {db}",
                    "digest of the checked outputs"
                );
            }
        }
        for m in &PER_LAYER {
            let (Some(&va), Some(&vb)) = (wa.metrics.get(m.name), wb.metrics.get(m.name)) else {
                continue;
            };
            match m.class {
                Class::Host => {
                    if va != 0.0 || vb != 0.0 {
                        let _ = writeln!(
                            host,
                            "    {:<34} A {va:>14.4} B {vb:>14.4} {}  B/A {:.3}",
                            m.name,
                            m.unit,
                            vb / va
                        );
                    }
                }
                Class::Exact | Class::Outcome(_) if va == vb => {}
                Class::Exact => {
                    c.exact_differences += 1;
                    let _ = writeln!(exact, "    {:<34} A {va} B {vb} {}", m.name, m.unit);
                }
                Class::Outcome(bound) => {
                    c.exact_differences += 1;
                    let worse = worse_by(va, vb, m.better);
                    let verdict = if worse > bound {
                        c.regressions += 1;
                        "REGRESSION"
                    } else {
                        "moved"
                    };
                    let _ = writeln!(
                        exact,
                        "    {:<34} A {va} B {vb} {} {:+.2}% of A ({}% bound)  {verdict}",
                        m.name,
                        m.unit,
                        (vb - va) / va * 100.0,
                        bound * 100.0
                    );
                }
            }
        }
        if !exact.is_empty() {
            let _ = writeln!(t, "  deterministic values that differ:\n{exact}");
        }
        if !host.is_empty() {
            let _ = writeln!(t, "  per-layer host times (not gated):\n{host}");
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(wall: f64, visits: f64, unfairness: f64) -> Report {
        let metrics = [
            ("wall_s", wall),
            ("mc.sched_visits", visits),
            ("stfm_unfairness", unfairness),
            ("mc.tick_s", 1.0),
        ];
        Report {
            seed: 1,
            quick: false,
            workloads: vec![(
                "intensive4".to_string(),
                WorkloadResult {
                    correct: true,
                    attempted: 10,
                    failed: 0,
                    digest: Some("00000000000000aa".to_string()),
                    metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                },
            )],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(3.25, 1234.0, 1.67);
        assert_eq!(Report::parse(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.set("wall_s", 2.5);
        out.op(true, String::new);
        let line = result_line(&out, ["wall_s", "setup_s"].into_iter(), false);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let parsed = parse_result_line(&line).unwrap();
        assert_eq!(parsed.metrics["wall_s"], 2.5);
        assert_eq!(parsed.metrics["setup_s"], 0.0, "unobserved reads 0");
        assert!(parsed.correct && parsed.digest.is_none());
    }

    #[test]
    fn compare_separates_noise_regression_and_exact_moves() {
        let base = report(10.0, 100.0, 1.67);
        let noise = compare(&base, &report(10.5, 100.0, 1.67));
        assert_eq!((noise.regressions, noise.beyond_bound), (0, 0));
        assert!(noise.text.contains("within noise"));

        let slow = compare(&base, &report(13.0, 100.0, 1.67));
        assert_eq!((slow.regressions, slow.beyond_bound), (1, 1));

        let fast = compare(&base, &report(7.0, 100.0, 1.67));
        assert_eq!((fast.regressions, fast.beyond_bound), (0, 1));
        assert!(fast.text.contains("improvement"));

        let moved = compare(&base, &report(10.0, 101.0, 1.68));
        assert_eq!((moved.regressions, moved.exact_differences), (0, 2));
        let mut other_outputs = base.clone();
        other_outputs.workloads[0].1.digest = Some("00000000000000ab".to_string());
        let c = compare(&base, &other_outputs);
        assert_eq!((c.regressions, c.exact_differences), (0, 1));
        assert!(c.text.contains("digest of the checked outputs"));
        let unfair = compare(&base, &report(10.0, 100.0, 1.80));
        assert_eq!(unfair.regressions, 1, "outcome beyond its 2% bound");
    }

    #[test]
    fn a_fail_share_rise_is_a_regression() {
        let base = report(10.0, 100.0, 1.67);
        let mut bad = base.clone();
        bad.workloads[0].1.failed = 1;
        assert_eq!(compare(&base, &bad).regressions, 1);
    }
}
