//! Result lines: the service's one-JSON-object-per-cell output format.
//!
//! A result line is *deterministic*: it is a pure function of the cell and
//! the simulation outcome, with no timestamps, host names, or cache
//! provenance. That is what makes the service-scale determinism guarantee
//! checkable (`stfm serve`, [`crate::run_sweep`] and the single-cell runner
//! must produce byte-identical result streams) and what lets the persistent
//! cache replay a stored line verbatim.
//!
//! Each per-thread entry carries the full shared/alone [`CoreStats`]
//! pairs as integer arrays, so a parsed line reconstructs
//! [`WorkloadMetrics`] exactly — derived floats (slowdowns, unfairness)
//! are recomputed by the same code paths and therefore match bit for bit.

use std::fmt::Write as _;

use stfm_cpu::CoreStats;
use stfm_sim::{ThreadMetrics, WorkloadMetrics};

use crate::json::{self, escape, Value};
use crate::spec::{Cell, SchedSpec};

/// Formats an `f64` as a JSON token (`null` for non-finite values, which
/// only degenerate hand-built metrics can produce).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn stats_array(s: &CoreStats) -> String {
    let counters: Vec<String> = s.counters().iter().map(u64::to_string).collect();
    format!("[{}]", counters.join(","))
}

fn parse_stats(v: &Value, what: &str) -> Result<CoreStats, String> {
    let arr = v
        .as_arr()
        .filter(|a| a.len() == 10)
        .ok_or_else(|| format!("{what} must be a 10-element integer array"))?;
    let counters: Option<Vec<u64>> = arr.iter().map(Value::as_u64).collect();
    let counters = counters.and_then(|c| c.try_into().ok());
    counters
        .map(CoreStats::from_counters)
        .ok_or_else(|| format!("{what} holds a non-integer"))
}

/// Renders the canonical result line for one completed cell.
pub fn result_line(cell: &Cell, metrics: &WorkloadMetrics) -> String {
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"type\":\"result\",\"key\":\"{}\",\"scheduler\":\"{}\",\"mix\":[",
        cell.key(),
        cell.scheduler.token()
    );
    for (i, name) in cell.mix.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", escape(name));
    }
    let _ = write!(s, "],\"insts\":{},\"seed\":{}", cell.insts, cell.seed);
    let _ = write!(
        s,
        ",\"alpha\":{}",
        cell.alpha.map_or_else(|| "null".to_string(), json_f64)
    );
    let opt = |v: Option<u32>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
    let _ = write!(
        s,
        ",\"banks\":{},\"row_kb\":{}",
        opt(cell.banks),
        opt(cell.row_kb)
    );
    let _ = write!(
        s,
        ",\"unfairness\":{},\"weighted_speedup\":{},\"sum_ipc\":{},\"hmean_speedup\":{}",
        json_f64(metrics.unfairness()),
        json_f64(metrics.weighted_speedup()),
        json_f64(metrics.sum_of_ipcs()),
        json_f64(metrics.hmean_speedup()),
    );
    s.push_str(",\"threads\":[");
    for (i, t) in metrics.threads.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"mem_slowdown\":{},\"shared\":{},\"alone\":{}}}",
            escape(&t.name),
            json_f64(t.mem_slowdown()),
            stats_array(&t.shared),
            stats_array(&t.alone),
        );
    }
    s.push_str("]}");
    s
}

/// A result line parsed back into structured form.
#[derive(Debug, Clone)]
pub struct ParsedResult {
    /// The cell's content-address.
    pub key: String,
    /// The reconstructed metrics (exact: counters round-trip as integers).
    pub metrics: WorkloadMetrics,
}

/// Parses a result line (the inverse of [`result_line`]).
///
/// # Errors
///
/// Anything that is not a well-formed `"type": "result"` line.
pub fn parse_result_line(line: &str) -> Result<ParsedResult, String> {
    let v = json::parse(line)?;
    if v.get("type").and_then(Value::as_str) != Some("result") {
        return Err("not a result line".into());
    }
    let key = v
        .get("key")
        .and_then(Value::as_str)
        .ok_or("result line missing 'key'")?
        .to_string();
    let token = v
        .get("scheduler")
        .and_then(Value::as_str)
        .ok_or("result line missing 'scheduler'")?;
    let scheduler = SchedSpec::parse(token)?.kind().name().to_string();
    let threads = v
        .get("threads")
        .and_then(Value::as_arr)
        .ok_or("result line missing 'threads'")?
        .iter()
        .map(|t| {
            Ok(ThreadMetrics {
                name: t
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("thread entry missing 'name'")?
                    .to_string(),
                shared: parse_stats(
                    t.get("shared").ok_or("thread entry missing 'shared'")?,
                    "shared",
                )?,
                alone: parse_stats(
                    t.get("alone").ok_or("thread entry missing 'alone'")?,
                    "alone",
                )?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ParsedResult {
        key,
        metrics: WorkloadMetrics { scheduler, threads },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SchedSpec;

    fn sample() -> (Cell, WorkloadMetrics) {
        let cell = Cell::new(SchedSpec::Stfm, vec!["mcf".into(), "libquantum".into()])
            .insts(2_000)
            .seed(3);
        let metrics = cell.to_experiment().unwrap().run();
        (cell, metrics)
    }

    #[test]
    fn line_round_trips_exactly() {
        let (cell, metrics) = sample();
        let line = result_line(&cell, &metrics);
        let parsed = parse_result_line(&line).unwrap();
        assert_eq!(parsed.key, cell.key());
        assert_eq!(parsed.metrics.scheduler, metrics.scheduler);
        assert_eq!(parsed.metrics.unfairness(), metrics.unfairness());
        assert_eq!(
            parsed.metrics.weighted_speedup(),
            metrics.weighted_speedup()
        );
        for (a, b) in parsed.metrics.threads.iter().zip(&metrics.threads) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.shared, b.shared);
            assert_eq!(a.alone, b.alone);
        }
        // Re-serializing the parsed form regenerates the identical line.
        assert_eq!(result_line(&cell, &parsed.metrics), line);
    }

    #[test]
    fn line_is_valid_json_with_expected_fields() {
        let (cell, metrics) = sample();
        let v = json::parse(&result_line(&cell, &metrics)).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("result"));
        assert_eq!(v.get("insts").and_then(Value::as_u64), Some(2_000));
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("alpha"), Some(&Value::Null));
        assert!(v.get("unfairness").and_then(Value::as_f64).is_some());
        assert_eq!(
            v.get("threads").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn rejects_non_result_lines() {
        assert!(parse_result_line("{}").is_err());
        assert!(parse_result_line(r#"{"type":"error"}"#).is_err());
        assert!(parse_result_line("garbage").is_err());
        assert!(parse_result_line(r#"{"type":"result","key":"x"}"#).is_err());
    }
}
