//! The repository's benchmark: five workloads, end-to-end metrics
//! measured with tracing off, a per-layer ledger and a traced pass —
//! all taken from outside the layers, by timing calls into their public
//! functions. See `README.md` beside this file for the glossary and
//! `BENCHMARK.json` at the repository root for the contract.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S | --reps N]
//!               [--trace 0|1] [--quick] [--out PATH] [--trace-out PATH]
//! benchmark diff A.json B.json
//! benchmark selfcheck [--seed N] [--quick] [--out PATH]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints
//! one JSON object as its last line. Without `--workload`, every
//! workload runs in its own child process (a re-exec of this binary), so
//! peak memory and set-up time are per workload.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cellwl;
mod kernels;
mod measure;
mod names;
mod report;
mod simwl;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use measure::{secs, Outcome};
use names::{END_TO_END, PER_LAYER, WORKLOADS};
use report::{Report, WorkloadResult};

/// HEAD's recorded results; the seed-1 digests are checked against it.
const BASELINE: &str = include_str!("baseline.json");

/// Options of `run` and `selfcheck`.
#[derive(Clone, Default)]
pub struct Opts {
    workload: Option<String>,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Instruction and cell counts divided by ten, one rep.
    pub quick: bool,
    /// `Some(false)`: end-to-end metrics only; `Some(true)`: per-layer
    /// metrics only; `None`: both.
    trace: Option<bool>,
    seconds: Option<f64>,
    reps: Option<usize>,
    out: Option<PathBuf>,
    /// Where the traced pass writes its spans.
    pub trace_out: Option<PathBuf>,
}

impl Opts {
    /// Whether the timed reps feed end-to-end metrics.
    pub fn timed(&self) -> bool {
        self.trace != Some(true)
    }

    /// Whether the per-layer passes run.
    pub fn layers(&self) -> bool {
        self.trace != Some(false)
    }

    /// How many times set-up runs: once, except that a clocked run
    /// (`--seconds`, the driver's form) sets up three times and reports
    /// the median, as the driver's contract asks.
    pub fn setups(&self) -> usize {
        if self.timed() && !self.quick && self.reps.is_none() && self.seconds.is_some() {
            3
        } else {
            1
        }
    }

    /// Runs the timed reps: `--reps` of them, else one when only the
    /// per-layer passes need a rep or under `--quick`, else reps until
    /// `--seconds` have been measured, else the workload's default.
    pub fn rep_loop(&self, default_reps: usize, mut rep: impl FnMut()) {
        let fixed = match (self.reps, self.seconds) {
            (Some(n), _) => Some(n),
            _ if !self.timed() || self.quick => Some(1),
            (None, Some(_)) => None,
            (None, None) => Some(default_reps),
        };
        let start = Instant::now();
        let mut done = 0;
        loop {
            rep();
            done += 1;
            let enough = match fixed {
                Some(n) => done >= n,
                None => self.seconds.is_some_and(|s| secs(start) >= s),
            };
            if enough {
                break;
            }
        }
    }

    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            seed: 1,
            ..Opts::default()
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .map(String::as_str)
            };
            fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
                v.parse().map_err(|_| format!("{flag}: bad value '{v}'"))
            }
            match flag.as_str() {
                "--workload" => o.workload = Some(value()?.to_string()),
                "--seed" => o.seed = num(flag, value()?)?,
                "--seconds" => o.seconds = Some(num(flag, value()?)?),
                "--reps" => o.reps = Some(num::<usize>(flag, value()?)?.max(1)),
                "--trace" => {
                    o.trace = Some(match value()? {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                    });
                }
                "--quick" => o.quick = true,
                "--out" => o.out = Some(PathBuf::from(value()?)),
                "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if let Some(w) = &o.workload {
            if !WORKLOADS.iter().any(|x| x.name == w) {
                return Err(format!("unknown workload '{w}'"));
            }
        }
        Ok(o)
    }

    /// The arguments that reproduce these options in a child process.
    fn child_args(&self, workload: &str) -> Vec<String> {
        let mut a = vec![
            "run".to_string(),
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
        ];
        if let Some(s) = self.seconds {
            a.extend(["--seconds".to_string(), s.to_string()]);
        }
        if let Some(n) = self.reps {
            a.extend(["--reps".to_string(), n.to_string()]);
        }
        if let Some(t) = self.trace {
            a.extend(["--trace".to_string(), u8::from(t).to_string()]);
        }
        if self.quick {
            a.push("--quick".to_string());
        }
        if let Some(p) = &self.trace_out {
            let mut path = p.clone().into_os_string();
            path.push(format!(".{workload}"));
            a.extend([
                "--trace-out".to_string(),
                path.to_string_lossy().into_owned(),
            ]);
        }
        a
    }
}

/// The metric names an invocation emits, in table order.
fn emitted(opts: &Opts) -> impl Iterator<Item = &'static str> {
    let (timed, layers) = (opts.timed(), opts.layers());
    let e2e = END_TO_END.iter().map(|m| m.name).filter(move |_| timed);
    let layer = PER_LAYER.iter().map(|m| m.name).filter(move |_| layers);
    e2e.chain(layer)
}

/// The seed-1 full-size digest `baseline.json` records for `workload`.
fn recorded_digest(workload: &str) -> Option<String> {
    let baseline = Report::parse(BASELINE).ok()?;
    let (_, result) = baseline
        .workloads
        .into_iter()
        .find(|(n, _)| n == workload)?;
    result.digest
}

/// Measures one workload in this process and prints its result.
fn run_one(workload: &str, opts: &Opts) -> ExitCode {
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == workload) else {
        eprintln!("error: unknown workload '{workload}'");
        return ExitCode::from(2);
    };
    let mut out = Outcome::default();
    match simwl::plan(workload, opts.quick) {
        Some(plan) => simwl::run(&plan, opts, spec.reps, &mut out),
        None => cellwl::run(workload, opts, spec.reps, &mut out),
    }
    if opts.layers() && workload == names::KERNELS_RUN_IN {
        kernels::run(&mut out, if opts.quick { 10 } else { 1 });
    }
    // Seed-1 outputs at full size are on record: a different digest means
    // the simulated results changed, and no digest on record is a failure
    // too.
    let digest = format!("{:016x}", out.digest);
    if opts.seed == 1 && !opts.quick {
        let recorded = recorded_digest(workload);
        out.op(recorded.as_deref() == Some(digest.as_str()), || {
            format!("{workload} digest {digest} differs from the recorded {recorded:?}")
        });
    }
    for m in END_TO_END.iter().filter(|_| opts.timed()) {
        out.op(out.metrics.get(m.name).is_some_and(|&v| v != 0.0), || {
            format!("end-to-end metric {} was not measured", m.name)
        });
    }
    if opts.layers() {
        out.set("fail_share", out.fail_share());
    }

    println!("{workload}: {}", spec.why);
    println!("{workload}: seed {}, digest {digest}", opts.seed);
    for name in emitted(opts) {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        println!(
            "  {name:<36} {value:>18.6} {}",
            names::unit_of(name).unwrap_or("")
        );
    }
    println!(
        "{}",
        report::result_line(&out, emitted(opts), opts.trace.is_none())
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process, and assembles the
/// report. A child that fails or prints no result becomes a failed
/// workload.
fn run_all(opts: &Opts) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut report = Report {
        seed: opts.seed,
        quick: opts.quick,
        workloads: Vec::new(),
    };
    for w in &WORKLOADS {
        let start = Instant::now();
        let child = Command::new(&exe)
            .args(opts.child_args(w.name))
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        let result = report::parse_result_line(last).unwrap_or_else(|e| {
            eprintln!("FAILED: {} printed no result ({e})", w.name);
            WorkloadResult {
                correct: false,
                attempted: 1,
                failed: 1,
                digest: None,
                metrics: Default::default(),
            }
        });
        println!(
            "{}: whole invocation {:.1} s, child exit {}\n",
            w.name,
            secs(start),
            child.status
        );
        report.workloads.push((w.name.to_string(), result));
    }
    Ok(report)
}

fn failed_workloads(r: &Report) -> u64 {
    r.workloads
        .iter()
        .filter(|(_, w)| !w.correct || w.failed > 0)
        .count() as u64
}

fn write_out(path: &Option<PathBuf>, body: &str) -> bool {
    match path {
        Some(p) => match std::fs::write(p, body) {
            Ok(()) => {
                println!("wrote {}", p.display());
                true
            }
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", p.display());
                false
            }
        },
        None => true,
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args)?;
    if let Some(w) = &opts.workload {
        return Ok(run_one(w, &opts));
    }
    let start = Instant::now();
    let report = run_all(&opts)?;
    let failed = failed_workloads(&report);
    println!(
        "benchmark: {} workloads in {:.1} s, {failed} with failures",
        report.workloads.len(),
        secs(start)
    );
    let written = write_out(&opts.out, &report.to_json());
    Ok(if failed == 0 && written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("diff takes two report files".to_string());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|s| Report::parse(&s).map_err(|e| format!("{p}: {e}")))
    };
    let c = report::compare(&read(a)?, &read(b)?);
    print!("{}", c.text);
    println!(
        "diff: {} regression(s), {} deterministic value(s) differ",
        c.regressions, c.exact_differences
    );
    Ok(if c.regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the whole benchmark twice on this build: every end-to-end
/// metric must agree within its bound and every deterministic value
/// exactly.
fn cmd_selfcheck(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args)?;
    if opts.workload.is_some() || opts.trace.is_some() {
        return Err("selfcheck runs every workload, both passes".to_string());
    }
    let first = run_all(&opts)?;
    let second = run_all(&opts)?;
    let c = report::compare(&first, &second);
    print!("{}", c.text);
    let failed = failed_workloads(&first) + failed_workloads(&second);
    println!(
        "selfcheck: {} end-to-end metric(s) beyond their bound, {} deterministic value(s) differ, {failed} workload run(s) with failures",
        c.beyond_bound, c.exact_differences
    );
    let body = format!(
        "{{\"first\": {}, \"second\": {}}}\n",
        first.to_json(),
        second.to_json()
    );
    let written = write_out(&opts.out, &body);
    Ok(
        if c.beyond_bound + c.exact_differences + failed == 0 && written {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        },
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "diff" => cmd_diff(rest),
        Some((cmd, rest)) if cmd == "selfcheck" => cmd_selfcheck(rest),
        // `cargo bench --workspace` passes --bench to every binary.
        Some((flag, _)) if flag == "--bench" => return ExitCode::SUCCESS,
        _ => Err("usage: benchmark run|diff|selfcheck ... (see README.md)".to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use stfm_serve::json::{self, Value};

    const CONTRACT: &str = include_str!("../../../../../BENCHMARK.json");

    fn declared(section: &str) -> Vec<(String, Value)> {
        let v = json::parse(CONTRACT).unwrap();
        v.get(section)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.clone(),
                )
            })
            .collect()
    }

    fn token(b: names::Better) -> &'static str {
        match b {
            names::Better::Lower => "lower",
            names::Better::Higher => "higher",
        }
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &all {
            assert!(well_formed(name), "bad name {name}");
        }
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(CONTRACT.len() <= 64 * 1024);
    }

    #[test]
    fn emitted_names_equal_the_contract() {
        let timed = Opts {
            trace: Some(false),
            ..Opts::default()
        };
        let e2e = declared("end_to_end");
        assert_eq!(
            emitted(&timed).collect::<Vec<_>>(),
            e2e.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        );
        for ((_, v), m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(v.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(v.get("better").unwrap().as_str(), Some(token(m.better)));
            assert_eq!(v.get("bound").unwrap().as_f64(), Some(m.bound));
        }
        let traced = Opts {
            trace: Some(true),
            ..Opts::default()
        };
        let layers = declared("per_layer");
        assert_eq!(
            emitted(&traced).collect::<Vec<_>>(),
            layers.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        );
        for ((_, v), m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(v.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(v.get("better").unwrap().as_str(), Some(token(m.better)));
        }
        let workloads = declared("workloads");
        for ((n, v), w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(n, w.name);
            assert_eq!(v.get("why").unwrap().as_str(), Some(w.why));
        }
        assert_eq!(workloads.len(), WORKLOADS.len());
        assert_eq!(emitted(&Opts::default()).count(), e2e.len() + layers.len());
    }

    #[test]
    fn the_compiled_in_baseline_has_every_digest() {
        let baseline = Report::parse(BASELINE).unwrap();
        assert!(baseline.seed == 1 && !baseline.quick);
        for w in &WORKLOADS {
            let digest = recorded_digest(w.name).unwrap_or_default();
            assert!(
                digest.len() == 16 && digest.chars().all(|c| c.is_ascii_hexdigit()),
                "{}: no seed-1 digest on record",
                w.name
            );
        }
        assert_eq!(recorded_digest("nope"), None);
    }

    #[test]
    fn runs_of_one_seed_are_held_closer_than_the_contract_asks() {
        let metric = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap();
        for w in &WORKLOADS {
            assert!(w.same_seed_bound > 0.0 && w.same_seed_bound <= 0.25);
            for m in &END_TO_END {
                assert!(names::bound_between_runs(w.name, m) <= m.bound);
            }
        }
        let wall = metric("wall_s");
        assert_eq!(names::bound_between_runs("serve_cells", wall), 0.15);
        assert_eq!(names::bound_between_runs("nope", wall), wall.bound);
        let setup = metric("setup_s");
        assert_eq!(names::bound_between_runs("serve_cells", setup), setup.bound);
        let rss = metric("peak_rss_mb");
        assert_eq!(names::bound_between_runs("sweep_cold", rss), 0.15);
    }

    #[test]
    fn per_scheduler_names_resolve() {
        for i in 0..names::SCHEDS.len() {
            for prefix in [
                "sim.wall_s",
                "sim.unfairness",
                "sim.wspeedup",
                "mc.tick64_ns",
            ] {
                assert!(names::per_sched(prefix, i).starts_with(prefix));
            }
        }
    }

    #[test]
    fn options_parse_and_reproduce() {
        let args: Vec<String> = "--workload chase4 --seed 7 --seconds 2.5 --trace 1 --quick"
            .split(' ')
            .map(str::to_string)
            .collect();
        let o = Opts::parse(&args).unwrap();
        assert_eq!((o.seed, o.quick, o.trace), (7, true, Some(true)));
        assert!(!o.timed() && o.layers());
        assert_eq!(o.child_args("chase4")[1..], args[..]);
        assert!(Opts::parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(Opts::parse(&["--trace".into(), "2".into()]).is_err());
    }

    #[test]
    fn rep_loop_counts() {
        let count = |o: &Opts| {
            let mut n = 0;
            o.rep_loop(5, || n += 1);
            n
        };
        let mut o = Opts::default();
        assert_eq!((count(&o), o.setups()), (5, 1));
        o.seconds = Some(0.0);
        assert_eq!(count(&o), 1, "at least one rep, then the clock decides");
        assert_eq!(o.setups(), 3, "a clocked run reports a median set-up");
        o.reps = Some(3);
        assert_eq!((count(&o), o.setups()), (3, 1));
        o.reps = None;
        o.trace = Some(true);
        assert_eq!(count(&o), 1);
    }
}
