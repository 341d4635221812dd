//! Experiment specs as data: spec lines, grid expansion, cell keys.
//!
//! A *spec line* is one JSON object describing one experiment — or, when
//! any field carries an array, a whole grid of them. A *cell* is one
//! fully-resolved experiment: one scheduler, one mix, one instruction
//! budget, one seed, one set of DRAM knobs. Expansion is deterministic
//! (mix-major, then scheduler, alpha, insts, seed, banks, row-kb), so the
//! cell stream of a spec is stable across hosts and runs.
//!
//! ```text
//! {"mix": ["mcf", "libquantum"], "scheduler": "all", "insts": 50000, "seed": [1, 2, 3]}
//! {"mix": "case_study_intensive", "scheduler": "stfm", "alpha": [1.0, 1.1, 5.0]}
//! ```
//!
//! Every cell canonicalizes to a one-line string whose FNV digest is the
//! cell's *key* — the content address under which the persistent result
//! cache files its outcome.

use stfm_dram::DramConfig;
use stfm_sim::{digest, Experiment, SchedulerKind, DEFAULT_INSTRUCTIONS};
use stfm_workloads::{desktop, mix, spec as bench_spec, Profile};

use crate::json::{self, Value};

/// Ceiling on cells from a single spec line, so a typo'd grid cannot wedge
/// the service.
pub const MAX_CELLS_PER_LINE: usize = 65_536;

/// Ceiling on threads per mix (the DRAM configuration scales to 16 cores;
/// beyond 64 is certainly a spec mistake).
pub const MAX_THREADS_PER_MIX: usize = 64;

/// The spec-level scheduler names (lower-case tokens, one per evaluated
/// policy; `"all"` in a spec expands to the paper's five-way set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedSpec {
    /// `"frfcfs"` — baseline FR-FCFS.
    FrFcfs,
    /// `"fcfs"` — plain first-come-first-serve.
    Fcfs,
    /// `"cap"` — FR-FCFS with the column-over-row cap (4).
    Cap,
    /// `"nfq"` — network fair queueing.
    Nfq,
    /// `"stfm"` — stall-time fair memory scheduling.
    Stfm,
    /// `"parbs"` — PAR-BS (extension).
    ParBs,
}

impl SchedSpec {
    /// The paper's five-way comparison set, in presentation order.
    pub fn all() -> [SchedSpec; 5] {
        [
            SchedSpec::FrFcfs,
            SchedSpec::Fcfs,
            SchedSpec::Cap,
            SchedSpec::Nfq,
            SchedSpec::Stfm,
        ]
    }

    /// The canonical spec token.
    pub fn token(&self) -> &'static str {
        match self {
            SchedSpec::FrFcfs => "frfcfs",
            SchedSpec::Fcfs => "fcfs",
            SchedSpec::Cap => "cap",
            SchedSpec::Nfq => "nfq",
            SchedSpec::Stfm => "stfm",
            SchedSpec::ParBs => "parbs",
        }
    }

    /// Parses one spec token (not `"all"`, which is an axis, not a value).
    pub fn parse(s: &str) -> Result<SchedSpec, String> {
        Ok(match s {
            "frfcfs" | "fr-fcfs" => SchedSpec::FrFcfs,
            "fcfs" => SchedSpec::Fcfs,
            "cap" | "frfcfs+cap" => SchedSpec::Cap,
            "nfq" => SchedSpec::Nfq,
            "stfm" => SchedSpec::Stfm,
            "parbs" | "par-bs" => SchedSpec::ParBs,
            other => {
                return Err(format!(
                    "unknown scheduler '{other}' (expected frfcfs, fcfs, cap, nfq, stfm, parbs, or all)"
                ))
            }
        })
    }

    /// The simulator-side scheduler this token selects.
    pub fn kind(&self) -> SchedulerKind {
        match self {
            SchedSpec::FrFcfs => SchedulerKind::FrFcfs,
            SchedSpec::Fcfs => SchedulerKind::Fcfs,
            SchedSpec::Cap => SchedulerKind::FrFcfsCap { cap: 4 },
            SchedSpec::Nfq => SchedulerKind::Nfq,
            SchedSpec::Stfm => SchedulerKind::Stfm,
            SchedSpec::ParBs => SchedulerKind::ParBs,
        }
    }

    /// The spec token for a [`SchedulerKind`] (used when porting
    /// `Experiment`-shaped harness code onto the data-driven runner).
    pub fn from_kind(kind: SchedulerKind) -> SchedSpec {
        match kind {
            SchedulerKind::FrFcfs => SchedSpec::FrFcfs,
            SchedulerKind::Fcfs => SchedSpec::Fcfs,
            SchedulerKind::FrFcfsCap { .. } => SchedSpec::Cap,
            SchedulerKind::Nfq => SchedSpec::Nfq,
            SchedulerKind::Stfm | SchedulerKind::StfmWith(_) => SchedSpec::Stfm,
            SchedulerKind::ParBs => SchedSpec::ParBs,
        }
    }
}

/// One fully-resolved experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Scheduler under test.
    pub scheduler: SchedSpec,
    /// Benchmark names, in core order.
    pub mix: Vec<String>,
    /// Per-thread instruction budget.
    pub insts: u64,
    /// Workload seed.
    pub seed: u64,
    /// STFM α override (normalized away on non-STFM cells).
    pub alpha: Option<f64>,
    /// DRAM banks-per-channel override.
    pub banks: Option<u32>,
    /// DRAM per-chip row-buffer size override, in KB.
    pub row_kb: Option<u32>,
}

impl Cell {
    /// A cell with defaults for everything but scheduler and mix.
    pub fn new(scheduler: SchedSpec, mix: Vec<String>) -> Cell {
        Cell {
            scheduler,
            mix,
            insts: DEFAULT_INSTRUCTIONS,
            seed: 1,
            alpha: None,
            banks: None,
            row_kb: None,
        }
    }

    /// Sets the instruction budget (builder style, for harness code).
    pub fn insts(mut self, insts: u64) -> Cell {
        self.insts = insts;
        self
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Cell {
        self.seed = seed;
        self
    }

    /// Sets STFM's α (builder style; dropped on non-STFM cells).
    pub fn alpha(mut self, alpha: f64) -> Cell {
        self.alpha = (self.scheduler == SchedSpec::Stfm).then_some(alpha);
        self
    }

    /// The canonical one-line rendering that content-addresses this cell.
    /// Two cells get the same key exactly when they describe the same
    /// simulation.
    pub fn canonical(&self) -> String {
        let opt_u32 = |v: Option<u32>| v.map_or_else(|| "-".to_string(), |x| x.to_string());
        format!(
            "cell-v1|sched={}|alpha={}|mix={}|insts={}|seed={}|banks={}|rowkb={}",
            self.scheduler.token(),
            self.alpha
                .map_or_else(|| "-".to_string(), |a| a.to_string()),
            self.mix.join("+"),
            self.insts,
            self.seed,
            opt_u32(self.banks),
            opt_u32(self.row_kb),
        )
    }

    /// The cell's content-address: 16 hex digits of FNV-1a over
    /// [`Cell::canonical`].
    pub fn key(&self) -> String {
        digest::hex_digest(&self.canonical())
    }

    /// Builds the runnable [`Experiment`] this cell describes.
    ///
    /// # Errors
    ///
    /// Unknown benchmark names (cells built by hand; spec expansion
    /// validates earlier, with line numbers).
    pub fn to_experiment(&self) -> Result<Experiment, String> {
        let profiles: Vec<Profile> = self
            .mix
            .iter()
            .map(|n| lookup_benchmark(n))
            .collect::<Result<_, _>>()?;
        let mut e = Experiment::new(profiles)
            .scheduler(self.scheduler.kind())
            .instructions_per_thread(self.insts)
            .seed(self.seed);
        if self.banks.is_some() || self.row_kb.is_some() {
            let mut dram = DramConfig::for_cores(self.mix.len() as u32);
            if let Some(b) = self.banks {
                dram = dram.with_banks(b);
            }
            if let Some(kb) = self.row_kb {
                dram = dram.with_row_buffer_bytes_per_chip(kb * 1024);
            }
            e = e.dram_config(dram);
        }
        if let Some(a) = self.alpha {
            e = e.alpha(a);
        }
        Ok(e)
    }
}

/// Resolves a benchmark name against the SPEC and desktop suites.
pub fn lookup_benchmark(name: &str) -> Result<Profile, String> {
    bench_spec::by_name(name)
        .or_else(|| desktop::workload().into_iter().find(|p| p.name == name))
        .ok_or_else(|| format!("unknown benchmark '{name}' (see `stfm list`)"))
}

/// Resolves a named multiprogrammed mix from the paper's evaluation.
fn lookup_named_mix(name: &str) -> Option<Vec<Profile>> {
    Some(match name {
        "case_study_intensive" => mix::case_study_intensive(),
        "case_study_mixed" => mix::case_study_mixed(),
        "case_study_non_intensive" => mix::case_study_non_intensive(),
        "fig1_four_core" => mix::fig1_four_core(),
        "fig1_eight_core" => mix::fig1_eight_core(),
        _ => return None,
    })
}

/// Parses and expands one spec line into its cells.
///
/// # Errors
///
/// Malformed JSON, unknown fields, unknown scheduler/benchmark/mix names,
/// invalid values, or a grid larger than [`MAX_CELLS_PER_LINE`].
pub fn expand_line(src: &str) -> Result<Vec<Cell>, String> {
    expand_value(&json::parse(src)?)
}

/// Spec fields a line may carry.
const SPEC_FIELDS: &[&str] = &[
    "scheduler",
    "mix",
    "mixes",
    "insts",
    "seed",
    "alpha",
    "banks",
    "row_kb",
];

/// [`expand_line`] over an already-parsed value.
pub fn expand_value(v: &Value) -> Result<Vec<Cell>, String> {
    let pairs = v
        .as_obj()
        .ok_or_else(|| format!("spec line must be a JSON object, got {}", v.kind()))?;
    for (i, (k, _)) in pairs.iter().enumerate() {
        if !SPEC_FIELDS.contains(&k.as_str()) {
            return Err(format!(
                "unknown spec field '{k}' (expected one of {})",
                SPEC_FIELDS.join(", ")
            ));
        }
        if pairs.iter().take(i).any(|(prev, _)| prev == k) {
            return Err(format!("duplicate spec field '{k}'"));
        }
    }

    let mixes = parse_mix_axis(v)?;
    let schedulers = parse_scheduler_axis(v.get("scheduler"))?;
    let insts_axis = parse_u64_axis(v.get("insts"), DEFAULT_INSTRUCTIONS, "insts")?;
    if insts_axis.contains(&0) {
        return Err("insts must be >= 1".into());
    }
    let seed_axis = parse_u64_axis(v.get("seed"), 1, "seed")?;
    let alpha_axis: Vec<Option<f64>> = match v.get("alpha") {
        None => vec![None],
        Some(x) => parse_f64_axis(x, "alpha")?.into_iter().map(Some).collect(),
    };
    if alpha_axis
        .iter()
        .flatten()
        .any(|&a| !a.is_finite() || a < 1.0)
    {
        return Err("alpha must be a finite number >= 1".into());
    }
    let banks_axis = parse_opt_u32_axis(v.get("banks"), "banks")?;
    if banks_axis.iter().flatten().any(|b| !b.is_power_of_two()) {
        return Err("banks must be a power of two".into());
    }
    let row_kb_axis = parse_opt_u32_axis(v.get("row_kb"), "row_kb")?;
    if row_kb_axis.iter().flatten().any(|kb| !kb.is_power_of_two()) {
        return Err("row_kb must be a power of two".into());
    }

    let total = mixes.len()
        * schedulers.len()
        * alpha_axis.len()
        * insts_axis.len()
        * seed_axis.len()
        * banks_axis.len()
        * row_kb_axis.len();
    if total > MAX_CELLS_PER_LINE {
        return Err(format!(
            "spec line expands to {total} cells (limit {MAX_CELLS_PER_LINE})"
        ));
    }

    let mut cells = Vec::with_capacity(total);
    for mix_names in &mixes {
        for sched in &schedulers {
            for alpha in &alpha_axis {
                for &insts in &insts_axis {
                    for &seed in &seed_axis {
                        for &banks in &banks_axis {
                            for &row_kb in &row_kb_axis {
                                cells.push(Cell {
                                    scheduler: *sched,
                                    mix: mix_names.clone(),
                                    insts,
                                    seed,
                                    // α only exists for STFM; normalizing it
                                    // away elsewhere keeps cache keys shared.
                                    alpha: if *sched == SchedSpec::Stfm {
                                        *alpha
                                    } else {
                                        None
                                    },
                                    banks,
                                    row_kb,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(cells)
}

/// One mix value: an array of benchmark names, or a string naming either a
/// predefined mix or a single benchmark.
fn parse_one_mix(v: &Value) -> Result<Vec<String>, String> {
    let names: Vec<String> = match v {
        Value::Str(s) => {
            if let Some(profiles) = lookup_named_mix(s) {
                return Ok(profiles.iter().map(|p| p.name.to_string()).collect());
            }
            vec![s.clone()]
        }
        Value::Arr(items) => items
            .iter()
            .map(|x| {
                x.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("mix entries must be benchmark names, got {}", x.kind()))
            })
            .collect::<Result<_, _>>()?,
        other => {
            return Err(format!(
                "mix must be an array of benchmark names or a mix name, got {}",
                other.kind()
            ))
        }
    };
    if names.is_empty() {
        return Err("mix must name at least one benchmark".into());
    }
    if names.len() > MAX_THREADS_PER_MIX {
        return Err(format!(
            "mix has {} threads (limit {MAX_THREADS_PER_MIX})",
            names.len()
        ));
    }
    for n in &names {
        lookup_benchmark(n)?;
    }
    Ok(names)
}

/// The mix axis: `"mix"` (one mix) or `"mixes"` (an array of them).
fn parse_mix_axis(v: &Value) -> Result<Vec<Vec<String>>, String> {
    match (v.get("mix"), v.get("mixes")) {
        (Some(_), Some(_)) => Err("give either 'mix' or 'mixes', not both".into()),
        (Some(one), None) => Ok(vec![parse_one_mix(one)?]),
        (None, Some(Value::Arr(items))) if !items.is_empty() => {
            items.iter().map(parse_one_mix).collect()
        }
        (None, Some(_)) => Err("'mixes' must be a non-empty array of mixes".into()),
        (None, None) => Err("missing required field 'mix' (or 'mixes')".into()),
    }
}

/// The scheduler axis: a token, `"all"`, or an array of tokens.
fn parse_scheduler_axis(v: Option<&Value>) -> Result<Vec<SchedSpec>, String> {
    match v {
        None => Ok(SchedSpec::all().to_vec()),
        Some(Value::Str(s)) if s == "all" => Ok(SchedSpec::all().to_vec()),
        Some(Value::Str(s)) => Ok(vec![SchedSpec::parse(s)?]),
        Some(Value::Arr(items)) if !items.is_empty() => items
            .iter()
            .map(|x| match x {
                Value::Str(s) if s != "all" => SchedSpec::parse(s),
                _ => Err("scheduler arrays must hold scheduler names".into()),
            })
            .collect(),
        Some(other) => Err(format!(
            "scheduler must be a name, \"all\", or an array of names, got {}",
            other.kind()
        )),
    }
}

/// A `u64` axis: absent (default), one number, or a non-empty array.
fn parse_u64_axis(v: Option<&Value>, default: u64, field: &str) -> Result<Vec<u64>, String> {
    match v {
        None => Ok(vec![default]),
        Some(Value::Num(_)) => Ok(vec![require_u64(v, field)?]),
        Some(Value::Arr(items)) if !items.is_empty() => {
            items.iter().map(|x| require_u64(Some(x), field)).collect()
        }
        Some(other) => Err(format!(
            "{field} must be an unsigned integer or array of them, got {}",
            other.kind()
        )),
    }
}

fn require_u64(v: Option<&Value>, field: &str) -> Result<u64, String> {
    v.and_then(Value::as_u64)
        .ok_or_else(|| format!("{field} must be an unsigned integer"))
}

/// An `f64` axis: one number or a non-empty array.
fn parse_f64_axis(v: &Value, field: &str) -> Result<Vec<f64>, String> {
    let nums: Option<Vec<f64>> = match v {
        Value::Num(_) => v.as_f64().map(|x| vec![x]),
        Value::Arr(items) if !items.is_empty() => items.iter().map(Value::as_f64).collect(),
        _ => None,
    };
    nums.ok_or_else(|| format!("{field} must be a number or non-empty array of numbers"))
}

/// An optional `u32` axis (DRAM knobs): absent means "leave the default".
fn parse_opt_u32_axis(v: Option<&Value>, field: &str) -> Result<Vec<Option<u32>>, String> {
    match v {
        None => Ok(vec![None]),
        Some(_) => parse_u64_axis(v, 0, field)?
            .into_iter()
            .map(|n| {
                u32::try_from(n)
                    .map(Some)
                    .map_err(|_| format!("{field} value {n} out of range"))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_line() {
        let cells =
            expand_line(r#"{"mix": ["mcf", "libquantum"], "scheduler": "stfm", "insts": 5000}"#)
                .unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].scheduler, SchedSpec::Stfm);
        assert_eq!(cells[0].mix, ["mcf", "libquantum"]);
        assert_eq!(cells[0].insts, 5000);
        assert_eq!(cells[0].seed, 1);
    }

    #[test]
    fn grid_expansion_order_is_deterministic() {
        let cells = expand_line(
            r#"{"mix": ["mcf"], "scheduler": ["frfcfs", "stfm"], "seed": [1, 2], "insts": 1000}"#,
        )
        .unwrap();
        assert_eq!(cells.len(), 4);
        let order: Vec<(SchedSpec, u64)> = cells.iter().map(|c| (c.scheduler, c.seed)).collect();
        assert_eq!(
            order,
            [
                (SchedSpec::FrFcfs, 1),
                (SchedSpec::FrFcfs, 2),
                (SchedSpec::Stfm, 1),
                (SchedSpec::Stfm, 2),
            ]
        );
    }

    #[test]
    fn all_expands_to_the_paper_set() {
        let cells = expand_line(r#"{"mix": ["mcf"]}"#).unwrap();
        assert_eq!(cells.len(), 5);
        assert_eq!(cells[0].scheduler, SchedSpec::FrFcfs);
        assert_eq!(cells[4].scheduler, SchedSpec::Stfm);
    }

    #[test]
    fn named_mix_resolves_to_benchmark_names() {
        let cells = expand_line(r#"{"mix": "case_study_intensive", "scheduler": "stfm"}"#).unwrap();
        assert_eq!(cells[0].mix, ["mcf", "libquantum", "GemsFDTD", "astar"]);
    }

    #[test]
    fn mixes_axis_expands() {
        let cells = expand_line(
            r#"{"mixes": [["mcf"], ["libquantum"], "case_study_mixed"], "scheduler": "fcfs"}"#,
        )
        .unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].mix, ["mcf"]);
        assert_eq!(cells[2].mix.len(), 4);
    }

    #[test]
    fn alpha_is_normalized_away_on_non_stfm_cells() {
        let cells =
            expand_line(r#"{"mix": ["mcf"], "scheduler": ["frfcfs", "stfm"], "alpha": 1.1}"#)
                .unwrap();
        assert_eq!(cells[0].alpha, None);
        assert_eq!(cells[1].alpha, Some(1.1));
        // And the FR-FCFS cell keys identically to one with no alpha at all.
        let plain = expand_line(r#"{"mix": ["mcf"], "scheduler": "frfcfs"}"#).unwrap();
        assert_eq!(cells[0].key(), plain[0].key());
    }

    #[test]
    fn keys_distinguish_every_axis() {
        let base = Cell::new(SchedSpec::Stfm, vec!["mcf".into()]);
        let mut keys = vec![base.key()];
        keys.push(Cell::new(SchedSpec::Fcfs, vec!["mcf".into()]).key());
        keys.push(Cell::new(SchedSpec::Stfm, vec!["libquantum".into()]).key());
        keys.push(base.clone().insts(1234).key());
        keys.push(base.clone().seed(2).key());
        keys.push(base.clone().alpha(1.1).key());
        let mut banked = base.clone();
        banked.banks = Some(16);
        keys.push(banked.key());
        let mut rowed = base.clone();
        rowed.row_kb = Some(4);
        keys.push(rowed.key());
        let unique: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "key collision: {keys:?}");
    }

    #[test]
    fn bad_lines_are_rejected_with_reasons() {
        for (line, needle) in [
            ("not json", "invalid literal"),
            ("[1]", "must be a JSON object"),
            (r#"{"mix": ["mcf"], "sched": "stfm"}"#, "unknown spec field"),
            (r#"{"scheduler": "stfm"}"#, "missing required field 'mix'"),
            (r#"{"mix": ["nosuchbench"]}"#, "unknown benchmark"),
            (
                r#"{"mix": ["mcf"], "scheduler": "lru"}"#,
                "unknown scheduler",
            ),
            (r#"{"mix": ["mcf"], "insts": 0}"#, "insts must be >= 1"),
            (r#"{"mix": ["mcf"], "insts": -5}"#, "unsigned integer"),
            (r#"{"mix": ["mcf"], "alpha": 0.5}"#, "alpha must be"),
            (r#"{"mix": ["mcf"], "banks": 6}"#, "power of two"),
            (
                r#"{"mix": [], "scheduler": "stfm"}"#,
                "at least one benchmark",
            ),
            (r#"{"mix": ["mcf"], "mixes": [["mcf"]]}"#, "not both"),
            (
                r#"{"mix": ["mcf"], "mix": ["mcf"]}"#,
                "duplicate spec field",
            ),
            (
                r#"{"mix": ["mcf"], "seed": [1, 2], "insts": []}"#,
                "insts must be",
            ),
        ] {
            let err = expand_line(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn grid_size_limit_guards_explosions() {
        let err = expand_line(&format!(
            r#"{{"mix": ["mcf"], "seed": [{}]}}"#,
            (0..20_000)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ))
        .expect_err("5 schedulers x 20000 seeds must exceed the limit");
        assert!(err.contains("limit"), "{err}");
    }

    #[test]
    fn to_experiment_matches_hand_built() {
        let cell = Cell::new(SchedSpec::Stfm, vec!["mcf".into(), "libquantum".into()])
            .insts(2000)
            .seed(7);
        let a = cell.to_experiment().unwrap().run();
        let b = Experiment::new(vec![
            stfm_workloads::spec::mcf(),
            stfm_workloads::spec::libquantum(),
        ])
        .scheduler(SchedulerKind::Stfm)
        .instructions_per_thread(2000)
        .seed(7)
        .run();
        assert_eq!(a.unfairness(), b.unfairness());
        assert_eq!(a.weighted_speedup(), b.weighted_speedup());
    }
}
