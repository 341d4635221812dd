//! The `paper` binary's argument parser.

use std::process::exit;
use std::str::FromStr;

/// The options every record reads.
#[derive(Debug, Clone)]
pub struct Args {
    /// Per-thread instruction budget (`--insts N`; `None` = each
    /// record's own default).
    pub insts: Option<u64>,
    /// Workload seed (`--seed N`).
    pub seed: u64,
    /// Run the full-scale sweep where the default subsamples (`--full`).
    pub full: bool,
    /// Worker-thread cap (`--jobs N`; `None` = all cores).
    pub jobs: Option<usize>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            insts: None,
            seed: 1,
            full: false,
            jobs: None,
        }
    }
}

impl Args {
    /// Parses `std::env::args`. `extra` names the caller's own options,
    /// each taking one value; those given come back in command-line order.
    /// `--help` prints `usage` and exits 0; an unknown argument or a
    /// malformed value prints it on stderr and exits with status 2.
    pub fn parse(usage: &str, extra: &[&'static str]) -> (Args, Vec<(&'static str, String)>) {
        let mut args = Args::default();
        let mut chosen = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--insts" => args.insts = Some(number(&a, it.next(), usage)),
                "--seed" => args.seed = number(&a, it.next(), usage),
                "--full" => args.full = true,
                "--jobs" => {
                    let n: usize = number(&a, it.next(), usage);
                    args.jobs = (n > 0).then_some(n);
                }
                "--help" | "-h" => {
                    println!("{usage}");
                    exit(0);
                }
                other => {
                    let Some(&flag) = extra.iter().find(|&&flag| flag == other) else {
                        usage_error(&format!("unknown argument: {other}"), usage)
                    };
                    let missing = || usage_error(&format!("{flag} needs a value"), usage);
                    chosen.push((flag, it.next().unwrap_or_else(missing)));
                }
            }
        }
        (args, chosen)
    }
}

/// The value of a numeric flag, or a usage error.
fn number<T: FromStr>(flag: &str, value: Option<String>, usage: &str) -> T {
    let parsed = value.and_then(|v| v.parse().ok());
    parsed.unwrap_or_else(|| usage_error(&format!("{flag} needs a number"), usage))
}

/// Prints `msg` and the usage line on stderr and exits with status 2.
pub fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    exit(2)
}
