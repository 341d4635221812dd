//! Tiny argument parser shared by the harness binaries.

/// Common harness options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Per-thread instruction budget (`--insts N`).
    pub insts: u64,
    /// Workload seed (`--seed N`).
    pub seed: u64,
    /// Run the full-scale sweep where the default subsamples (`--full`).
    pub full: bool,
    /// Worker-thread cap (`--jobs N`; `None` = all cores).
    pub jobs: Option<usize>,
}

impl Args {
    /// Parses `std::env::args` with a per-binary default budget.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(default_insts: u64) -> Args {
        let mut args = Args {
            insts: default_insts,
            seed: 1,
            full: false,
            jobs: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--insts" => {
                    args.insts = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--insts needs a number"));
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--seed needs a number"));
                }
                "--full" => args.full = true,
                "--jobs" => {
                    let n: usize = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--jobs needs a number"));
                    args.jobs = (n > 0).then_some(n);
                }
                "--help" | "-h" => {
                    println!("usage: [--insts N] [--seed N] [--full] [--jobs N]");
                    std::process::exit(0);
                }
                other => panic!("unknown argument: {other}"),
            }
        }
        args
    }
}
