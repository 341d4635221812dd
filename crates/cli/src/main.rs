//! `stfm` — command-line front end for the STFM reproduction.
//!
//! ```text
//! stfm run --workload mcf,libquantum,GemsFDTD,astar --scheduler stfm
//! stfm run --workload mcf,libquantum --scheduler all --insts 100000
//! stfm sweep experiments.jsonl --jobs 8 --cache-dir .stfm-cache
//! stfm serve --cache-dir .stfm-cache < spec.jsonl
//! stfm trace --workload mcf,libquantum --out-dir trace-out
//! stfm list
//! stfm capture --benchmark mcf --ops 50000 --out mcf.trace
//! stfm replay --traces a.trace,b.trace --scheduler stfm
//! ```

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        // `cargo bench --workspace` invokes binaries with --bench.
        Some("--bench") => Ok(()),
        Some("run") => commands::run(&argv[1..]),
        Some("sweep") => commands::sweep(&argv[1..]),
        Some("serve") => commands::serve(&argv[1..]),
        Some("trace") => commands::trace(&argv[1..]),
        Some("list") => commands::list(&argv[1..]),
        Some("capture") => commands::capture(&argv[1..]),
        Some("replay") => commands::replay(&argv[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand '{other}'; try `stfm help`")),
    }
    .map_or_else(
        |e| {
            eprintln!("error: {e}");
            1
        },
        |_| 0,
    );
    std::process::exit(code);
}
