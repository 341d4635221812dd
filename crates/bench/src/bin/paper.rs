//! `paper`: regenerates the paper's figures, Tables 3 and 5, the PAR-BS
//! extension and the ablations from the records in `stfm_bench::paper`.
//!
//! `paper --figure <id>` prints one record on stdout; `paper --all <dir>`
//! writes `<dir>/<id>.txt` for every record. Both take `--insts N` (default:
//! each record's own budget), `--seed N`, `--full` and `--jobs N`. All
//! records of one invocation share one alone cache and one result cache,
//! so no cell is simulated twice; stderr says how many runs each record
//! simulated.

use std::path::Path;

use stfm_bench::cli::usage_error;
use stfm_bench::paper::{record, Session, RECORDS};
use stfm_bench::Args;

const USAGE: &str =
    "usage: paper (--figure ID | --all DIR) [--insts N] [--seed N] [--full] [--jobs N]";

fn main() {
    let (args, choice) = Args::parse(USAGE, &["--figure", "--all"]);
    let (records, dir) = match choice.as_slice() {
        [("--figure", id)] => match record(id) {
            Some(r) => (std::slice::from_ref(r), None),
            None => {
                let ids: Vec<_> = RECORDS.iter().map(|r| r.id).collect();
                let msg = format!("unknown figure '{id}'; one of: {}", ids.join(" "));
                usage_error(&msg, USAGE)
            }
        },
        [("--all", dir)] => (RECORDS, Some(Path::new(dir))),
        _ => usage_error("give one of --figure ID and --all DIR", USAGE),
    };
    let session = Session::new(args);
    for r in records {
        let before = session.simulated();
        let out = session.render(r);
        match dir {
            None => print!("{out}"),
            Some(dir) => {
                let path = dir.join(format!("{}.txt", r.id));
                let written =
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out));
                if let Err(e) = written {
                    eprintln!("error: {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        let runs = session.simulated() - before;
        eprintln!("paper: {}: {runs} runs simulated", r.id);
    }
}
