//! `cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use via_perfbench::report::result_line;
use via_perfbench::run::{write_spans, Args, Outcome, WorkDir};
use via_perfbench::{campaign_cold, socket_scaling, tune_search};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    type Run = fn(u64, f64, &std::path::Path) -> Outcome;
    let (untraced, traced): (Run, Run) = match args.workload.as_str() {
        "campaign_cold" => (campaign_cold::untraced, campaign_cold::traced),
        "tune_search" => (tune_search::untraced, tune_search::traced),
        "socket_scaling" => (socket_scaling::untraced, socket_scaling::traced),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (campaign_cold, tune_search, socket_scaling)");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = if args.trace { traced } else { untraced };
    let outcome = run(args.seed, args.seconds, work.path());
    for line in &outcome.lines {
        println!("{line}");
    }
    if args.trace {
        match write_spans(&args.workload, args.seed, &outcome.spans) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
    }
    if outcome.tally.attempted == 0 {
        eprintln!("perfbench: no point was attempted");
        return ExitCode::FAILURE;
    }
    println!("failed_share = {}", outcome.tally.failed_share());
    println!("{}", result_line(&outcome.tally, &outcome.metrics));
    ExitCode::SUCCESS
}
