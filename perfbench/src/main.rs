//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <place-zipf|replicate-zipf|serve-paper|live-shift|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload runs in this process; its last line of standard output
//! is the JSON result. A failed output check prints it with
//! `"correct": false` and exits with code 1; a usage error exits with
//! code 2. `all` runs each workload in a process of its own, one after
//! another, printing each one's table and JSON line, and exits with code
//! 1 if any of them failed.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use cca_perfbench::workloads::live::LiveShift;
use cca_perfbench::workloads::place::PlaceZipf;
use cca_perfbench::workloads::replicate::ReplicateZipf;
use cca_perfbench::workloads::serve::ServePaper;
use cca_perfbench::{run, RunOptions, RunResult, Scale, Workload, DEFAULT_SEED};

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["place-zipf", "replicate-zipf", "serve-paper", "live-shift"];

/// Where traced runs write their spans, relative to the working
/// directory (the root of the checkout).
const SPAN_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 16.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn run_one<W: Workload>(w: &W, args: &Args) -> Result<RunResult, String> {
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        span_path: args.trace.then(|| {
            PathBuf::from(SPAN_DIR).join(format!("spans-{}-seed{}.tsv", w.name(), args.seed))
        }),
    };
    run(w, &opts)
}

/// Runs every workload in a child process of this executable, one after
/// another, with this run's options; their output goes straight to ours.
/// Fails if any of them failed.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut all_passed = true;
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("running {name}: {e}"))?;
        all_passed &= status.success();
    }
    Ok(if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "all" => {
            return run_all(&args).unwrap_or_else(|e| {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            })
        }
        "place-zipf" => run_one(&PlaceZipf::new(Scale::Full), &args),
        "replicate-zipf" => run_one(&ReplicateZipf::new(Scale::Full), &args),
        "serve-paper" => run_one(&ServePaper::new(Scale::Full), &args),
        "live-shift" => run_one(&LiveShift::new(Scale::Full), &args),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    match result {
        Ok(result) => {
            for line in &result.lines {
                println!("{line}");
            }
            println!("{}", result.json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
