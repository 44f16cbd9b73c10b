//! Live-cluster benchmark for the GDP workspace.
//!
//! Starts one router and two segmented-engine storage replicas in
//! process on loopback TCP, drives them from one seeded open-loop
//! generator, checks every acked record reads back intact, and prints
//! one JSON result line last. See README.md in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload append-quorum --seed 1 --seconds 10 --trace 0
//! ```

#![forbid(unsafe_code)]

mod cluster;
mod gen;
mod replay;
mod report;
mod rng;
mod sched;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => a.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::Workload::by_name(&args.workload) else {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload {:?} (one of {names:?})", args.workload);
        return ExitCode::from(2);
    };
    // Segmented logs live inside the working directory and are removed
    // afterwards.
    let dir = PathBuf::from(".perfbench-data").join(format!("{}-{}", w.name, std::process::id()));
    let result = workload::run(w, args.seed, args.seconds, args.trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench-data");
    match result {
        Ok(o) => {
            println!("{}", stats::result_line(o.correct, o.attempted, o.failed, &o.metrics));
            if o.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
