//! End-to-end benchmark of pak: protocol text to PAK answer, in process
//! and through `pak-server`.
//!
//! ```text
//! perfbench --workload <text_to_pak|serve_warm|serve_churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` a run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics and writes its spans as
//! TSV under `--out`. The last line of standard output is the result as
//! one JSON object. See `README.md` for the workloads and metrics.

mod alloc;
mod programs;
mod report;
mod serve;
mod text;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "text_to_pak" => text::run(&args),
        "serve_warm" => serve::run(&args, serve::Kind::Warm),
        "serve_churn" => serve::run(&args, serve::Kind::Churn),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if outcome.print(&args.workload) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
