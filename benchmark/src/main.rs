//! `deepst_bench`: the repository benchmark.
//!
//! ```text
//! deepst_bench --workload <w> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <d>] [--out <file>]
//! deepst_bench run <w|all> --seed <n> [--seconds <s>] [--trace <dir>] [--out <dir>]
//! deepst_bench repeat --runs <n> [--seed <s>] [--seconds <s>] [--out <file>]
//! deepst_bench agree <set-a> <set-b>
//! ```
//!
//! The first form runs one workload in this process and ends its output
//! with one JSON line (`correct`, `attempted`, `failed`, `metrics`): the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The other forms run workloads in fresh processes of this
//! binary. See `benchmark/README.md`.

mod cli;
mod clock;
mod decode;
mod decode_batch;
mod fit;
mod probe;
mod report;
mod serve;
mod spec;
mod stats;
mod tracer;
mod train;
mod world;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cli::run(&args[1..]),
        Some("repeat") => cli::repeat(&args[1..]),
        Some("agree") => cli::agree(&args[1..]),
        Some(a) if a.starts_with("--") => cli::one(&args),
        _ => Err(
            "usage: deepst_bench --workload <w> --seed <n> --seconds <s> --trace <0|1> \
                  | run <w|all> --seed <n> | repeat --runs <n> | agree <a> <b>"
                .to_string(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
