//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <finetune|verify_stream|scaled_worlds> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), then, as
//! the last line, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end metrics
//! ([`END_TO_END`]), measured with the obskit recorder off; with
//! `--trace 1` they are the per-layer metrics ([`layers::PER_LAYER`]),
//! and the run also writes a Chrome trace and an `obskit.bench.v2`
//! report into `--out-dir`. See `README.md` for what each workload
//! measures and why.

mod common;
mod finetune;
mod layers;
mod profile;
mod scaled_worlds;
mod speed;
mod stats;
mod traffic;
mod verify_stream;

use common::Args;
use std::process::ExitCode;

/// End-to-end metrics: name and unit. Every workload reports all of them
/// (see `README.md` for what each means on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s", "s"),
    ("verify_p50_ms", "ms"),
    ("verify_p99_ms", "ms"),
    ("verify_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["finetune", "verify_stream", "scaled_worlds"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = Args::parse(&argv) else {
        return usage();
    };
    let outcome = match args.workload.as_str() {
        "finetune" => finetune::run(&args),
        "verify_stream" => verify_stream::run(&args),
        "scaled_worlds" => scaled_worlds::run(&args),
        _ => return usage(),
    };
    let expected: &[(&str, &str)] = if args.trace {
        layers::PER_LAYER
    } else {
        END_TO_END
    };
    match outcome.finish(&args, expected) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
