//! The repository benchmark: one seeded workload per invocation.
//!
//! ```text
//! perfbench --workload <batch-zipf|serve-hot|serve-ingest> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric with its unit and sample count, then as
//! the last line one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! window (`--trace 1`). A run whose checks fail still prints its result,
//! then exits non-zero. See `README.md` for the workloads and metrics.

mod batch;
mod blobs;
mod data;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

/// Note on standard error how long an untimed or timed phase of the run
/// took, so slow set-up or checking shows without a profiler.
pub fn progress(what: &str, since: Instant) {
    eprintln!(
        "perfbench: {what} took {:.3} s",
        since.elapsed().as_secs_f64()
    );
}

const USAGE: &str =
    "usage: perfbench --workload <batch-zipf|serve-hot|serve-ingest> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "batch-zipf" => batch::run(args.seed, args.seconds, args.trace),
        "serve-hot" => serve::run_hot(args.seed, args.seconds, args.trace),
        "serve-ingest" => serve::run_ingest(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let printed = report.and_then(|mut r| {
        if args.trace {
            r.check_residual();
        }
        r.print(args.trace).map(|()| r.correct())
    });
    match printed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
