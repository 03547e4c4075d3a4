//! End-to-end benchmark of the M²AI pipeline: raw tag reads in,
//! activity predictions out, with a per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload live --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `live`, `frames`, `train` (see `README.md`).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate
//! run that records spans around every call into a layer and prints
//! the per-layer metrics. Either way the last line of standard output
//! is one JSON object, and the run exits non-zero if an output check
//! fails.

mod driver;
mod fabric;
mod frames;
mod inputs;
mod live;
mod prom;
mod report;
mod stats;
mod sys;
mod tracer;
mod train;

use std::path::PathBuf;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: every generated input derives from it alone.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload live|frames|train --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut tracer = tracer::Tracer::new(args.trace);
    let report = match args.workload.as_str() {
        "live" => live::run(&args, &mut tracer),
        "frames" => frames::run(&args, &mut tracer),
        "train" => train::run(&args, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (live, frames, train)");
            std::process::exit(2);
        }
    };
    println!(
        "# machine: {} cores, {}; workload {} seed {} seconds {} trace {}",
        train::nproc(),
        env!("PERFBENCH_RUSTC"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        let path = PathBuf::from("perfbench/out").join(format!("trace-{}.json", args.workload));
        match tracer.write_chrome(&path, 50_000) {
            Ok(()) => println!(
                "# trace: {} spans, first {} written to {}",
                tracer.spans().len(),
                tracer.spans().len().min(50_000),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        report.print(report::PER_LAYER);
    } else {
        report.print(report::END_TO_END);
    }
    if !report.correct() {
        std::process::exit(1);
    }
}
