//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones of an untraced run;
//! with `--trace 1` the per-layer ones of a traced run. Progress and
//! diagnostics go to standard error. `perfbench --characterize` is the
//! helper process `mp3_timed` runs its CPU characterization in.

use std::process::ExitCode;

use perfbench::report::Opts;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Parses `--flag value` pairs into the workload name and options.
fn parse_args(mut args: impl Iterator<Item = String>) -> Option<(String, Opts)> {
    let mut workload = None;
    let mut opts = Opts { seed: 0, seconds: 10, trace: false };
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().ok()?,
            "--seconds" => opts.seconds = value.parse().ok().filter(|&s| s > 0)?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some((workload?, opts))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--characterize") {
        perfbench::print_characterizations();
        return ExitCode::SUCCESS;
    }
    let Some((workload, opts)) = parse_args(std::env::args().skip(1)) else { return usage() };
    match perfbench::run(&workload, &opts) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
