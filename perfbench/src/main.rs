//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <batch-paper|stream-stress|serve-open> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (see `perfbench/README.md`). The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`), each with its unit. The line before it is the
//! provenance stamp. A human-readable copy goes to standard error.

mod check;
mod run;
#[cfg(test)]
mod selftest;
mod serve_open;
mod stamp;
mod stats;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use run::Outcome;
use stamp::json_str;
use workload::{Spec, Workload};

const USAGE: &str = "usage: perfbench --workload <batch-paper|stream-stress|serve-open> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds takes a positive integer")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The result line the benchmark contract asks for.
fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.workload, args.workload.full_size(), args.seed);
    let stamp = stamp::provenance(args.workload.name(), args.seed, args.seconds, args.trace);
    eprintln!("provenance: {stamp}");
    let mut out = run::run(&spec, Duration::from_secs(args.seconds), args.trace);
    for m in &out.metrics {
        eprintln!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for m in out.metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        out.problems
            .push(format!("metric {} is not finite", m.name));
        m.value = 0.0; // JSON has no NaN or infinity.
    }
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{{\"provenance\": {stamp}}}");
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
