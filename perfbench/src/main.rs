//! `benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero when any output check failed or the run
//! could not measure.

use std::process::ExitCode;

use privtopk_perfbench::{run, RunConfig, Scale, Workload};

const USAGE: &str =
    "usage: benchmark --workload <serve-pipelined|serve-interactive|batch-sim|store-ingest> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";
const DEFAULT_SEED: u64 = 24301;
const DEFAULT_SECONDS: f64 = 20.0;

fn parse(mut args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // On-disk state lives under the working directory, which the
    // benchmark owns for the length of the run.
    let scratch = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench_tmp")
        .join(format!("{}-{}", workload.name(), std::process::id()));
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
        scratch,
    })
}

fn main() -> ExitCode {
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "benchmark: {} seed={} seconds={} trace={} cores={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let outcome = run(&cfg);
    // The parent is shared by concurrent runs; it goes once it is empty.
    if let Some(parent) = cfg.scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match outcome {
        Ok(report) => {
            for m in &report.metrics {
                match m.value {
                    Some(v) => eprintln!("  {:<42} {v:>14.4} {}", m.name, m.unit),
                    None => eprintln!("  {:<42} {:>14} {}", m.name, "n/a", m.unit),
                }
            }
            println!("{}", report.to_json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("{} of {} checks failed", report.failed, report.attempted);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
