//! Command-line entry point of the layered end-to-end benchmark.
//!
//! ```text
//! e2e --workload <model|validate|serve-fit|serve-stream> --seed <u64>
//!     [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints a report with every metric's name, value and unit, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 if an output check failed, 2 on bad arguments. A
//! traced run also writes its spans as JSON lines next to the executable.

use std::path::PathBuf;
use std::process::ExitCode;

use mocktails_e2e_bench::{run, spans, Config, Scale, Workload};

const USAGE: &str = "usage: e2e --workload <model|validate|serve-fit|serve-stream> --seed <u64> [--seconds <s>] [--trace <0|1>]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        // `cargo bench` appends `--bench`; it carries no value.
        if flag == "--bench" {
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed {value:?} is not a u64"))?,
                );
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not a duration"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        scale: Scale::Full,
    })
}

fn spans_path(cfg: &Config) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.join("e2e-spans").join(format!(
        "{}-seed{}.jsonl",
        cfg.workload.name(),
        cfg.seed
    )))
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run(&cfg);
    if cfg.trace {
        match spans_path(&cfg) {
            Some(path) => match spans::write_jsonl(&outcome.spans, &path) {
                Ok(()) => outcome.report.push(format!(
                    "{} spans written to {}",
                    outcome.spans.len(),
                    path.display()
                )),
                Err(e) => outcome
                    .failures
                    .push(format!("writing {}: {e}", path.display())),
            },
            None => outcome
                .failures
                .push("no directory to write spans to".into()),
        }
    }
    for line in &outcome.report {
        println!("{line}");
    }
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    if let Some(json) = outcome.result_json() {
        println!("{json}");
    }
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
