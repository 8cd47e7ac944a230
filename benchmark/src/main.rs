//! The repository's benchmark: one command runs one workload, prints every
//! metric by name with its unit, checks the answers against a brute-force
//! oracle and exits non-zero if they are wrong. See `README.md` beside
//! `Cargo.toml` for the metric glossary and `BENCHMARK.json` at the
//! repository root for the contract.

mod check;
mod common;
mod inputs;
mod lap;
mod metrics;
mod oracle;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Scratch;
use metrics::{unit_of, Values};
use workloads::{Report, Scale};

const USAGE: &str = "\
usage: focus-benchmark --workload <name> --seed <u64> --seconds <s> [--trace <0|1>] [--out <dir>]
       focus-benchmark --check
       focus-benchmark --repeat-check [--seed <u64>] [--seconds <s>]

  --workload      ingest_drift | archive_cold | live_mixed | fleet_scatter
  --seed          moves the query windows (the recordings are the same at every seed)
  --seconds       how long the laps measure (BENCHMARK.json: run_seconds)
  --trace 1       the traced run: odd laps record spans, per-layer metrics are reported
  --out <dir>     also write the result (and, traced, the spans as JSON lines) there
  --check         smoke mode: schema against BENCHMARK.json, oracle, sensitivity self-test
  --repeat-check  every workload twice at one seed: exact metrics identical, timings within bounds";

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        traced: bool,
        out: Option<PathBuf>,
    },
    Check,
    RepeatCheck {
        seed: u64,
        seconds: f64,
    },
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut out = None;
    let mut check = false;
    let mut repeat_check = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let text = value()?;
                seed = Some(
                    text.parse::<u64>()
                        .map_err(|e| format!("--seed {text}: {e}"))?,
                );
            }
            "--seconds" => {
                let text = value()?;
                let parsed = text
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {text}: {e}"))?;
                if !(parsed.is_finite() && parsed >= 0.0) {
                    return Err(format!("--seconds {text}: must be a non-negative number"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--check" => check = true,
            "--repeat-check" => repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if check {
        return Ok(Command::Check);
    }
    if repeat_check {
        return Ok(Command::RepeatCheck {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(check::RUN_SECONDS as f64),
        });
    }
    Ok(Command::Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        out,
    })
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
fn metrics_json(values: &Values) -> String {
    let members: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name).unwrap_or("")
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The run's last line: exactly `correct`, `attempted`, `failed`, `metrics`
/// — the end-to-end metrics, or in the traced run the per-layer ones.
pub fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.verdict.correct,
        report.verdict.attempted,
        report.verdict.failed,
        metrics_json(report.per_layer.as_ref().unwrap_or(&report.end_to_end))
    )
}

fn print_report(report: &Report) {
    for note in &report.notes {
        println!("# {note}");
    }
    let tables = [Some(&report.end_to_end), report.per_layer.as_ref()];
    for values in tables.into_iter().flatten() {
        for (name, value) in values {
            println!("{name} {value} {}", unit_of(name).unwrap_or(""));
        }
    }
    for reason in &report.verdict.reasons {
        println!("# FAILED {reason}");
    }
    println!("{}", result_line(report));
}

fn run_command(command: Command) -> Result<bool, String> {
    // A `Scratch` lives to the end of its arm: the working directory goes on
    // success, on failure and when an error returns early.
    match command {
        Command::Check => check::check(&Scratch::create()?),
        Command::RepeatCheck { seed, seconds } => {
            check::repeat_check(seed, seconds, &Scratch::create()?)
        }
        Command::Run {
            workload,
            seed,
            seconds,
            traced,
            out,
        } => {
            println!(
                "# focus-benchmark workload={workload} seed={seed} seconds={seconds} trace={}",
                u8::from(traced)
            );
            let scratch = Scratch::create()?;
            let report =
                workloads::run(&workload, seed, seconds, traced, &Scale::full(), &scratch)?;
            if let Some(dir) = out {
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("--out {}: {e}", dir.display()))?;
                let stem = format!("{workload}-seed{seed}-trace{}", u8::from(traced));
                let write = |name: String, text: &str| {
                    let path = dir.join(name);
                    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
                };
                write(format!("{stem}.json"), &(result_line(&report) + "\n"))?;
                if let Some(spans) = &report.spans {
                    write(format!("{stem}.spans.jsonl"), spans)?;
                }
            }
            print_report(&report);
            Ok(report.verdict.correct)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_command(command) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("focus-benchmark: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = parse_args(&args(
            "--workload live_mixed --seed 42 --seconds 20 --trace 1",
        ));
        assert_eq!(
            parsed,
            Ok(Command::Run {
                workload: "live_mixed".to_string(),
                seed: 42,
                seconds: 20.0,
                traced: true,
                out: None,
            })
        );
        assert_eq!(parse_args(&args("--check")), Ok(Command::Check));
        assert!(parse_args(&args("--workload x --seed 1")).is_err());
        assert!(parse_args(&args("--workload x --seed -1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
    }

    #[test]
    fn the_result_line_is_json_with_exactly_the_contract_keys() {
        let mut end_to_end = Values::new();
        end_to_end.insert("setup_s", 0.812_734_5);
        end_to_end.insert("recall_min", f64::NAN);
        let report = Report {
            end_to_end,
            per_layer: None,
            verdict: oracle::Verdict {
                correct: true,
                attempted: 10,
                failed: 0,
                recall_min: 1.0,
                precision_min: 1.0,
                reasons: Vec::new(),
            },
            laps: 1,
            samples: 0,
            notes: Vec::new(),
            spans: None,
        };
        let line = result_line(&report);
        let parsed = serde_json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains(r#""setup_s": {"value": 0.8127345, "unit": "s"}"#));
        assert!(line.contains(r#""recall_min": {"value": 0, "unit": "fraction"}"#));
    }
}
