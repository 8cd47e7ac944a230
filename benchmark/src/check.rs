//! `--check`, the smoke mode (minutes of video, a handful of laps), and
//! `--repeat-check`, which runs every workload twice at one seed.

use serde::Value;

use crate::common::Scratch;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::worsening;
use crate::workloads::{self, Report, Scale, WORKLOADS};

/// Seed of the smoke runs.
const CHECK_SEED: u64 = 1;

/// How the driver starts a run, from the repository root.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 30;

/// Member `key` of a JSON object.
fn member<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    serde::get_field(value.as_object()?, key)
}

/// The elements of the array member `key` (none when it is missing).
fn items<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    member(value, key).and_then(Value::as_array).unwrap_or(&[])
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Int(n) => Some(*n as f64),
        Value::UInt(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn keys(value: &Value) -> Vec<&str> {
    let members = value.as_object().unwrap_or(&[]);
    members.iter().map(|(k, _)| k.as_str()).collect()
}

/// Compares `BENCHMARK.json` (in the current directory, the repository
/// root) with the program's own tables: workloads and their reasons, every
/// metric's name, unit, direction and bound.
fn check_schema(doc: &Value) -> Result<(), String> {
    let found = keys(doc);
    let expected = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if found.len() != expected.len() || expected.iter().any(|k| !found.contains(k)) {
        return Err(format!("keys {found:?}, expected exactly {expected:?}"));
    }
    let text = |value: &Value, key: &str| -> Result<String, String> {
        member(value, key)
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or_else(|| format!("missing string {key:?} in {value:?}"))
    };

    let command: Vec<&str> = items(doc, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    if command != COMMAND {
        return Err(format!("command {command:?}, expected {COMMAND:?}"));
    }
    if member(doc, "run_seconds").and_then(number) != Some(RUN_SECONDS as f64) {
        return Err(format!("run_seconds is not {RUN_SECONDS}"));
    }

    let listed = items(doc, "workloads");
    if listed.len() != WORKLOADS.len() {
        return Err(format!(
            "{} workloads listed, {} exist",
            listed.len(),
            WORKLOADS.len()
        ));
    }
    for (entry, (name, why)) in listed.iter().zip(WORKLOADS) {
        if text(entry, "name")? != name || text(entry, "why")? != why {
            return Err(format!("workload {name}: name or why differs"));
        }
    }

    let listed = items(doc, "end_to_end");
    if listed.len() != END_TO_END.len() {
        return Err(format!(
            "{} end-to-end metrics listed, {} exist",
            listed.len(),
            END_TO_END.len()
        ));
    }
    for (entry, metric) in listed.iter().zip(END_TO_END) {
        let bound = member(entry, "bound").and_then(number);
        if text(entry, "name")? != metric.name
            || text(entry, "unit")? != metric.unit
            || text(entry, "better")? != metric.better.as_str()
            || bound != Some(metric.bound)
        {
            return Err(format!(
                "end-to-end metric {}: entry differs: {entry:?}",
                metric.name
            ));
        }
    }

    let listed = items(doc, "per_layer");
    if listed.len() != PER_LAYER.len() {
        return Err(format!(
            "{} per-layer metrics listed, {} exist",
            listed.len(),
            PER_LAYER.len()
        ));
    }
    for (entry, metric) in listed.iter().zip(PER_LAYER) {
        if text(entry, "name")? != metric.name
            || text(entry, "unit")? != metric.unit
            || text(entry, "better")? != metric.better.as_str()
        {
            return Err(format!(
                "per-layer metric {}: entry differs: {entry:?}",
                metric.name
            ));
        }
    }
    Ok(())
}

/// Checks one smoke run: correct, and its result lines carry exactly the
/// metrics `BENCHMARK.json` lists, each end-to-end one non-zero.
fn check_report(name: &str, report: &Report) -> Result<(), String> {
    if !report.verdict.correct {
        return Err(format!("{name}: not correct: {:?}", report.verdict.reasons));
    }
    let per_layer = report.per_layer.as_ref().ok_or("the smoke run is traced")?;
    for metric in END_TO_END {
        match report.end_to_end.get(metric.name) {
            Some(value) if value.is_finite() && *value > 0.0 => {}
            other => return Err(format!("{name}: {} is {other:?}", metric.name)),
        }
    }
    for metric in PER_LAYER {
        match per_layer.get(metric.name) {
            Some(value) if value.is_finite() => {}
            other => return Err(format!("{name}: {} is {other:?}", metric.name)),
        }
    }
    if report.end_to_end.len() != END_TO_END.len() || per_layer.len() != PER_LAYER.len() {
        return Err(format!(
            "{name}: reports a metric BENCHMARK.json does not list"
        ));
    }
    // The result line itself must parse and carry the contract's keys.
    let line = serde_json::parse(&crate::result_line(report)).map_err(|e| e.to_string())?;
    if keys(&line) != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("{name}: result line keys {:?}", keys(&line)));
    }
    Ok(())
}

/// The smoke mode: schema, one traced run of every workload at smoke scale
/// through the oracle, and the sensitivity self-test — doubling the archive
/// must raise `query_p50_ms`, `gt_inferences_per_query` and
/// `query.segments_opened_per_query`, proving the timers wrap real work.
/// (`index.bytes_read_per_query` cannot serve: `recover` loads every segment
/// whole, so a recovered archive of under 1024 segments reads nothing more.)
pub fn check(scratch: &Scratch) -> Result<bool, String> {
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    check_schema(&serde_json::parse(&manifest).map_err(|e| e.to_string())?)?;
    println!("schema: BENCHMARK.json matches the program's tables");

    let scale = Scale::check();
    let mut small_archive = None;
    for (name, _) in WORKLOADS {
        let report = workloads::run(name, CHECK_SEED, 0.0, true, &scale, scratch)?;
        check_report(name, &report)?;
        println!(
            "{name}: correct, {} operations, {} laps, recall_min {:.4}, precision_min {:.4}",
            report.verdict.attempted,
            report.laps,
            report.verdict.recall_min,
            report.verdict.precision_min
        );
        if name == "archive_cold" {
            small_archive = Some(report);
        }
    }

    let small = small_archive.expect("archive_cold is a workload");
    let doubled = Scale {
        archive_minutes: scale.archive_minutes * 2,
        ..scale
    };
    let large = workloads::run("archive_cold", CHECK_SEED, 0.0, true, &doubled, scratch)?;
    check_report("archive_cold x2", &large)?;
    let value = |report: &Report, name: &str| {
        report
            .end_to_end
            .get(name)
            .or_else(|| report.per_layer.as_ref()?.get(name))
            .copied()
            .unwrap_or(0.0)
    };
    for name in [
        "query_p50_ms",
        "gt_inferences_per_query",
        "query.segments_opened_per_query",
    ] {
        let (before, after) = (value(&small, name), value(&large, name));
        println!(
            "sensitivity: {name} {before} -> {after} as the archive grows {} -> {} min",
            scale.archive_minutes, doubled.archive_minutes
        );
        if after <= before {
            return Err(format!(
                "{name} did not rise with the archive: {before} -> {after}"
            ));
        }
    }
    println!("check: ok");
    Ok(true)
}

/// Runs every workload twice at `seed`; the exact metrics must be
/// bit-identical and each timing metric's second run within its bound of
/// the first. Prints the table.
pub fn repeat_check(seed: u64, seconds: f64, scratch: &Scratch) -> Result<bool, String> {
    let scale = Scale::full();
    let mut ok = true;
    println!("workload metric first second worsening bound verdict");
    for (name, _) in WORKLOADS {
        let first = workloads::run(name, seed, seconds, false, &scale, scratch)?;
        let second = workloads::run(name, seed, seconds, false, &scale, scratch)?;
        ok &= first.verdict.correct && second.verdict.correct;
        for metric in END_TO_END {
            let a = first.end_to_end[metric.name];
            let b = second.end_to_end[metric.name];
            let worse = worsening(a, b, metric.better == Better::Higher);
            let pass = if metric.exact {
                a.to_bits() == b.to_bits()
            } else {
                worse <= metric.bound
            };
            ok &= pass;
            println!(
                "{name} {} {a} {b} {worse:+.4} {} {}",
                metric.name,
                if metric.exact {
                    "exact".to_string()
                } else {
                    metric.bound.to_string()
                },
                if pass { "ok" } else { "FAILED" }
            );
        }
        println!(
            "# {name}: laps {} and {}, samples {} and {}",
            first.laps, second.laps, first.samples, second.samples
        );
    }
    println!("repeat-check: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCHMARK.json` is what the tables dictate, and the
    /// check notices a renamed metric, a changed unit and an extra key.
    #[test]
    fn the_committed_manifest_matches_the_tables_and_drift_is_rejected() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let good = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let check = |text: &str| check_schema(&serde_json::parse(text).unwrap());
        assert_eq!(check(&good), Ok(()));
        assert!(check(&good.replace("\"query_p95_ms\"", "\"query_p99_ms\"")).is_err());
        assert!(check(&good.replace("\"unit\": \"MiB\"", "\"unit\": \"MB\"")).is_err());
        assert!(check(&good.replacen('{', "{\"extra\": 1, ", 1)).is_err());
    }
}
