//! Smoke test: every workload at tiny size, untraced and traced, in a few
//! seconds. Asserts that each metric named in `BENCHMARK.json` is emitted,
//! finite and with its unit, that the output checks ran and held, and that
//! the pool ran no parallel region (the one-thread pin held).

use serde_json::Value;
use std::process::{Command, Output};

/// Each workload with the output checks it must report.
const WORKLOADS: [(&str, &[&str]); 3] = [
    (
        "train-pemsbay",
        &[
            "epoch losses finite",
            "repeated fits bitwise identical",
            "repeated fits give bitwise-identical rmse",
        ],
    ),
    ("forecast-pems08", &["forecasts finite", "re-forecast bitwise equal"]),
    (
        "serve-melbourne",
        &[
            "forecasts finite",
            "served windows equal a fresh predictor",
            "every request answered or counted as rejected",
            "re-forecast bitwise equal",
        ],
    ),
];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json is valid JSON");
    let metrics = doc.get(section).and_then(Value::as_array).expect("section is an array");
    metrics
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stsm-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

/// Runs one tiny workload; returns the result line and stderr.
fn run_tiny(workload: &str, trace: &str) -> (Value, String) {
    let args = format!("--workload {workload} --seed 3 --seconds 1 --trace {trace} --size tiny");
    let out = bench(&args.split(' ').collect::<Vec<_>>());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}\n{stderr}");
    let last = stdout.lines().last().expect("a result line");
    (serde_json::from_str(last).expect("the last line is JSON"), stderr)
}

#[test]
fn every_workload_emits_every_metric_and_runs_its_checks() {
    for (workload, checks) in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (result, stderr) = run_tiny(workload, trace);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
            let metrics = result.get("metrics").expect("metrics object");
            for (name, unit) in declared(section) {
                let m = metrics.get(&name).unwrap_or_else(|| panic!("{workload}: no {name}"));
                let v = m.get("value").and_then(Value::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            }
            for check in checks {
                assert!(
                    stderr.lines().any(|l| l.starts_with("check ") && l.contains(check)),
                    "{workload}: check '{check}' did not run:\n{stderr}"
                );
            }
            if trace == "1" {
                let share = metrics.get("tensor.pool_parallel_share").and_then(|m| m.get("value"));
                assert_eq!(
                    share.and_then(Value::as_f64),
                    Some(0.0),
                    "{workload}: pool ran parallel"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "train-pemsbay", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "train-pemsbay", "--seed", "x", "--seconds", "1", "--trace", "0"][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} must be refused");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
