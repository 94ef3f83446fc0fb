//! STSM benchmark: one training fit, one full-graph forecast and one served
//! request, on the PEMS-Bay, PEMS-08 and Melbourne presets.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-pemsbay --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` makes one
//! untraced and one traced pass and prints the per-layer metrics. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is 0 only when every output check held.
//! `--size tiny` shrinks every input (for the smoke test). See README.md.

mod forecast;
mod layers;
mod serve;
mod stats;
mod trace;
mod train;
mod workload;

use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use stsm_tensor::{pool, simd, telemetry};
use trace::Tracer;
use workload::{Outcome, RunSpec, Size, Workload};

/// Pool threads the benchmark pins (`STSM_NUM_THREADS`).
const POOL_THREADS: usize = 1;
/// Complete set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Per-op latency quantile and slice-throughput quantile of record. The
/// host's slow spells only ever add time, and they can cover most of a
/// run, so the fast end of a run's distribution is what repeats between
/// runs (see README.md, "Rejected designs").
const LATENCY_Q: f64 = 0.10;
const THROUGHPUT_Q: f64 = 0.90;

const USAGE: &str = "usage: stsm-perfbench --workload <train-pemsbay|forecast-pems08|\
serve-melbourne> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut size) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => {
                size = Some(match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: size.unwrap_or(Size::Full),
    })
}

/// Clears every `STSM_*` knob (each is read process-wide and would change
/// what is measured) and pins the pool to [`POOL_THREADS`]. Runs first in
/// `main`, before any other thread exists.
fn pin_environment() {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("STSM_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("STSM_NUM_THREADS", POOL_THREADS.to_string());
}

/// The repository root this binary was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// FNV-1a over every file under `crates/` (sorted paths): names the
/// measured source where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&repo_root().join("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// `git rev-parse HEAD` of the repository root, or "none" outside a git
/// checkout.
fn git_commit() -> String {
    if !repo_root().join(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none".into(), |s| s.trim().to_string())
}

fn stamp(args: &Args) -> Value {
    json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": format!("{:?}", args.size).to_lowercase(),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "simd": format!("{:?}", simd::level()),
        "pool_threads": pool::num_threads(),
        "serve_workers": serve::WORKERS,
        "serve_clients": serve::CLIENTS,
        "commit": git_commit(),
        "source_fnv": source_digest(),
    })
}

fn run(workload: Workload, spec: &RunSpec, tracer: &Tracer) -> Outcome {
    match workload {
        Workload::TrainPemsbay => train::run(spec, tracer),
        Workload::ForecastPems08 => forecast::run(spec, tracer),
        Workload::ServeMelbourne => serve::run(spec, tracer),
    }
}

/// Throughput of record: the [`THROUGHPUT_Q`] quantile of slice rates.
pub fn throughput(o: &Outcome) -> f64 {
    stats::percentile(&stats::slice_rates(&o.done_s, o.work_per_op, o.ops_per_slice), THROUGHPUT_Q)
}

fn metric(v: f64, unit: &str) -> Value {
    json!({ "value": v, "unit": unit })
}

fn peak_rss_mb() -> f64 {
    stsm_bench::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Writes the stamp, spans and telemetry of a traced run next to the
/// benchmark's sources, in `traces/`.
fn write_trace(args: &Args, stamp: Value, tracer: &Tracer, traced: &Outcome) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    let doc = json!({
        "stamp": stamp,
        "spans": tracer.to_json(),
        "telemetry": traced.telemetry,
    });
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_string()));
    match written {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("trace not written ({}): {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    telemetry::set_enabled(false);
    let stamp = stamp(&args);
    println!("stamp {stamp}");

    let spec = |seconds: f64, setup_reps: usize| RunSpec {
        seed: args.seed,
        seconds,
        size: args.size,
        setup_reps: if args.size == Size::Tiny { 1 } else { setup_reps },
    };
    let mut metrics = Map::new();
    let outcomes = if args.trace {
        // Half the run untraced, half traced: the throughput difference is
        // the tracing overhead.
        let base = run(args.workload, &spec(args.seconds / 2.0, 1), &Tracer::new(false));
        let tracer = Tracer::new(true);
        telemetry::set_enabled(true);
        let traced = run(args.workload, &spec(args.seconds / 2.0, 1), &tracer);
        telemetry::set_enabled(false);
        let layer = layers::derive(args.workload, &base, &traced, &tracer);
        write_trace(&args, stamp, &tracer, &traced);
        for (name, v, unit) in layer {
            metrics.insert(name.to_string(), metric(v, unit));
        }
        vec![base, traced]
    } else {
        let o = run(args.workload, &spec(args.seconds, SETUP_REPS), &Tracer::new(false));
        for (name, v, unit) in [
            ("setup_s", stats::median(&o.setup_s), "s"),
            ("throughput_per_s_p90", throughput(&o), "1/s"),
            ("latency_ms_p10", stats::percentile(&o.latency_s, LATENCY_Q) * 1e3, "ms"),
            ("rmse", o.rmse, "km/h"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ] {
            metrics.insert(name.to_string(), metric(v, unit));
        }
        vec![o]
    };

    let correct = outcomes.iter().all(Outcome::correct);
    for o in &outcomes {
        for (name, ok) in &o.checks {
            eprintln!("check {:<48} {}", name, if *ok { "ok" } else { "FAILED" });
        }
    }
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
