//! `stsm` command-line interface: generate synthetic datasets, train STSM
//! variants, evaluate trained models and inspect forecasts — without writing
//! any Rust.
//!
//! ```text
//! stsm generate --preset pems-bay --days 8 --out data.json
//! stsm train    --data data.json --variant stsm --out model.json
//! stsm evaluate --data data.json --model model.json
//! stsm forecast --data data.json --model model.json --horizon-detail
//! ```

use std::sync::Arc;
use stsm::core::{
    evaluate_detailed, evaluate_stsm, train_stsm_with, DistanceMode, DtwCandidates, OnlineConfig,
    OnlineTrainer, Predictor, ProblemInstance, StsmConfig, StsmError, TrainOptions, TrainedStsm,
    Variant,
};
use stsm::serve::{ForecastRequest, ServeConfig, Server, SharedModel};
use stsm::synth::{dataset_from_json, dataset_to_json, presets, space_split, Dataset, SplitAxis};
use stsm::tensor::telemetry;
use stsm::timeseries::{sliding_windows, Metrics};

/// CLI failure classes, each with its own process exit code so scripts and
/// supervisors can branch on *why* a run failed without parsing stderr:
/// `2` usage/config, `3` file I/O, `4` model/data parse or layout, `5`
/// training divergence. Success is `0`; `1` is reserved for panics.
enum CliError {
    /// Bad flags, unknown subcommand values, or a configuration the
    /// pipeline cannot run (e.g. a training period shorter than a window).
    Usage(String),
    /// A file could not be read or written.
    Io(String),
    /// A dataset or model file parsed but is invalid (bad JSON, parameter
    /// layout mismatch, corrupt checkpoint).
    Model(String),
    /// Training ran but diverged beyond what the guard could rescue.
    Diverged(String),
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Model(_) => 4,
            CliError::Diverged(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Model(m) | CliError::Diverged(m) => m,
        }
    }
}

impl From<StsmError> for CliError {
    fn from(e: StsmError) -> Self {
        match e {
            // Geometry/config problems: the run never started.
            StsmError::TrainingPeriodTooShort { .. }
            | StsmError::TestPeriodTooShort { .. }
            | StsmError::TooFewObserved { .. } => CliError::Usage(e.to_string()),
            // Persisted artifacts that do not parse or fit.
            StsmError::Checkpoint(_) | StsmError::ParamLayout(_) | StsmError::Serde(_) => {
                CliError::Model(e.to_string())
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("evaluate") => cmd_evaluate(&args[1..], false),
        Some("forecast") => cmd_evaluate(&args[1..], true),
        Some("serve") => cmd_serve(&args[1..]),
        Some("online") => cmd_online(&args[1..]),
        _ => {
            print_usage();
            Ok(())
        }
    };
    emit_telemetry();
    if let Err(e) = result {
        eprintln!("error: {}", e.message());
        std::process::exit(e.exit_code());
    }
}

/// After an instrumented run (`STSM_TELEMETRY=1`), prints the telemetry
/// table on stderr and, when `STSM_TELEMETRY_PATH` is set, writes the full
/// JSON [`telemetry::TelemetryReport`] there (schema in DESIGN.md).
fn emit_telemetry() {
    if !telemetry::enabled() {
        return;
    }
    let report = telemetry::snapshot();
    if report.is_empty() {
        return;
    }
    eprint!("{}", report.render_table());
    if let Ok(path) = std::env::var("STSM_TELEMETRY_PATH") {
        if !path.is_empty() {
            match std::fs::write(&path, report.to_json()) {
                Ok(()) => eprintln!("telemetry report written to {path}"),
                Err(e) => eprintln!("telemetry: failed to write {path}: {e}"),
            }
        }
    }
}

fn print_usage() {
    eprintln!(
        "stsm — spatial-temporal forecasting for regions without observations\n\n\
         USAGE:\n\
           stsm generate --preset <pems-bay|pems-07|pems-08|melbourne|airq|metro> [--sensors N] [--days N] [--seed N] --out FILE\n\
           stsm train    --data FILE [--variant stsm|stsm-r|stsm-nc|stsm-rnc|stsm-trans] [--epochs N] --out FILE\n\
                         (honors STSM_DTW_CANDIDATES=exact|spatial:<k>)\n\
           stsm evaluate --data FILE --model FILE\n\
           stsm forecast --data FILE --model FILE   (adds per-horizon breakdown)\n\
           stsm serve    --data FILE --model FILE [--steps N]   (in-process serving demo over the test period;\n\
                         honors STSM_SERVE_WORKERS / STSM_SERVE_QUEUE_DEPTH / STSM_SERVE_DEADLINE_MS)\n\
           stsm online   --data FILE --model FILE [--out FILE]  (stream the test period with online fine-tuning;\n\
                         honors STSM_ONLINE_REPLAY / STSM_ONLINE_LR_SCALE / STSM_ONLINE_REFRESH)\n\n\
         EXIT CODES:\n\
           0 success   2 usage/config error   3 file I/O error   4 model/data parse error   5 training divergence"
    );
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// Parses a required numeric flag, defaulting when absent.
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    flag(args, name)
        .map_or(Ok(default), |v| v.parse().map_err(|e| CliError::Usage(format!("{name}: {e}"))))
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    let preset =
        flag(args, "--preset").ok_or_else(|| CliError::Usage("--preset required".into()))?;
    let days: usize = num_flag(args, "--days", 8)?;
    let seed: u64 = num_flag(args, "--seed", 42)?;
    let out = flag(args, "--out").ok_or_else(|| CliError::Usage("--out required".into()))?;
    let cfg = match preset.as_str() {
        "pems-bay" => presets::pems_bay(days, seed),
        "pems-07" => presets::pems_07(days, seed),
        "pems-08" => presets::pems_08(400, days, seed),
        "melbourne" => presets::melbourne(days, seed),
        "airq" => presets::airq(days, seed),
        "metro" => {
            let sensors: usize = num_flag(args, "--sensors", 10_000)?;
            presets::metro(sensors, days, seed)
        }
        other => return Err(CliError::Usage(format!("unknown preset '{other}'"))),
    };
    let dataset = cfg.generate();
    std::fs::write(&out, dataset_to_json(&dataset))
        .map_err(|e| CliError::Io(format!("{out}: {e}")))?;
    println!("wrote {} ({} sensors × {} steps)", out, dataset.n, dataset.t_total);
    Ok(())
}

fn load_problem(args: &[String]) -> Result<ProblemInstance, CliError> {
    let data = flag(args, "--data").ok_or_else(|| CliError::Usage("--data required".into()))?;
    let json = std::fs::read_to_string(&data).map_err(|e| CliError::Io(format!("{data}: {e}")))?;
    let dataset: Dataset =
        dataset_from_json(&json).map_err(|e| CliError::Model(format!("{data}: {e}")))?;
    let split = space_split(&dataset.coords, SplitAxis::Horizontal, false);
    Ok(ProblemInstance::new(dataset, split, DistanceMode::Euclidean))
}

fn load_model(args: &[String]) -> Result<TrainedStsm, CliError> {
    let model_path =
        flag(args, "--model").ok_or_else(|| CliError::Usage("--model required".into()))?;
    let json = std::fs::read_to_string(&model_path)
        .map_err(|e| CliError::Io(format!("{model_path}: {e}")))?;
    Ok(TrainedStsm::from_json(&json)?)
}

fn cmd_train(args: &[String]) -> Result<(), CliError> {
    let problem = load_problem(args)?;
    let out = flag(args, "--out").ok_or_else(|| CliError::Usage("--out required".into()))?;
    let variant = match flag(args, "--variant").as_deref() {
        None | Some("stsm") => Variant::Stsm,
        Some("stsm-r") => Variant::StsmR,
        Some("stsm-nc") => Variant::StsmNc,
        Some("stsm-rnc") => Variant::StsmRnc,
        Some("stsm-trans") => Variant::StsmTrans,
        Some(other) => return Err(CliError::Usage(format!("unknown variant '{other}'"))),
    };
    let epochs: usize = num_flag(args, "--epochs", 8)?;
    let mut cfg = StsmConfig::default().for_dataset(&problem.dataset.name).with_variant(variant);
    cfg.epochs = epochs;
    // STSM_DTW_CANDIDATES (`exact` or `spatial:<k>`) picks the DTW neighbour
    // candidates; unset or unparseable means exact.
    cfg.dtw_candidates = std::env::var("STSM_DTW_CANDIDATES")
        .ok()
        .and_then(|v| DtwCandidates::parse(&v))
        .unwrap_or_default();
    // Keep top-K within the observed count for small datasets.
    cfg.top_k = cfg.top_k.min(problem.n_observed());
    println!(
        "training {} on {} ({} observed → {} unobserved)...",
        variant.name(),
        problem.dataset.name,
        problem.n_observed(),
        problem.n_unobserved()
    );
    // STSM_CHECKPOINT_PATH / STSM_CHECKPOINT_EVERY / STSM_RESUME control
    // epoch-boundary snapshots and crash recovery.
    let opts = TrainOptions::from_env();
    let (trained, report) = train_stsm_with(&problem, &cfg, &opts)?;
    println!(
        "done in {:.1}s; final epoch loss {:.4}",
        report.train_seconds,
        report.epoch_losses.last().copied().unwrap_or(f32::NAN)
    );
    if let Some(epoch) = report.resilience.resumed_from_epoch {
        println!("resumed from checkpoint at epoch {epoch}");
    }
    if !report.resilience.is_clean() {
        println!(
            "divergence guard: {} skipped batches, {} rollbacks, {} skipped epochs (lr scale {:.3})",
            report.resilience.skipped_batches,
            report.resilience.rollbacks,
            report.resilience.skipped_epochs.len(),
            report.resilience.lr_scale
        );
    }
    // Divergence the guard could not rescue is its own failure class: the
    // artifact would be written from a meaningless parameter state.
    let final_loss = report.epoch_losses.last().copied().unwrap_or(f32::NAN);
    if !final_loss.is_finite() || report.resilience.skipped_epochs.len() >= cfg.epochs {
        return Err(CliError::Diverged(format!(
            "training diverged: final loss {final_loss}, {} of {} epochs skipped by the guard",
            report.resilience.skipped_epochs.len(),
            cfg.epochs
        )));
    }
    std::fs::write(&out, trained.to_json()).map_err(|e| CliError::Io(format!("{out}: {e}")))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_evaluate(args: &[String], horizon_detail: bool) -> Result<(), CliError> {
    let problem = load_problem(args)?;
    let trained = load_model(args)?;
    if horizon_detail {
        let detail = evaluate_detailed(&trained, &problem)?;
        println!("overall: {}", detail.metrics);
        println!("\nper-horizon RMSE:");
        for (h, rmse) in detail.horizon.rmse_curve().iter().enumerate() {
            println!("  t+{:<3} {:.3}", h + 1, rmse);
        }
        let mut worst: Vec<(usize, f64)> = problem
            .unobserved
            .iter()
            .copied()
            .zip(detail.per_location_rmse.iter().copied())
            .collect();
        worst.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        println!("\nhardest unobserved locations:");
        for (loc, rmse) in worst.iter().take(5) {
            println!("  sensor {loc:<4} RMSE {rmse:.3}");
        }
    } else {
        let eval = evaluate_stsm(&trained, &problem)?;
        println!("{}", eval.metrics);
        if !eval.quality.is_clean() {
            println!(
                "input quality: {}/{} readings non-finite ({} blended, {} carried) across {} sensors",
                eval.quality.non_finite,
                eval.quality.scanned,
                eval.quality.imputed_blend,
                eval.quality.imputed_carry,
                eval.quality.affected_sensors.len()
            );
        }
    }
    Ok(())
}

/// In-process serving demo: streams the test period into the server's
/// ingest ring and requests a `Latest` forecast per step, printing the
/// service counters at the end. A stand-in for a network front-end — the
/// queueing, deadline, breaker and hot-swap machinery is identical.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let problem = Arc::new(load_problem(args)?);
    let trained = load_model(args)?;
    let steps: usize = num_flag(args, "--steps", 48)?;
    let serve_cfg = ServeConfig::from_env();
    let model = SharedModel::F32(Arc::new(trained));
    let t_in = model.cfg().t_in;
    println!(
        "serving {} with {} workers (queue depth {}, deadline {:?})",
        problem.dataset.name, serve_cfg.workers, serve_cfg.queue_depth, serve_cfg.default_deadline
    );
    let server = Server::start(Arc::clone(&problem), model, serve_cfg);
    let start = problem.test_time.start;
    let end = problem.test_time.end.min(start + t_in + steps);
    let mut served = 0u64;
    let mut imputed = 0usize;
    let mut worst_compute = std::time::Duration::ZERO;
    for t in start..end {
        let readings: Vec<f32> =
            problem.observed.iter().map(|&g| problem.scaled_value(g, t)).collect();
        server.ingest_step(&readings);
        if t + 1 < start + t_in {
            continue; // ring not warm yet
        }
        match server.submit(ForecastRequest::latest()) {
            Ok(pending) => match pending.wait() {
                Ok(resp) => {
                    served += 1;
                    imputed += resp.quality.imputed_blend + resp.quality.imputed_carry;
                    worst_compute = worst_compute.max(resp.compute);
                }
                Err(e) => eprintln!("step {t}: {e}"),
            },
            Err(e) => eprintln!("step {t}: rejected: {e}"),
        }
    }
    let stats = server.shutdown();
    println!(
        "served {served} forecasts over {} steps (worst compute {worst_compute:?}, {imputed} readings imputed)",
        end - start
    );
    println!(
        "counters: accepted {} completed {} deadline_exceeded {} overloaded {} breaker trips {}",
        stats.accepted,
        stats.completed,
        stats.deadline_exceeded,
        stats.overloaded,
        stats.breaker_trips
    );
    Ok(())
}

/// Online-adaptation demo: walks the test period window by window,
/// forecasting the unobserved region with the current weights and
/// fine-tuning on the replay horizon every few windows (knobs:
/// `STSM_ONLINE_REPLAY` / `STSM_ONLINE_LR_SCALE` / `STSM_ONLINE_REFRESH`).
/// Prints the per-window RMSE curve; `--out` saves the adapted model.
fn cmd_online(args: &[String]) -> Result<(), CliError> {
    let problem = load_problem(args)?;
    let trained = load_model(args)?;
    let online_cfg = OnlineConfig::from_env();
    let cfg = trained.cfg.clone();
    let mut online = OnlineTrainer::from_trained(&problem, &trained, online_cfg)?;
    let windows = sliding_windows(problem.test_time.len(), cfg.t_in, cfg.t_out, cfg.t_out);
    if windows.is_empty() {
        return Err(CliError::Usage(format!(
            "test period too short for one {}+{} window",
            cfg.t_in, cfg.t_out
        )));
    }
    println!(
        "streaming {} windows over {} (replay {}, lr scale {}, refresh every {})",
        windows.len(),
        problem.dataset.name,
        online.online_config().replay_windows,
        online.online_config().lr_scale,
        online.online_config().refresh_every
    );
    let mut current = online.trained()?;
    let mut fine_tunes = 0usize;
    for (wi, w) in windows.iter().enumerate() {
        let abs_start = problem.test_time.start + w.input_start;
        let mut predictor = Predictor::new(&current, &problem);
        let (pred, quality) = predictor.predict_window_checked(&problem, abs_start);
        let target_start = abs_start + cfg.t_in;
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for &u in &problem.unobserved {
            for k in 0..cfg.t_out {
                let truth = problem.dataset.value(u, target_start + k);
                if truth.is_finite() {
                    preds.push(problem.scaler.inverse(pred.at(&[u, k, 0])));
                    truths.push(truth);
                }
            }
        }
        let rmse = if preds.is_empty() { f64::NAN } else { Metrics::compute(&preds, &truths).rmse };
        let refreshed = (wi + 1) % online.online_config().refresh_every == 0;
        println!(
            "window {wi:>3} [t {target_start}..{}): rmse {rmse:.3}{}{}",
            target_start + cfg.t_out,
            if quality.is_clean() { "" } else { " (imputed inputs)" },
            if refreshed { "  → fine-tune" } else { "" }
        );
        if refreshed {
            let loss = online.fine_tune_epoch(&problem, target_start + cfg.t_out)?;
            if !loss.is_finite() {
                return Err(CliError::Diverged(format!(
                    "online fine-tune diverged at window {wi} (loss {loss})"
                )));
            }
            current = online.trained()?;
            fine_tunes += 1;
        }
    }
    println!("done: {fine_tunes} fine-tune epochs over {} windows", windows.len());
    if let Some(out) = flag(args, "--out") {
        std::fs::write(&out, current.to_json()).map_err(|e| CliError::Io(format!("{out}: {e}")))?;
        println!("wrote adapted model to {out}");
    }
    Ok(())
}
