//! Online-adaptation benchmark — writes `BENCH_online.json` at the
//! repository root.
//!
//! **Accuracy over time.** For each scripted scenario ({region growth,
//! sensor churn, regime shift} from [`ScenarioPlan`]) the disturbed stream
//! is forecast window by window by an STSM model that fine-tunes online
//! every few windows, and by the time-of-day historical-average baseline.
//! Both per-window RMSE curves (scored against the clean ground truth) land
//! in the report.
//!
//! ```bash
//! cargo run -p stsm-bench --release --bin bench_online            # full run
//! cargo run -p stsm-bench --release --bin bench_online -- --smoke # seconds
//! ```

use serde_json::{json, Value};
use stsm_bench::Scale;
use stsm_core::{
    train_stsm, DistanceMode, OnlineConfig, OnlineTrainer, Predictor, ProblemInstance, StsmConfig,
};
use stsm_synth::{space_split, test_support, ScenarioKind, ScenarioPlan, SplitAxis};
use stsm_timeseries::{sliding_windows, Metrics};

const TOP_Q: usize = 8;
const SEED: u64 = 4242;

struct Curves {
    kind: ScenarioKind,
    change_points: Vec<usize>,
    stsm: Vec<f64>,
    baseline: Vec<f64>,
    fine_tune_epochs: usize,
}

fn scenario_cfg(sensors: usize) -> StsmConfig {
    StsmConfig {
        t_in: 6,
        t_out: 6,
        hidden: 8,
        blocks: 1,
        gcn_depth: 2,
        epochs: 2,
        windows_per_epoch: 8,
        batch_windows: 4,
        top_k: TOP_Q.min(sensors / 2),
        seed: SEED,
        ..Default::default()
    }
}

/// Builds the disturbed stream for `kind`, trains STSM on it, then walks
/// the test period window by window collecting both accuracy curves.
fn run_scenario(kind: ScenarioKind, sensors: usize, days: usize) -> Curves {
    let dataset = test_support::tiny_dataset_sized("bench-online", SEED, sensors, days);
    let split = space_split(&dataset.coords, SplitAxis::Vertical, false);
    let clean = ProblemInstance::new(dataset.clone(), split.clone(), DistanceMode::Euclidean);
    let plan = ScenarioPlan::new(kind, SEED, dataset.n, dataset.t_total, clean.test_time.clone());
    let mut streamed = dataset;
    for s in 0..streamed.n {
        for t in clean.test_time.clone() {
            let v = streamed.values[s * streamed.t_total + t];
            streamed.values[s * streamed.t_total + t] = plan.reading(s, t, v);
        }
    }
    let disturbed = ProblemInstance::new(streamed, split, DistanceMode::Euclidean);

    let cfg = scenario_cfg(sensors);
    let (trained, _) = train_stsm(&disturbed, &cfg).expect("trains");
    let online_cfg = OnlineConfig { replay_windows: 24, lr_scale: 0.25, refresh_every: 2 };
    let mut online = OnlineTrainer::from_trained(&disturbed, &trained, online_cfg).expect("wraps");
    let epochs_at_start = online.epochs_done();

    let windows = sliding_windows(disturbed.test_time.len(), cfg.t_in, cfg.t_out, cfg.t_out);
    let mut current = online.trained().expect("snapshot");
    let mut stsm = Vec::with_capacity(windows.len());
    for (wi, w) in windows.iter().enumerate() {
        let abs_start = disturbed.test_time.start + w.input_start;
        let mut predictor = Predictor::new(&current, &disturbed);
        let (pred, _quality) = predictor.predict_window_checked(&disturbed, abs_start);
        let target_start = abs_start + cfg.t_in;
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for &u in &disturbed.unobserved {
            for p in 0..cfg.t_out {
                preds.push(disturbed.scaler.inverse(pred.at(&[u, p, 0])));
                truths.push(clean.dataset.value(u, target_start + p));
            }
        }
        stsm.push(Metrics::compute(&preds, &truths).rmse);
        if (wi + 1) % online.online_config().refresh_every == 0 {
            let now = target_start + cfg.t_out;
            let _ = online.fine_tune_epoch(&disturbed, now).expect("fine-tunes");
            current = online.trained().expect("refreshed snapshot");
        }
    }

    // Time-of-day historical average of the observed training readings.
    let spd = disturbed.steps_per_day();
    let mut tod_sum = vec![0.0f64; spd];
    let mut tod_cnt = vec![0usize; spd];
    for &g in &disturbed.observed {
        for t in disturbed.train_time.clone() {
            let v = disturbed.dataset.value(g, t);
            if v.is_finite() {
                tod_sum[t % spd] += v as f64;
                tod_cnt[t % spd] += 1;
            }
        }
    }
    let tod_mean: Vec<f32> = tod_sum
        .iter()
        .zip(&tod_cnt)
        .map(|(&s, &c)| if c > 0 { (s / c as f64) as f32 } else { 0.0 })
        .collect();
    let baseline: Vec<f64> = windows
        .iter()
        .map(|w| {
            let target_start = disturbed.test_time.start + w.input_start + cfg.t_in;
            let mut preds = Vec::new();
            let mut truths = Vec::new();
            for &u in &disturbed.unobserved {
                for k in 0..cfg.t_out {
                    preds.push(tod_mean[(target_start + k) % spd]);
                    truths.push(clean.dataset.value(u, target_start + k));
                }
            }
            Metrics::compute(&preds, &truths).rmse
        })
        .collect();

    let fine_tune_epochs = online.epochs_done() - epochs_at_start;
    assert!(stsm.iter().chain(&baseline).all(|v| v.is_finite()), "{}: curve", kind.name());
    println!(
        "{:<12} {} windows, {} fine-tune epochs — STSM RMSE first {:.3} last {:.3}, \
         baseline first {:.3} last {:.3}",
        kind.name(),
        stsm.len(),
        fine_tune_epochs,
        stsm.first().unwrap(),
        stsm.last().unwrap(),
        baseline.first().unwrap(),
        baseline.last().unwrap()
    );
    Curves { kind, change_points: plan.change_points(), stsm, baseline, fine_tune_epochs }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke") || Scale::from_env() == Scale::Smoke;
    // Scenarios: (population, day span).
    let (sc_n, sc_days) = if smoke { (24, 8) } else { (48, 8) };
    println!(
        "online adaptation bench (top-{TOP_Q}, seed {SEED}){}\n",
        if smoke { " — smoke sizes" } else { "" }
    );

    let scenarios: Vec<Curves> =
        ScenarioKind::ALL.iter().map(|&k| run_scenario(k, sc_n, sc_days)).collect();

    let scenario_values: Vec<Value> = scenarios
        .iter()
        .map(|c| {
            json!({
                "kind": c.kind.name(),
                "change_points": c.change_points,
                "fine_tune_epochs": c.fine_tune_epochs,
                "stsm_rmse": c.stsm,
                "baseline_rmse": c.baseline,
            })
        })
        .collect();
    let report = json!({
        "workload": format!(
            "per-window RMSE curves for scripted growth/churn/regime-shift scenarios \
             (top-{TOP_Q}; STSM with online fine-tuning vs time-of-day historical \
             average, scored against clean truth)"
        ),
        "smoke": smoke,
        "threads": stsm_tensor::pool::num_threads(),
        "host_cpus": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "online_config": { "replay_windows": 24, "lr_scale": 0.25, "refresh_every": 2 },
        "scenarios": scenario_values,
    });
    if smoke {
        println!("\nsmoke run: BENCH_online.json left untouched");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_online.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).expect("serialize report"))
        .expect("write BENCH_online.json");
    println!("\nwrote {path}");
}
