//! Times STSM test-time forecasting through the bind-once
//! [`stsm_core::Predictor`] on the PEMS-08 preset (400 sensors, 4 days, the
//! model fitted for 2 epochs first) with f32, f16 and bf16 parameter
//! storage, and writes `BENCH_infer.json` at the repository root. Per dtype
//! it times two sweeps over the test period:
//!
//! * **rolling** — every stride-1 window in turn, the pattern of serving's
//!   `Latest` requests: each window reuses the block steps the previous one
//!   computed (DESIGN.md, "Rolling reuse");
//! * **evaluate** — `evaluate_stsm`'s stride-`t_out` windows, which never
//!   overlap, so every window runs the full forward.
//!
//! Before anything is written it asserts, per dtype: each rolling forecast
//! is bitwise the cold forward of a fresh predictor; telemetry on and off
//! give the same bits; the rolling sweep reuses on every window but its
//! first and the evaluate sweep on none; a warm session takes no fresh
//! buffer. perfbench's `forecast-pems08` times the f32 rolling sweep; the
//! half-precision sessions are timed only here.
//!
//! ```bash
//! cargo run -p stsm-bench --release --bin bench_infer            # rewrites BENCH_infer.json
//! cargo run -p stsm-bench --release --bin bench_infer -- --smoke # 40 sensors, asserts only
//! ```

use serde_json::json;
use std::sync::Arc;
use std::time::Instant;
use stsm_core::{
    train_stsm, DistanceMode, InferAssets, Predictor, ProblemInstance, SharedModel, StsmConfig,
};
use stsm_synth::{presets, space_split, SplitAxis};
use stsm_tensor::{pool, simd, telemetry, DType};
use stsm_timeseries::sliding_windows;

/// Timed passes per sweep; the fastest counts.
const REPS: usize = 3;

/// Absolute window starts of the test period at `stride`.
fn starts(problem: &ProblemInstance, cfg: &StsmConfig, stride: usize) -> Vec<usize> {
    let test = &problem.test_time;
    sliding_windows(test.len(), cfg.t_in, cfg.t_out, stride)
        .iter()
        .map(|w| test.start + w.input_start)
        .collect()
}

/// Forecasts `starts` in order through `predictor`; the output bits.
fn sweep(predictor: &mut Predictor, problem: &ProblemInstance, starts: &[usize]) -> Vec<Vec<u32>> {
    starts
        .iter()
        .map(|&s| predictor.predict_window(problem, s).data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Counters one warm sweep moves, with telemetry on: its output bits and
/// `(fresh buffers, reuse hits, reuse misses, block-steps reused)`.
fn counted(
    model: &SharedModel,
    assets: &InferAssets,
    problem: &ProblemInstance,
    starts: &[usize],
) -> (Vec<Vec<u32>>, [u64; 4]) {
    telemetry::with_telemetry(true, || {
        let mut predictor = Predictor::new_shared_with_assets(model.clone(), assets);
        sweep(&mut predictor, problem, starts);
        telemetry::reset();
        let bits = sweep(&mut predictor, problem, starts);
        let names = ["alloc.fresh", "infer.reuse.hit", "infer.reuse.miss", "infer.reuse.steps"];
        (bits, names.map(telemetry::counter_value))
    })
}

/// Windows per second of the fastest of [`REPS`] warm sweeps.
fn timed(
    model: &SharedModel,
    assets: &InferAssets,
    problem: &ProblemInstance,
    starts: &[usize],
) -> f64 {
    let mut predictor = Predictor::new_shared_with_assets(model.clone(), assets);
    sweep(&mut predictor, problem, starts);
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            sweep(&mut predictor, problem, starts);
            starts.len() as f64 / t0.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sensors, days, epochs) = if smoke { (40, 2, 1) } else { (400, 4, 2) };
    let dataset = presets::pems_08(sensors, days, 1).generate();
    let split = space_split(&dataset.coords, SplitAxis::Vertical, false);
    let problem = ProblemInstance::new(dataset, split, DistanceMode::Euclidean);
    let cfg = StsmConfig { epochs, seed: 1, ..StsmConfig::default() }.for_dataset("PEMS-08");
    let (trained, _) = train_stsm(&problem, &cfg).expect("the PEMS-08 fit succeeds");
    let trained = Arc::new(trained);
    let assets = InferAssets::new(&cfg, &problem);
    let rolling = starts(&problem, &cfg, 1);
    let evaluate = starts(&problem, &cfg, cfg.t_out);
    let (nproc, threads) =
        (std::thread::available_parallelism().map_or(1, |n| n.get()), pool::num_threads());
    println!(
        "STSM Predictor, PEMS-08 {sensors} sensors, {} rolling and {} evaluate windows, \
         nproc {nproc}, pool threads {threads}, {:?}\n",
        rolling.len(),
        evaluate.len(),
        simd::level()
    );
    stsm_bench::reset_peak_rss();
    let mut rows = serde_json::Map::new();
    for dt in [DType::F32, DType::F16, DType::Bf16] {
        let model = if dt.is_half() {
            SharedModel::Quantized(Arc::new(trained.quantize(dt)))
        } else {
            SharedModel::F32(Arc::clone(&trained))
        };
        let param_bytes = match &model {
            SharedModel::F32(t) => t.store.storage_bytes(),
            SharedModel::Quantized(q) => q.store().storage_bytes(),
        };
        let name = dt.name();
        // Contracts first: rolling == cold, telemetry-invisible, reuse on
        // every overlapping window only, and a warm session allocates
        // nothing fresh.
        let mut predictor = Predictor::new_shared_with_assets(model.clone(), &assets);
        let bits = telemetry::with_telemetry(false, || sweep(&mut predictor, &problem, &rolling));
        for (s, got) in rolling.iter().zip(&bits) {
            let mut cold = Predictor::new_shared_with_assets(model.clone(), &assets);
            assert_eq!(&sweep(&mut cold, &problem, &[*s])[0], got, "{name}: window {s} != cold");
        }
        let (bits_on, [fresh, hits, misses, steps]) = counted(&model, &assets, &problem, &rolling);
        assert_eq!(bits_on, bits, "{name}: telemetry changed a rolling forecast");
        assert_eq!((hits, misses), (rolling.len() as u64 - 1, 1), "{name}: rolling reuse");
        assert_eq!(fresh, 0, "{name}: a warm rolling sweep allocated fresh buffers");
        let (_, [eval_fresh, eval_hits, ..]) = counted(&model, &assets, &problem, &evaluate);
        assert_eq!((eval_fresh, eval_hits), (0, 0), "{name}: the evaluate sweep reused");

        let rolling_wps = timed(&model, &assets, &problem, &rolling);
        let evaluate_wps = timed(&model, &assets, &problem, &evaluate);
        let speedup = rolling_wps / evaluate_wps;
        let steps_per_window = steps as f64 / rolling.len() as f64;
        println!(
            "{name:<5} rolling {rolling_wps:>8.1} windows/s ({:.2} ms)   evaluate \
             {evaluate_wps:>8.1} windows/s ({:.2} ms)   {speedup:.2}x   block-steps reused/window \
             {steps_per_window:.1}   param bytes {param_bytes}",
            1e3 / rolling_wps,
            1e3 / evaluate_wps,
        );
        rows.insert(
            name.to_string(),
            json!({
                "param_bytes": param_bytes,
                "rolling": {
                    "windows_per_sec": rolling_wps,
                    "ms_per_window": 1e3 / rolling_wps,
                    "reuse_hits": hits,
                    "reuse_misses": misses,
                    "block_steps_reused_per_window": steps_per_window,
                    "fresh_allocs_per_window": fresh as f64 / rolling.len() as f64,
                },
                "evaluate": {
                    "windows_per_sec": evaluate_wps,
                    "ms_per_window": 1e3 / evaluate_wps,
                    "fresh_allocs_per_window": eval_fresh as f64 / evaluate.len() as f64,
                },
                "rolling_vs_evaluate": speedup,
            }),
        );
    }
    let report = json!({
        "workload": format!(
            "STSM Predictor on the PEMS-08 preset ({sensors} sensors, {days} days, fitted \
             {epochs} epochs at seed 1): a stride-1 rolling sweep ({} windows) and \
             evaluate_stsm's stride-{} sweep ({} windows) of the test period per dtype",
            rolling.len(),
            cfg.t_out,
            evaluate.len()
        ),
        "nproc": nproc,
        "pool_threads": threads,
        "simd": format!("{:?}", simd::level()),
        "peak_rss_bytes": stsm_bench::peak_rss_bytes(),
        "note": "windows/s is the fastest of 3 warm sweeps with telemetry off. Asserted before \
                 writing, per dtype: every rolling forecast bitwise equals a fresh predictor's \
                 cold forward; telemetry on/off bitwise equal; the rolling sweep reuses on every \
                 window but the first and the evaluate sweep on none; a warm session takes no \
                 fresh buffer. Half dtypes store the weights in 16 bits and compute in f32.",
        "dtypes": serde_json::Value::Object(rows),
    });
    if smoke {
        println!("\nsmoke run: BENCH_infer.json left untouched");
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_infer.json");
        std::fs::write(path, serde_json::to_string_pretty(&report).expect("serialize report"))
            .expect("write BENCH_infer.json");
        println!("\nwrote {path}");
    }
}
