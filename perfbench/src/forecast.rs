//! `forecast-pems08`: full-graph test-time forecasts on the PEMS-08 preset
//! (400 sensors). One op is one `Predictor::predict_window_checked` call
//! in f32, over every stride-1 test window in turn.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{
    build_problem, fingerprint, model_cfg, push_unobserved_errors, repeat_setup, sized, Outcome,
    ProbeCtx, RunSpec,
};
use std::sync::Arc;
use std::time::Instant;
use stsm_core::{train_stsm_with, DataQuality, Predictor, SharedModel, TrainOptions};
use stsm_synth::presets;
use stsm_tensor::telemetry;
use stsm_timeseries::{sliding_windows, Metrics};

const SENSORS: usize = 400;
/// Simulated days of PEMS-08 data (288 steps a day).
const DAYS: usize = 4;
/// Epochs of the fit that produces the served weights (set-up only).
const FIT_EPOCHS: usize = 2;
/// Windows per throughput slice.
const SLICE: usize = 16;

pub fn run(spec: &RunSpec, tracer: &Tracer) -> Outcome {
    let preset = sized(presets::pems_08(SENSORS, DAYS, spec.seed), spec.size);
    let cfg = model_cfg("PEMS-08", spec.size, spec.seed, FIT_EPOCHS);
    let (setup_s, (problem, model, mut predictor, starts)) = repeat_setup(spec.setup_reps, || {
        let root = tracer.open("setup", 0, None);
        let problem = Arc::new(build_problem(&preset, tracer, root));
        let (trained, _) = tracer
            .scope("core.fit", 0, root, || {
                train_stsm_with(&problem, &cfg, &TrainOptions::default())
            })
            .expect("the fit on generated PEMS-08 data must succeed");
        let model = Arc::new(trained);
        let mut predictor = tracer.scope("core.predictor_new", 0, root, || {
            Predictor::new_shared(SharedModel::F32(Arc::clone(&model)), &problem)
        });
        let test = &problem.test_time;
        let starts: Vec<usize> = sliding_windows(test.len(), cfg.t_in, cfg.t_out, 1)
            .iter()
            .map(|w| test.start + w.input_start)
            .collect();
        // The untimed warm-up op.
        tracer.scope("core.predict_window", 0, root, || {
            predictor.predict_window_checked(&problem, starts[0])
        });
        tracer.close(root);
        (problem, model, predictor, starts)
    });

    let n_windows = starts.len();
    let mut first_pass = Vec::with_capacity(n_windows);
    let (mut preds, mut truths) = (Vec::new(), Vec::new());
    let mut quality = DataQuality::default();
    let (mut latency_s, mut done_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut all_finite, mut all_repeat_equal) = (true, true);
    telemetry::reset();
    let t0 = Instant::now();
    // Measure for the run's length, and at least two full passes: the first
    // gives the RMSE over the same windows every run, the second re-forecasts
    // each of them.
    while (attempted as usize) < 2 * n_windows || t0.elapsed().as_secs_f64() < spec.seconds {
        let i = attempted as usize % n_windows;
        attempted += 1;
        let s = Instant::now();
        let (pred, q) = tracer.scope("core.predict_window", attempted, None, || {
            predictor.predict_window_checked(&problem, starts[i])
        });
        latency_s.push(s.elapsed().as_secs_f64());
        done_s.push(t0.elapsed().as_secs_f64());
        let data = pred.data();
        let finite = data.iter().all(|v| v.is_finite());
        let fp = fingerprint(data);
        let mut ok = finite;
        if first_pass.len() < n_windows {
            first_pass.push(fp);
            let target = starts[i] + cfg.t_in;
            push_unobserved_errors(&problem, data, cfg.t_out, target, &mut preds, &mut truths);
        } else {
            ok &= fp == first_pass[i];
            all_repeat_equal &= fp == first_pass[i];
        }
        all_finite &= finite;
        quality.merge(&q);
        if !ok {
            failed += 1;
        }
    }
    let telemetry = telemetry::snapshot();
    let checks =
        vec![("forecasts finite", all_finite), ("re-forecast bitwise equal", all_repeat_equal)];
    let rmse = Metrics::compute(&preds, &truths).rmse;

    let layer = vec![
        ("core.predict_window_ms_p50", median(&latency_s) * 1e3),
        ("core.predict_window_ms_p99", percentile(&latency_s, 0.99) * 1e3),
        ("core.predict_window_samples", latency_s.len() as f64),
        ("core.imputed_share", imputed_share(&quality)),
    ];
    Outcome {
        setup_s,
        busy_s: latency_s.iter().sum(),
        latency_s,
        done_s,
        work_per_op: 1.0,
        ops_per_slice: SLICE,
        rmse,
        attempted,
        failed,
        checks,
        layer,
        telemetry,
        probe: ProbeCtx { nodes: (0..problem.n()).collect(), problem, cfg, model },
    }
}

/// Share of scanned observed readings the predictor had to impute.
pub fn imputed_share(q: &DataQuality) -> f64 {
    let imputed = q.imputed_blend + q.imputed_carry + q.unrecoverable;
    if q.scanned == 0 {
        0.0
    } else {
        imputed as f64 / q.scanned as f64
    }
}
