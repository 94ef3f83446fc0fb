//! `train-pemsbay`: repeated full STSM fits (selective masking +
//! contrastive loss) on the PEMS-Bay preset. One op is one
//! `train_stsm_with` fit of a fixed epoch count.

use crate::trace::Tracer;
use crate::workload::{
    build_problem, fingerprint, model_cfg, repeat_setup, sized, Outcome, ProbeCtx, RunSpec,
};
use std::sync::Arc;
use std::time::Instant;
use stsm_core::{evaluate_stsm, train_stsm_with, TrainOptions, TrainReport, TrainedStsm};
use stsm_synth::presets;
use stsm_tensor::telemetry;

/// Simulated days of PEMS-Bay data (288 steps a day).
const DAYS: usize = 4;
/// Epochs per fit.
const EPOCHS: usize = 2;

/// Fingerprint of a fit: every parameter's bits and every epoch loss's bits.
fn fit_fingerprint(trained: &TrainedStsm, report: &TrainReport) -> u64 {
    let mut bits: Vec<f32> = report.epoch_losses.clone();
    for (_, _, t) in trained.store.iter() {
        bits.extend_from_slice(t.data());
    }
    fingerprint(&bits)
}

pub fn run(spec: &RunSpec, tracer: &Tracer) -> Outcome {
    let preset = sized(presets::pems_bay(DAYS, spec.seed), spec.size);
    let cfg = model_cfg("PEMS-Bay", spec.size, spec.seed, EPOCHS);
    let opts = TrainOptions::default();
    let (setup_s, (problem, warm, warm_report)) = repeat_setup(spec.setup_reps, || {
        let root = tracer.open("setup", 0, None);
        let problem = build_problem(&preset, tracer, root);
        // The untimed warm-up op.
        let (trained, report) = tracer
            .scope("core.fit", 0, root, || train_stsm_with(&problem, &cfg, &opts))
            .expect("the warm-up fit on generated PEMS-Bay data must succeed");
        tracer.close(root);
        (problem, trained, report)
    });
    let mut checks =
        vec![("epoch losses finite", warm_report.epoch_losses.iter().all(|l| l.is_finite()))];
    let warm_fp = fit_fingerprint(&warm, &warm_report);

    let windows_per_fit = (cfg.epochs * cfg.windows_per_epoch) as f64;
    let (mut latency_s, mut done_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut all_finite, mut all_identical) = (true, true);
    let mut last = None;
    telemetry::reset();
    let t0 = Instant::now();
    while attempted == 0 || t0.elapsed().as_secs_f64() < spec.seconds {
        attempted += 1;
        let s = Instant::now();
        let fit =
            tracer.scope("core.fit", attempted, None, || train_stsm_with(&problem, &cfg, &opts));
        latency_s.push(s.elapsed().as_secs_f64());
        done_s.push(t0.elapsed().as_secs_f64());
        match fit {
            Ok((trained, report)) => {
                let finite = report.epoch_losses.iter().all(|l| l.is_finite());
                let identical = fit_fingerprint(&trained, &report) == warm_fp;
                all_finite &= finite;
                all_identical &= identical;
                if !(finite && identical) {
                    failed += 1;
                }
                last = Some(trained);
            }
            Err(_) => failed += 1,
        }
    }
    let telemetry = telemetry::snapshot();
    checks[0].1 &= all_finite;
    checks.push(("repeated fits bitwise identical", all_identical));

    let rmse_of = |trained: &TrainedStsm, op: u64| {
        tracer
            .scope("core.evaluate", op, None, || evaluate_stsm(trained, &problem))
            .expect("evaluating a fitted model on its own problem must succeed")
            .metrics
            .rmse
    };
    let rmse = rmse_of(&warm, 0);
    let last_rmse = last.as_ref().map_or(f64::NAN, |t| rmse_of(t, attempted));
    let rmse_identical = rmse.to_bits() == last_rmse.to_bits();
    checks.push(("repeated fits give bitwise-identical rmse", rmse_identical));
    if !rmse_identical {
        failed += 1;
    }

    let nodes = problem.observed.clone();
    Outcome {
        setup_s,
        busy_s: latency_s.iter().sum(),
        latency_s,
        done_s,
        work_per_op: windows_per_fit,
        ops_per_slice: 1,
        rmse,
        attempted,
        failed,
        checks,
        layer: Vec::new(),
        telemetry,
        probe: ProbeCtx { problem: Arc::new(problem), cfg, nodes, model: Arc::new(warm) },
    }
}
