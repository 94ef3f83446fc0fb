//! Bitwise Train/Infer equivalence for the full STSM model.
//!
//! For the same parameters, inputs and adjacencies, the tape-free Infer
//! forward (`predict_once` / `Predictor`) must produce values bit-identical
//! to the Train-mode forward (`tape.value(out.prediction)`), for both
//! temporal variants.

use std::sync::Arc;
use stsm_core::{
    predict_once, pseudo_weights_for, DistanceMode, DtwContext, Predictor, ProblemInstance,
    StModel, StsmConfig, TemporalModule,
};
use stsm_graph::{normalize_gcn, CsrLinMap};
use stsm_synth::{space_split, DatasetConfig, NetworkKind, SignalKind, SplitAxis};
use stsm_tensor::nn::Fwd;
use stsm_tensor::{ParamBinder, ParamStore, Tape, Tensor};
use stsm_timeseries::sliding_windows;

fn tiny_problem(seed: u64) -> ProblemInstance {
    let d = DatasetConfig {
        name: "tiny".into(),
        network: NetworkKind::Highway,
        sensors: 20,
        extent: 8_000.0,
        steps_per_day: 24,
        interval_minutes: 60,
        days: 8,
        kind: SignalKind::TrafficSpeed,
        latent_scale: 3_000.0,
        poi_radius: 300.0,
        seed,
    }
    .generate();
    let split = space_split(&d.coords, SplitAxis::Vertical, false);
    ProblemInstance::new(d, split, DistanceMode::Euclidean)
}

fn tiny_cfg() -> StsmConfig {
    StsmConfig {
        t_in: 6,
        t_out: 6,
        hidden: 8,
        blocks: 1,
        gcn_depth: 2,
        top_k: 8,
        ..Default::default()
    }
}

/// Full-graph test assets the way the evaluation path builds them.
fn test_assets(
    problem: &ProblemInstance,
    cfg: &StsmConfig,
) -> (Arc<CsrLinMap>, Arc<CsrLinMap>, Vec<f32>) {
    let n = problem.n();
    let all: Vec<usize> = (0..n).collect();
    let a_s =
        Arc::new(CsrLinMap::new(normalize_gcn(&problem.spatial_adjacency(&all, cfg.epsilon_s))));
    let dtw = DtwContext::with_options(
        problem,
        cfg.dtw_band,
        cfg.dtw_downsample,
        cfg.dtw_candidates,
        cfg.q_kk.max(cfg.q_ku),
    );
    let pw = pseudo_weights_for(problem, &problem.unobserved, &problem.observed);
    let a_dtw = Arc::new(CsrLinMap::new(normalize_gcn(&dtw.test_adjacency(
        n,
        &problem.observed,
        &problem.unobserved,
        &pw,
        cfg.q_kk,
        cfg.q_ku,
    ))));
    (a_s, a_dtw, pw)
}

/// A fresh untrained model's forward, Train vs Infer, must be bit-identical.
fn assert_model_equivalence(cfg: &StsmConfig) {
    let problem = tiny_problem(55);
    let (a_s, a_dtw, _) = test_assets(&problem, cfg);
    let mut store = ParamStore::new();
    let model = StModel::new(&mut store, cfg);
    let start = problem.test_time.start;
    let n = problem.n();
    let mut xv = Vec::with_capacity(n * cfg.t_in);
    for i in 0..n {
        xv.extend_from_slice(problem.scaled_range(i, start, start + cfg.t_in));
    }
    let x = Tensor::from_vec([n, cfg.t_in, 1], xv);
    let tf = StModel::time_features(start, cfg.t_in, problem.steps_per_day());
    let train_out = {
        let tape = Tape::new();
        let mut binder = ParamBinder::new(&tape);
        let mut fwd = Fwd::new(&store, &mut binder);
        let out = model.forward(&mut fwd, &x, &tf, &a_s, &a_dtw);
        tape.value(out.prediction)
    };
    let infer_out = predict_once(&model, &store, &x, &tf, &a_s, &a_dtw);
    assert_eq!(train_out.shape(), infer_out.shape());
    for (a, b) in train_out.data().iter().zip(infer_out.data()) {
        assert_eq!(a.to_bits(), b.to_bits(), "Train/Infer divergence");
    }
}

#[test]
fn stsm_tcn_forward_bitwise_identical_train_vs_infer() {
    assert_model_equivalence(&tiny_cfg());
}

#[test]
fn stsm_transformer_forward_bitwise_identical_train_vs_infer() {
    let mut cfg = tiny_cfg();
    cfg.temporal = TemporalModule::Transformer;
    assert_model_equivalence(&cfg);
}

#[test]
fn predictor_matches_predict_once_across_windows() {
    // The bind-once Predictor (reused session) must agree bit-for-bit with
    // fresh per-window `predict_once` calls over the whole test period.
    let problem = tiny_problem(56);
    let cfg = tiny_cfg();
    let (trained, _) = stsm_core::train_stsm(&problem, &cfg).expect("trains");
    let (a_s, a_dtw, _) = test_assets(&problem, &trained.cfg);
    let mut predictor = Predictor::new(&trained, &problem);
    let windows = sliding_windows(problem.test_time.len(), cfg.t_in, cfg.t_out, cfg.t_out);
    assert!(windows.len() >= 2, "need multiple windows to exercise session reuse");
    for w in &windows {
        let abs_start = problem.test_time.start + w.input_start;
        let from_predictor = predictor.predict_window(&problem, abs_start);
        // Rebuild the same input independently and run the one-shot path.
        let tf = StModel::time_features(abs_start, cfg.t_in, problem.steps_per_day());
        let x = {
            let pw = pseudo_weights_for(&problem, &problem.unobserved, &problem.observed);
            build_input(&problem, &pw, abs_start, cfg.t_in)
        };
        let oneshot = predict_once(trained.model_ref(), &trained.store, &x, &tf, &a_s, &a_dtw);
        assert_eq!(from_predictor.shape(), oneshot.shape());
        for (a, b) in from_predictor.data().iter().zip(oneshot.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "Predictor/predict_once divergence");
        }
    }
}

/// Test-time input, mirroring the evaluation path: real scaled values at
/// observed rows, pseudo-observations at unobserved rows.
fn build_input(problem: &ProblemInstance, pw: &[f32], start: usize, len: usize) -> Tensor {
    let n = problem.n();
    let mut data = vec![0.0f32; n * len];
    for &g in &problem.observed {
        data[g * len..(g + 1) * len].copy_from_slice(problem.scaled_range(g, start, start + len));
    }
    let mut sources = Vec::with_capacity(problem.observed.len() * len);
    for &g in &problem.observed {
        sources.extend_from_slice(problem.scaled_range(g, start, start + len));
    }
    let pseudo = stsm_core::blend_series(pw, &sources, problem.observed.len(), len);
    for (row, &u) in problem.unobserved.iter().enumerate() {
        data[u * len..(u + 1) * len].copy_from_slice(&pseudo[row * len..(row + 1) * len]);
    }
    Tensor::from_vec([n, len, 1], data)
}
