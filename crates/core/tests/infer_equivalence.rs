//! Bitwise Train/Infer equivalence for the full STSM model.
//!
//! For the same parameters, inputs and adjacencies, the forward-only Infer
//! forward (`predict_once` / `Predictor`) must produce values bit-identical
//! to the Train-mode forward (`tape.value(out.prediction)`), for both
//! temporal variants. The fused gated-GCN node is held to the composed
//! model (`StModel::forward_reference`) the same way: a full training
//! batch's loss and gradients, and the forecast. The readout pass
//! (`StModel::forward_readout`) is held to the full forward's graph
//! representation likewise, as the contrastive full view of such a batch.

use std::sync::Arc;
use stsm_core::{
    nt_xent, predict_once, pseudo_weights_for, DistanceMode, DtwContext, ForwardOutput, Predictor,
    ProblemInstance, StModel, StsmConfig, TemporalModule,
};
use stsm_graph::{normalize_gcn, CsrLinMap};
use stsm_synth::{space_split, DatasetConfig, NetworkKind, SignalKind, SplitAxis};
use stsm_tensor::nn::Fwd;
use stsm_tensor::{pool, simd, InferSession, ParamBinder, ParamStore, Tape, Tensor};
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

/// The `(N, len, 1)` scaled input of every sensor over `[start, start + len)`.
fn full_input(problem: &ProblemInstance, start: usize, len: usize) -> Tensor {
    let mut xv = Vec::with_capacity(problem.n() * len);
    for i in 0..problem.n() {
        xv.extend_from_slice(problem.scaled_range(i, start, start + len));
    }
    Tensor::from_vec([problem.n(), len, 1], xv)
}

fn bit_vec(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// One STSM training batch on one tape — per window a masked and a full
/// forward, the mean prediction loss plus the contrastive term — then the
/// Infer forecast of the first window. Runs the fused GCN node, or the
/// composed chain when `composed`; the full view's graph representation
/// comes from `StModel::forward_readout` when `readout`, else from the
/// full forward. Returns the loss bits, every parameter gradient's bits and
/// the forecast bits.
fn stsm_batch(
    problem: &ProblemInstance,
    cfg: &StsmConfig,
    model: &StModel,
    store: &ParamStore,
    composed: bool,
    readout: bool,
) -> (u32, Vec<Vec<u32>>, Vec<u32>) {
    let (a_s, a_dtw, _) = test_assets(problem, cfg);
    let spd = problem.steps_per_day();
    let forward = |fwd: &mut Fwd, x: &Tensor, tf: &Tensor| -> ForwardOutput {
        if composed {
            model.forward_reference(fwd, x, tf, &a_s, &a_dtw)
        } else {
            model.forward(fwd, x, tf, &a_s, &a_dtw)
        }
    };
    let starts: Vec<usize> = (0..3).map(|w| problem.train_time.start + w * cfg.t_in).collect();
    let tape = Tape::new();
    let mut binder = ParamBinder::new(&tape);
    let mut fwd = Fwd::new(store, &mut binder);
    let (mut losses, mut z_orig, mut z_masked) = (Vec::new(), Vec::new(), Vec::new());
    for &start in &starts {
        let x = full_input(problem, start, cfg.t_in);
        // Mask every third sensor to zero, the way a masked window hides
        // its selected rows.
        let mut xm = x.clone();
        for (i, v) in xm.data_mut().iter_mut().enumerate() {
            if (i / cfg.t_in).is_multiple_of(3) {
                *v = 0.0;
            }
        }
        let y = full_input(problem, start + cfg.t_in, cfg.t_out);
        let tf = StModel::time_features(start, cfg.t_in, spd);
        let out_m = forward(&mut fwd, &xm, &tf);
        losses.push(tape.mse_loss(out_m.prediction, &y));
        z_orig.push(if readout {
            model.forward_readout(&mut fwd, &x, &tf, &a_s, &a_dtw)
        } else {
            forward(&mut fwd, &x, &tf).graph_repr
        });
        z_masked.push(out_m.graph_repr);
    }
    let mut loss = losses[0];
    for &l in &losses[1..] {
        loss = tape.add(loss, l);
    }
    loss = tape.mul_scalar(loss, 1.0 / losses.len() as f32);
    let zo = tape.concat(&z_orig, 0);
    let zm = tape.concat(&z_masked, 0);
    let lcl = nt_xent(&tape, zo, zm, cfg.tau);
    let lcl = tape.mul_scalar(lcl, cfg.lambda);
    loss = tape.add(loss, lcl);
    tape.backward(loss);
    let grads = binder.grads();
    assert_eq!(grads.len(), store.len(), "every parameter must receive a gradient");
    let grads = grads.iter().map(|(_, g)| bit_vec(g)).collect();
    let loss_bits = tape.value(loss).item().to_bits();
    let forecast = {
        let mut session = InferSession::new(store);
        let mut ifwd = Fwd::infer(store, &mut session);
        let x = full_input(problem, starts[0], cfg.t_in);
        let tf = StModel::time_features(starts[0], cfg.t_in, spd);
        let out = forward(&mut ifwd, &x, &tf);
        bit_vec(&ifwd.value(out.prediction))
    };
    (loss_bits, grads, forecast)
}

/// The fused gated-GCN node against the composed model, with small GCN
/// products (`hidden` 8, 6 steps) and larger ones (`hidden` 16, 12 steps),
/// at every SIMD level and at 1 and 3 threads.
#[test]
fn fused_gcn_stsm_batch_bitwise_matches_composed_model() {
    let problem = tiny_problem(57);
    let large = StsmConfig { t_in: 12, t_out: 12, hidden: 16, ..tiny_cfg() };
    for cfg in [tiny_cfg(), large] {
        let (a_s, a_dtw, _) = test_assets(&problem, &cfg);
        assert!(a_s.is_symmetric(), "the normalized A_s is its own transpose");
        assert!(!a_dtw.is_symmetric(), "the directed A_dtw keeps its own transpose");
        let (model, store) = model_with_biases(&cfg);
        for lvl in simd::supported_levels() {
            let reference =
                simd::with_level(lvl, || stsm_batch(&problem, &cfg, &model, &store, true, false));
            for threads in [1, 3] {
                let fused = pool::with_max_threads(threads, || {
                    simd::with_level(lvl, || {
                        stsm_batch(&problem, &cfg, &model, &store, false, false)
                    })
                });
                let what = format!("hidden {}, {lvl:?}, {threads} threads", cfg.hidden);
                assert_eq!(fused.0, reference.0, "loss differs: {what}");
                assert_eq!(fused.1, reference.1, "parameter gradients differ: {what}");
                assert_eq!(fused.2, reference.2, "forecast differs: {what}");
            }
        }
    }
}

/// A fresh model whose biases all carry values: layers initialize them to
/// zero, and a dropped or swapped bias must show.
fn model_with_biases(cfg: &StsmConfig) -> (StModel, ParamStore) {
    let mut store = ParamStore::new();
    let model = StModel::new(&mut store, cfg);
    let biases: Vec<_> =
        store.iter().filter(|(_, name, _)| name.ends_with(".b")).map(|(id, _, _)| id).collect();
    for (j, id) in biases.into_iter().enumerate() {
        for (i, v) in store.data_mut(id).iter_mut().enumerate() {
            *v = ((i * 7 + j * 13) % 17) as f32 * 0.02 - 0.16;
        }
    }
    (model, store)
}

/// The readout pass (`StModel::forward_readout`) as the contrastive full
/// view, against the full forward's `graph_repr` on the same tape: equal
/// loss bits and parameter-gradient bits. Covers small products (`hidden`
/// 8, 6 steps) and larger ones (`hidden` 16, 12 steps), 1 and 3 blocks,
/// 24 steps (dilations at their cap of `T/2`, so more taps fall before
/// step 0), and the transformer variant (full step set), at every SIMD
/// level and at 1 and 3 threads. The pruned products cover a fraction of
/// the full-length products' rows, and must reproduce those rows bitwise.
#[test]
fn readout_pass_stsm_batch_bitwise_matches_full_forward() {
    let problem = tiny_problem(58);
    let small = tiny_cfg();
    let large = StsmConfig { t_in: 12, t_out: 12, hidden: 16, ..tiny_cfg() };
    let configs = [
        small.clone(),
        StsmConfig { blocks: 3, ..small.clone() },
        large.clone(),
        StsmConfig { blocks: 2, ..large.clone() },
        StsmConfig { blocks: 3, ..large },
        StsmConfig { t_in: 24, t_out: 24, blocks: 3, ..small.clone() },
        StsmConfig { temporal: TemporalModule::Transformer, ..small },
    ];
    for cfg in configs {
        let (model, store) = model_with_biases(&cfg);
        for lvl in simd::supported_levels() {
            let full =
                simd::with_level(lvl, || stsm_batch(&problem, &cfg, &model, &store, false, false));
            for threads in [1, 3] {
                let pruned = pool::with_max_threads(threads, || {
                    simd::with_level(lvl, || {
                        stsm_batch(&problem, &cfg, &model, &store, false, true)
                    })
                });
                let what = format!(
                    "hidden {}, T {}, {} blocks, {:?}, {lvl:?}, {threads} threads",
                    cfg.hidden, cfg.t_in, cfg.blocks, cfg.temporal
                );
                assert_eq!(pruned.0, full.0, "loss differs: {what}");
                assert_eq!(pruned.1, full.1, "parameter gradients differ: {what}");
            }
        }
    }
}
