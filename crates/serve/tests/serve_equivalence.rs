//! Equivalence suite: serving must change *where* forecasts are computed,
//! never *what* they are.
//!
//! * The telemetry gate is bitwise invisible: a served forecast with
//!   `STSM_TELEMETRY` on equals one with it off, bit for bit; with it on,
//!   each served request records `serve.request`, `serve.queue_wait` and
//!   `serve.compute`.
//! * A served window forecast equals the direct batch-path
//!   [`Predictor`](stsm_core::Predictor) forecast, bit for bit — for the
//!   f32 pool, the quantized pool, and across hot-swaps in both directions.
//! * Hot-swap compatibility: a `QuantizedStsm` swaps over a running f32
//!   pool and vice versa (same config fingerprint); a checkpoint with a
//!   different fingerprint is rejected and the old model keeps serving.
//! * Rolling reuse across a hot-swap: a stride-1 sweep of window requests,
//!   which each worker's predictor answers from its previous window, swaps
//!   the model halfway and still answers exactly like a fresh predictor of
//!   whichever model served each request.
//! * Graceful drain: `begin_drain` rejects new work with `ShuttingDown`
//!   while everything already queued still completes.

use std::sync::Arc;
use stsm_core::{
    train_stsm, DistanceMode, InferAssets, OnlineConfig, OnlineTrainer, Predictor, ProblemInstance,
    StsmConfig, TrainedStsm,
};
use stsm_serve::{ForecastRequest, ServeConfig, ServeError, Server, SharedModel};
use stsm_synth::{space_split, SplitAxis};
use stsm_tensor::{telemetry, DType};

fn tiny_dataset(seed: u64) -> stsm_synth::Dataset {
    stsm_synth::test_support::tiny_dataset("serve-eq", seed)
}

fn tiny_cfg(seed: u64) -> StsmConfig {
    StsmConfig {
        t_in: 6,
        t_out: 6,
        hidden: 8,
        blocks: 1,
        gcn_depth: 2,
        epochs: 4,
        windows_per_epoch: 8,
        batch_windows: 4,
        top_k: 8,
        seed,
        ..Default::default()
    }
}

fn bits(t: &stsm_tensor::Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn setup(seed: u64) -> (Arc<ProblemInstance>, StsmConfig, Arc<TrainedStsm>) {
    let dataset = tiny_dataset(seed);
    let split = space_split(&dataset.coords, SplitAxis::Vertical, false);
    let p = Arc::new(ProblemInstance::new(dataset, split, DistanceMode::Euclidean));
    let cfg = tiny_cfg(seed);
    let (trained, _) = train_stsm(&p, &cfg).expect("trains");
    (p, cfg, Arc::new(trained))
}

/// Serves one `Latest` and one `Window` forecast on a fresh single-worker
/// server and returns the concatenated output bits.
fn serve_once(p: &Arc<ProblemInstance>, model: SharedModel, t_in: usize) -> Vec<u32> {
    let server =
        Server::start(Arc::clone(p), model, ServeConfig { workers: 1, ..ServeConfig::default() });
    for t in 0..t_in {
        let step: Vec<f32> = p.observed.iter().map(|&g| p.scaled_value(g, t)).collect();
        server.ingest_step(&step);
    }
    let latest =
        server.submit(ForecastRequest::latest()).expect("admitted").wait().expect("latest");
    let window = server
        .submit(ForecastRequest::window(p.test_time.start))
        .expect("admitted")
        .wait()
        .expect("window");
    assert!(latest.quality.is_clean());
    let mut out = bits(&latest.prediction);
    out.extend(bits(&window.prediction));
    server.shutdown();
    out
}

#[test]
fn telemetry_gate_and_drain_are_output_invisible() {
    let (p, cfg, trained) = setup(130);
    let model = SharedModel::F32(Arc::clone(&trained));

    // The zero-overhead telemetry contract extends to the serving layer:
    // identical output bits with the registry on and off.
    let count = |name: &str| telemetry::snapshot().histograms.get(name).map_or(0, |h| h.count);
    let tail_names = ["serve.request", "serve.queue_wait", "serve.compute"];
    let before = tail_names.map(count);
    let on = telemetry::with_telemetry(true, || serve_once(&p, model.clone(), cfg.t_in));
    let off = telemetry::with_telemetry(false, || serve_once(&p, model.clone(), cfg.t_in));
    assert_eq!(on, off, "telemetry gate must be bitwise invisible to served forecasts");
    // Both served requests split their latency into queue wait and compute.
    for (name, was) in tail_names.into_iter().zip(before) {
        assert!(count(name) >= was + 2, "{name}: {} recorded, want >= {}", count(name), was + 2);
    }

    // Graceful drain: queued work completes, new work is rejected typed.
    let server =
        Server::start(Arc::clone(&p), model, ServeConfig { workers: 1, ..ServeConfig::default() });
    let queued: Vec<_> = (0..4)
        .map(|_| server.submit(ForecastRequest::window(p.test_time.start)).expect("admitted"))
        .collect();
    server.begin_drain();
    assert!(matches!(
        server.submit(ForecastRequest::window(p.test_time.start)),
        Err(ServeError::ShuttingDown)
    ));
    let stats = server.shutdown();
    for q in queued {
        q.wait().expect("draining must complete already-queued work");
    }
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.shutdown_rejected, 1);
}

#[test]
fn hot_swap_compatibility_both_directions_and_fingerprint_rejection() {
    let (p, _cfg, trained) = setup(131);
    let f32_model = SharedModel::F32(Arc::clone(&trained));
    let quant = Arc::new(trained.quantize(DType::F16));
    let quant_model = SharedModel::Quantized(Arc::clone(&quant));
    let abs_start = p.test_time.start;

    // Direct batch-path references for both precisions.
    let (ref_f32, _) =
        Predictor::new_with_dtype(&trained, &p, DType::F32).predict_window_checked(&p, abs_start);
    let (ref_quant, _) = Predictor::new_quantized(&quant, &p).predict_window_checked(&p, abs_start);

    // Quantized checkpoint over a running f32 pool.
    let server = Server::start(
        Arc::clone(&p),
        f32_model.clone(),
        ServeConfig { workers: 2, ..ServeConfig::default() },
    );
    let before = server
        .submit(ForecastRequest::window(abs_start))
        .expect("admitted")
        .wait()
        .expect("f32 forecast");
    assert_eq!(before.generation, 0);
    assert_eq!(bits(&before.prediction), bits(&ref_f32), "served == batch path (f32)");
    assert_eq!(server.swap_model(quant_model.clone()).expect("fingerprints match"), 1);
    let after = server
        .submit(ForecastRequest::window(abs_start))
        .expect("admitted")
        .wait()
        .expect("quantized forecast");
    assert_eq!(after.generation, 1);
    assert_eq!(bits(&after.prediction), bits(&ref_quant), "served == batch path (f16)");

    // A checkpoint trained under a different config must be rejected, and
    // the serving model must be untouched by the failed swap.
    let mut other = TrainedStsm::from_json(&trained.to_json()).expect("round-trips");
    other.cfg.epochs += 1; // any config delta changes the fingerprint
    let err = server
        .swap_model(SharedModel::F32(Arc::new(other)))
        .expect_err("mismatched fingerprint must be rejected");
    match err {
        ServeError::FingerprintMismatch { serving, offered } => assert_ne!(serving, offered),
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    let still = server
        .submit(ForecastRequest::window(abs_start))
        .expect("admitted")
        .wait()
        .expect("still serving");
    assert_eq!(still.generation, 1, "failed swap must not bump the generation");
    assert_eq!(bits(&still.prediction), bits(&ref_quant));
    let stats = server.shutdown();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.swaps_rejected, 1);

    // Vice versa: f32 checkpoint over a running quantized pool.
    let server = Server::start(
        Arc::clone(&p),
        quant_model,
        ServeConfig { workers: 1, ..ServeConfig::default() },
    );
    let before = server
        .submit(ForecastRequest::window(abs_start))
        .expect("admitted")
        .wait()
        .expect("quantized forecast");
    assert_eq!(bits(&before.prediction), bits(&ref_quant));
    assert_eq!(server.swap_model(f32_model).expect("fingerprints match"), 1);
    let after = server
        .submit(ForecastRequest::window(abs_start))
        .expect("admitted")
        .wait()
        .expect("f32 forecast");
    assert_eq!(bits(&after.prediction), bits(&ref_f32));
    server.shutdown();
}

#[test]
fn online_refresh_hot_swaps_fine_tuned_weights() {
    let (p, _cfg, trained) = setup(132);
    let abs_start = p.test_time.start;
    let server = Server::start(
        Arc::clone(&p),
        SharedModel::F32(Arc::clone(&trained)),
        ServeConfig { workers: 1, ..ServeConfig::default() },
    );
    let before = server
        .submit(ForecastRequest::window(abs_start))
        .expect("admitted")
        .wait()
        .expect("pre-refresh forecast");
    assert_eq!(before.generation, 0);

    // Fine-tune online and push the refreshed weights through the same
    // fingerprint-gated path as an operator-initiated swap.
    let online_cfg = OnlineConfig { replay_windows: 16, lr_scale: 0.5, refresh_every: 1 };
    let mut online = OnlineTrainer::from_trained(&p, &trained, online_cfg).expect("wraps");
    online.fine_tune_epoch(&p, p.train_time.end).expect("fine-tunes");
    let snapshot = online.trained().expect("snapshot");
    assert_eq!(server.swap_refreshed(&online).expect("same fingerprint"), 1);

    // The served forecast now matches the batch path over the refreshed
    // snapshot, bit for bit — and differs from the pre-refresh forecast.
    let (ref_new, _) = Predictor::new(&snapshot, &p).predict_window_checked(&p, abs_start);
    let after = server
        .submit(ForecastRequest::window(abs_start))
        .expect("admitted")
        .wait()
        .expect("post-refresh forecast");
    assert_eq!(after.generation, 1);
    assert_eq!(bits(&after.prediction), bits(&ref_new), "served == batch path (refreshed)");
    assert_ne!(
        bits(&after.prediction),
        bits(&before.prediction),
        "fine-tuning must actually move the weights"
    );
    let stats = server.shutdown();
    assert_eq!(stats.swaps, 1);
}

#[test]
fn hot_swap_mid_rolling_sweep_answers_like_a_fresh_predictor() {
    let (p, cfg, trained) = setup(133);
    let quant = Arc::new(trained.quantize(DType::Bf16));
    let models = [SharedModel::F32(Arc::clone(&trained)), SharedModel::Quantized(quant)];
    let assets = InferAssets::new(&cfg, &p);
    let server = Server::start(
        Arc::clone(&p),
        models[0].clone(),
        ServeConfig { workers: 1, ..ServeConfig::default() },
    );
    let swap_at = 6;
    for i in 0..2 * swap_at {
        if i == swap_at {
            assert_eq!(server.swap_model(models[1].clone()).expect("fingerprints match"), 1);
        }
        let s = p.test_time.start + i;
        let resp =
            server.submit(ForecastRequest::window(s)).expect("admitted").wait().expect("forecast");
        let generation = resp.generation as usize;
        assert_eq!(generation, usize::from(i >= swap_at));
        let (fresh, _) = Predictor::new_shared_with_assets(models[generation].clone(), &assets)
            .predict_window_checked(&p, s);
        assert_eq!(
            bits(&resp.prediction),
            bits(&fresh),
            "window at {s}, generation {generation}: served != fresh predictor"
        );
    }
    server.shutdown();
}
