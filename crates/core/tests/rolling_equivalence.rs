//! Rolling reuse (DESIGN.md, "Rolling reuse"): a `Predictor` whose window
//! overlaps the previous one bit for bit recomputes only the block steps
//! whose receptive field moved, and its forecast must be bitwise the cold
//! forward's — here, a fresh predictor's first window.
//!
//! Covered: stride-δ sweeps for every δ in `1..T` with backward steps,
//! repeats and jumps between them; 1–3 blocks, `T` of 6, 12 and 24 (so the
//! dilation sets 1, 2 / 3, 3, the default 1, 2 / 4, 6 and 1, 2 / 4, 8 /
//! 12, 12); f16 and bf16 sessions; STSM-trans, which never reuses; faulted
//! sources through `predict_sources_checked`, where a blend-imputed reading
//! keeps the overlap and a blackout's within-window carry breaks it; every
//! supported SIMD level at 1 and 3 threads. The `infer.reuse.*` counters
//! must show each overlapping window as a hit and every other as a miss, so
//! no sweep passes by running cold throughout.

use std::sync::{Arc, Mutex, MutexGuard};
use stsm_core::{
    DataQuality, DistanceMode, InferAssets, Predictor, ProblemInstance, SharedModel, StModel,
    StsmConfig, TemporalModule, TrainedStsm,
};
use stsm_synth::{space_split, SplitAxis};
use stsm_tensor::{pool, simd, telemetry, DType, ParamStore, Tensor};

/// Serializes the tests: they read the process-wide reuse counters.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn problem() -> ProblemInstance {
    let dataset = stsm_synth::test_support::tiny_dataset("rolling", 61);
    let split = space_split(&dataset.coords, SplitAxis::Vertical, false);
    ProblemInstance::new(dataset, split, DistanceMode::Euclidean)
}

fn cfg(t: usize, hidden: usize, blocks: usize) -> StsmConfig {
    StsmConfig { t_in: t, t_out: t, hidden, blocks, gcn_depth: 2, top_k: 8, ..Default::default() }
}

/// An untrained model with non-zero biases (zero biases could hide a row
/// taken from the wrong step), shared at dtype `dt`.
fn model(cfg: &StsmConfig, dt: DType) -> SharedModel {
    let mut store = ParamStore::new();
    let _ = StModel::new(&mut store, cfg);
    let biases: Vec<_> =
        store.iter().filter(|(_, name, _)| name.ends_with(".b")).map(|(id, _, _)| id).collect();
    for (j, id) in biases.into_iter().enumerate() {
        for (i, v) in store.data_mut(id).iter_mut().enumerate() {
            *v = ((i * 7 + j * 13) % 17) as f32 * 0.02 - 0.16;
        }
    }
    let json = serde_json::json!({
        "config": cfg,
        "params": serde_json::from_str::<serde_json::Value>(&store.to_json()).unwrap(),
    });
    let trained = TrainedStsm::from_json(&json.to_string()).expect("a consistent model");
    if dt.is_half() {
        SharedModel::Quantized(Arc::new(trained.quantize(dt)))
    } else {
        SharedModel::F32(Arc::new(trained))
    }
}

/// Window starts for a `t`-step model over a `len`-step series: for every
/// δ in `1..t`, three windows advancing by δ, then a step back, a repeat
/// and a jump; a start past the series wraps to its beginning (a jump too).
fn sweep(t: usize, len: usize) -> Vec<usize> {
    let last = len - t;
    let mut s = t;
    let mut starts = vec![s];
    for delta in 1..t {
        for (back, ahead) in [(0, delta), (0, delta), (0, delta), (1, 0), (0, 0), (0, 2 * t)] {
            s = s + ahead - back;
            if s > last {
                s = 1 + s % t;
            }
            starts.push(s);
        }
    }
    starts
}

/// Windows of `starts` that follow their predecessor by `1..t` steps.
fn overlapping(starts: &[usize], t: usize) -> u64 {
    starts.windows(2).filter(|w| w[1] > w[0] && w[1] - w[0] < t).count() as u64
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The reuse counters' movement while `f` runs, with telemetry on:
/// `(hits, misses, block-steps reused)`.
fn reuse_counts(f: impl FnOnce()) -> (u64, u64, u64) {
    let names = ["infer.reuse.hit", "infer.reuse.miss", "infer.reuse.steps"];
    telemetry::with_telemetry(true, || {
        let before = names.map(telemetry::counter_value);
        f();
        let after = names.map(telemetry::counter_value);
        (after[0] - before[0], after[1] - before[1], after[2] - before[2])
    })
}

/// Runs `starts` through one predictor, each window against a fresh
/// predictor's cold forward, bitwise; returns the rolling predictor's hits
/// and the block-steps it reused.
fn rolling_vs_cold(
    problem: &ProblemInstance,
    assets: &InferAssets,
    model: &SharedModel,
    starts: &[usize],
    what: &str,
) -> (u64, u64) {
    let (hits, misses, steps) = reuse_counts(|| {
        let mut rolling = Predictor::new_shared_with_assets(model.clone(), assets);
        for &s in starts {
            let got = rolling.predict_window(problem, s);
            let cold =
                Predictor::new_shared_with_assets(model.clone(), assets).predict_window(problem, s);
            assert_eq!(bits(&got), bits(&cold), "{what}: window at {s}");
        }
    });
    // Every cold forward is a miss; the rolling predictor hits or misses.
    assert_eq!(hits + misses, 2 * starts.len() as u64, "{what}: one count per forward");
    (hits, steps)
}

#[test]
fn rolling_sweeps_bitwise_match_cold_forward() {
    let _g = lock();
    let problem = problem();
    let len = problem.dataset.t_total;
    let default = cfg(12, 16, 2);
    let mut cases: Vec<(StsmConfig, DType)> = vec![
        (cfg(6, 8, 1), DType::F32),
        (cfg(6, 8, 2), DType::F32),
        (cfg(6, 8, 3), DType::F32),
        (default.clone(), DType::F32),
        (default.clone(), DType::F16),
        (default, DType::Bf16),
        (cfg(24, 8, 3), DType::F32),
    ];
    cases.push((StsmConfig { temporal: TemporalModule::Transformer, ..cfg(6, 8, 2) }, DType::F32));
    for (cfg, dt) in cases {
        let assets = InferAssets::new(&cfg, &problem);
        let model = model(&cfg, dt);
        let starts = sweep(cfg.t_in, len);
        let trans = cfg.temporal == TemporalModule::Transformer;
        for lvl in simd::supported_levels() {
            for threads in [1, 3] {
                let what = format!(
                    "T {}, {} blocks, {:?}, {dt:?}, {lvl:?}, {threads} threads",
                    cfg.t_in, cfg.blocks, cfg.temporal
                );
                let (hits, steps) = pool::with_max_threads(threads, || {
                    simd::with_level(lvl, || {
                        rolling_vs_cold(&problem, &assets, &model, &starts, &what)
                    })
                });
                let want = if trans { 0 } else { overlapping(&starts, cfg.t_in) };
                assert_eq!(hits, want, "{what}: reuse hits");
                assert_eq!(steps > 0, !trans, "{what}: block-steps reused");
            }
        }
    }
}

/// The observed sources of windows `[s, s + t)` over a copy of the
/// problem's readings with two faults: sensor 2 drops out at step `blend_at`
/// (its co-temporal neighbours blend it in, the same in every window), and
/// every sensor goes dark at step `dark_at` (no co-temporal reading, so each
/// window carries its own neighbouring value in: backward when the step
/// opens the window, forward otherwise).
fn faulted_sources(
    problem: &ProblemInstance,
    s: usize,
    t: usize,
    blend_at: usize,
    dark_at: usize,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(problem.observed.len() * t);
    for (r, &g) in problem.observed.iter().enumerate() {
        for step in s..s + t {
            let dark = step == dark_at || (r == 2 && step == blend_at);
            out.push(if dark { f32::NAN } else { problem.scaled_value(g, step) });
        }
    }
    out
}

#[test]
fn faulted_sources_reuse_only_bitwise_overlaps() {
    let _g = lock();
    let problem = problem();
    let cfg = cfg(12, 16, 2);
    let assets = InferAssets::new(&cfg, &problem);
    let model = model(&cfg, DType::F32);
    let t = cfg.t_in;
    let (first, blend_at, dark_at) = (30, 40, 50);
    let starts: Vec<usize> = (first..dark_at + 4).collect();
    let mut total = DataQuality::default();
    let (hits, misses, _) = reuse_counts(|| {
        let mut rolling = Predictor::new_shared_with_assets(model.clone(), &assets);
        for &s in &starts {
            let mut src = faulted_sources(&problem, s, t, blend_at, dark_at);
            let (got, q) = rolling.predict_sources_checked(&problem, &mut src.clone(), s);
            let (cold, q_cold) = Predictor::new_shared_with_assets(model.clone(), &assets)
                .predict_sources_checked(&problem, &mut src, s);
            assert_eq!(bits(&got), bits(&cold), "faulted window at {s}");
            assert_eq!(q, q_cold);
            total.merge(&q);
        }
    });
    assert!(total.imputed_blend > 0 && total.imputed_carry > 0, "both imputations ran: {total:?}");
    // Two rolling misses: the first window, and the one the dark step
    // opens, whose backward carry rewrites a step the previous window
    // carried forward. Every cold forward misses too.
    let n = starts.len() as u64;
    assert_eq!((hits, misses), (n - 2, n + 2), "reuse hits and misses");
}
