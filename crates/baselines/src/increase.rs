//! INCREASE (Zheng et al., WWW 2023), adapted to forecasting (§5.1.2).
//!
//! Inductive kriging via heterogeneous aggregation: each target location
//! aggregates the values of its `k` nearest *observed* neighbours — weighted
//! by a Gaussian spatial kernel — in advance, then a GRU models the temporal
//! correlation of the aggregated sequence and a head projects to the future
//! window. The paper notes this was the strongest baseline but cannot use
//! global graph structure (it only ever sees the k nearest neighbours).

use crate::common::{BaselineConfig, BaselineReport, MetricAccumulator};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;
use stsm_core::ProblemInstance;
use stsm_tensor::nn::{Fwd, GruCell, Linear};
use stsm_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use stsm_tensor::{InferSession, ParamBinder, ParamStore, Tape, Tensor};
use stsm_timeseries::sliding_windows;

struct IncreaseModel {
    gru: GruCell,
    head: Linear,
    k: usize,
    t_out: usize,
}

impl IncreaseModel {
    fn new(store: &mut ParamStore, cfg: &BaselineConfig, rng: &mut StdRng) -> Self {
        // Input per step: k neighbour values + k kernel weights.
        IncreaseModel {
            gru: GruCell::new(store, "increase.gru", 2 * cfg.k_neighbors, cfg.hidden, rng),
            head: Linear::new(store, "increase.head", cfg.hidden, cfg.t_out, rng),
            k: cfg.k_neighbors,
            t_out: cfg.t_out,
        }
    }
}

/// Per-target neighbour context: the k nearest source ids and their
/// normalized Gaussian kernel weights.
struct NeighborContext {
    ids: Vec<usize>,
    weights: Vec<f32>,
}

fn neighbor_context(
    problem: &ProblemInstance,
    target: usize,
    sources: &[usize],
    k: usize,
) -> NeighborContext {
    let mut order: Vec<usize> = sources.iter().copied().filter(|&s| s != target).collect();
    order.sort_by(|&a, &b| {
        problem.dist(target, a).partial_cmp(&problem.dist(target, b)).expect("finite")
    });
    order.truncate(k);
    let sigma = problem.sigma;
    let mut weights: Vec<f32> = order
        .iter()
        .map(|&s| {
            let d = problem.dist(target, s);
            (-(d * d) / (sigma * sigma)).exp().max(1e-6)
        })
        .collect();
    let sum: f32 = weights.iter().sum();
    for w in &mut weights {
        *w /= sum;
    }
    NeighborContext { ids: order, weights }
}

/// Builds the `(targets, T, 2k)` input tensor: per step, the k neighbour
/// values followed by their (constant) kernel weights.
fn build_inputs(
    problem: &ProblemInstance,
    contexts: &[NeighborContext],
    start: usize,
    t_in: usize,
    k: usize,
) -> Tensor {
    let n = contexts.len();
    let mut data = vec![0.0f32; n * t_in * 2 * k];
    for (row, ctx) in contexts.iter().enumerate() {
        for (j, &s) in ctx.ids.iter().enumerate() {
            let series = problem.scaled_range(s, start, start + t_in);
            for (t, &v) in series.iter().enumerate() {
                data[(row * t_in + t) * 2 * k + j] = v * ctx.weights[j];
                data[(row * t_in + t) * 2 * k + k + j] = ctx.weights[j];
            }
        }
        // Fewer than k neighbours available: remaining channels stay zero.
    }
    Tensor::from_vec([n, t_in, 2 * k], data)
}

/// Trains INCREASE on observed locations (each predicting itself from its k
/// nearest *other* observed locations) and evaluates on the unobserved ones.
pub fn run_increase(problem: &ProblemInstance, cfg: &BaselineConfig) -> BaselineReport {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1C);
    let observed = problem.observed.clone();
    let mut store = ParamStore::new();
    let model = IncreaseModel::new(&mut store, cfg, &mut rng);
    let mut opt = Adam::new(cfg.lr);
    let train_ctx: Vec<NeighborContext> = observed
        .iter()
        .map(|&g| neighbor_context(problem, g, &observed, cfg.k_neighbors))
        .collect();
    let span = problem.train_time.len();
    let windows = sliding_windows(span, cfg.t_in, cfg.t_out, 1);
    assert!(!windows.is_empty(), "training period too short");
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _epoch in 0..cfg.epochs {
        let mut order: Vec<usize> = (0..windows.len()).collect();
        order.shuffle(&mut rng);
        order.truncate(cfg.windows_per_epoch);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_windows.max(1)) {
            let (loss_v, mut grads) = {
                let tape = Tape::new();
                let mut binder = ParamBinder::new(&tape);
                let mut fwd = Fwd::new(&store, &mut binder);
                let mut losses = Vec::new();
                for &wi in chunk {
                    let w = windows[wi];
                    let start = problem.train_time.start + w.input_start;
                    let x = build_inputs(problem, &train_ctx, start, cfg.t_in, cfg.k_neighbors);
                    let mut yv = Vec::with_capacity(observed.len() * cfg.t_out);
                    for &g in &observed {
                        yv.extend_from_slice(problem.scaled_range(
                            g,
                            start + cfg.t_in,
                            start + cfg.t_in + cfg.t_out,
                        ));
                    }
                    let y = Tensor::from_vec([observed.len(), cfg.t_out], yv);
                    let xv = fwd.constant(x);
                    let h = model.gru.forward_seq(&mut fwd, xv);
                    let pred = model.head.forward(&mut fwd, h);
                    losses.push(fwd.tape().mse_loss(pred, &y));
                }
                let mut loss = losses[0];
                for &l in &losses[1..] {
                    loss = tape.add(loss, l);
                }
                loss = tape.mul_scalar(loss, 1.0 / losses.len() as f32);
                tape.backward(loss);
                (tape.value(loss).item(), binder.grads())
            };
            clip_grad_norm(&mut grads, 5.0);
            opt.step(&mut store, &grads);
            epoch_loss += loss_v;
            batches += 1;
        }
        epoch_losses.push(epoch_loss / batches.max(1) as f32);
    }
    let train_seconds = t0.elapsed().as_secs_f64();
    // Evaluation: unobserved locations aggregate their k nearest observed.
    let t1 = Instant::now();
    let test_ctx: Vec<NeighborContext> = problem
        .unobserved
        .iter()
        .map(|&g| neighbor_context(problem, g, &observed, cfg.k_neighbors))
        .collect();
    let test_windows = sliding_windows(problem.test_time.len(), cfg.t_in, cfg.t_out, cfg.t_out);
    let mut acc = MetricAccumulator::new();
    // Bind parameters once; every window reuses the forward-only session.
    let mut session = InferSession::new(&store);
    for w in &test_windows {
        let start = problem.test_time.start + w.input_start;
        let x = build_inputs(problem, &test_ctx, start, cfg.t_in, cfg.k_neighbors);
        session.reset();
        let mut fwd = Fwd::infer(&store, &mut session);
        let xv = fwd.constant(x);
        let h = model.gru.forward_seq(&mut fwd, xv);
        let pred = model.head.forward(&mut fwd, h);
        let pv = fwd.value(pred);
        for (row, &u) in problem.unobserved.iter().enumerate() {
            for p in 0..model.t_out {
                acc.push(problem, u, start + cfg.t_in + p, pv.at(&[row, p]));
            }
        }
    }
    assert!(acc.len() > 0, "no test predictions produced");
    let _ = model.k;
    BaselineReport {
        name: "INCREASE",
        metrics: acc.metrics(),
        train_seconds,
        test_seconds: t1.elapsed().as_secs_f64(),
        epoch_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsm_core::DistanceMode;
    use stsm_synth::{space_split, DatasetConfig, NetworkKind, SignalKind, SplitAxis};

    fn tiny_problem() -> ProblemInstance {
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
            seed: 32,
        }
        .generate();
        let split = space_split(&d.coords, SplitAxis::Vertical, false);
        ProblemInstance::new(d, split, DistanceMode::Euclidean)
    }

    #[test]
    fn neighbor_context_sorted_and_normalized() {
        let p = tiny_problem();
        let ctx = neighbor_context(&p, p.unobserved[0], &p.observed, 4);
        assert_eq!(ctx.ids.len(), 4);
        let sum: f32 = ctx.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        // Distances non-decreasing.
        for w in ctx.ids.windows(2) {
            assert!(p.dist(p.unobserved[0], w[0]) <= p.dist(p.unobserved[0], w[1]));
        }
        // Nearer neighbours carry larger weights.
        for w in ctx.weights.windows(2) {
            assert!(w[0] >= w[1] - 1e-6);
        }
    }

    #[test]
    fn trains_and_reports_finite_metrics() {
        let p = tiny_problem();
        let cfg = BaselineConfig {
            t_in: 6,
            t_out: 6,
            hidden: 8,
            epochs: 3,
            windows_per_epoch: 8,
            k_neighbors: 3,
            ..Default::default()
        };
        let report = run_increase(&p, &cfg);
        assert_eq!(report.name, "INCREASE");
        assert!(report.metrics.rmse.is_finite() && report.metrics.rmse > 0.0);
    }

    #[test]
    fn infer_forward_is_bitwise_identical_to_train() {
        let p = tiny_problem();
        let cfg =
            BaselineConfig { t_in: 6, t_out: 6, hidden: 8, k_neighbors: 3, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let model = IncreaseModel::new(&mut store, &cfg, &mut rng);
        let ctx: Vec<NeighborContext> = p
            .unobserved
            .iter()
            .map(|&g| neighbor_context(&p, g, &p.observed, cfg.k_neighbors))
            .collect();
        let x = build_inputs(&p, &ctx, p.test_time.start, cfg.t_in, cfg.k_neighbors);
        let train_out = {
            let tape = Tape::new();
            let mut binder = ParamBinder::new(&tape);
            let mut fwd = Fwd::new(&store, &mut binder);
            let xv = fwd.constant(x.clone());
            let h = model.gru.forward_seq(&mut fwd, xv);
            let pred = model.head.forward(&mut fwd, h);
            tape.value(pred)
        };
        let mut session = InferSession::new(&store);
        let mut fwd = Fwd::infer(&store, &mut session);
        let xv = fwd.constant(x);
        let h = model.gru.forward_seq(&mut fwd, xv);
        let pred = model.head.forward(&mut fwd, h);
        let infer_out = fwd.value(pred);
        assert_eq!(train_out.shape(), infer_out.shape());
        for (a, b) in train_out.data().iter().zip(infer_out.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "Train/Infer divergence");
        }
    }
}
