//! IGNNK (Wu et al., AAAI 2021), adapted to forecasting (§5.1.2).
//!
//! Inductive Graph Neural Network for Kriging: diffusion graph convolutions
//! over the Gaussian-kernel adjacency, trained by *randomly masking
//! scattered locations* (its native strategy) and reconstructing — here,
//! predicting the future window per the paper's adaptation. Missing
//! locations are fed zeros, so when an entire contiguous region is missing
//! the local neighbourhood carries no signal and the model degrades, exactly
//! the failure mode the paper reports.

use crate::common::{gather_matrix, BaselineConfig, BaselineReport, MetricAccumulator};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use stsm_core::ProblemInstance;
use stsm_graph::{normalize_row, CsrLinMap, CsrMatrix};
use stsm_tensor::nn::{Fwd, Linear};
use stsm_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use stsm_tensor::{InferSession, LinMap, ParamBinder, ParamStore, Tape, Tensor, Var};
use stsm_timeseries::sliding_windows;

/// One diffusion GCN layer: forward + backward random-walk adjacencies,
/// two diffusion steps each (a light version of IGNNK's D-GCN).
struct DiffusionLayer {
    w_self: Linear,
    w_fwd1: Linear,
    w_fwd2: Linear,
    w_bwd1: Linear,
    w_bwd2: Linear,
}

impl DiffusionLayer {
    fn new(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut StdRng,
    ) -> Self {
        DiffusionLayer {
            w_self: Linear::new(store, &format!("{name}.self"), d_in, d_out, rng),
            w_fwd1: Linear::new_no_bias(store, &format!("{name}.f1"), d_in, d_out, rng),
            w_fwd2: Linear::new_no_bias(store, &format!("{name}.f2"), d_in, d_out, rng),
            w_bwd1: Linear::new_no_bias(store, &format!("{name}.b1"), d_in, d_out, rng),
            w_bwd2: Linear::new_no_bias(store, &format!("{name}.b2"), d_in, d_out, rng),
        }
    }

    fn forward(&self, fwd: &mut Fwd, a_f: &Arc<CsrLinMap>, a_b: &Arc<CsrLinMap>, x: Var) -> Var {
        let xf1 = fwd.linmap(Arc::clone(a_f) as Arc<dyn LinMap>, x);
        let xf2 = fwd.linmap(Arc::clone(a_f) as Arc<dyn LinMap>, xf1);
        let xb1 = fwd.linmap(Arc::clone(a_b) as Arc<dyn LinMap>, x);
        let xb2 = fwd.linmap(Arc::clone(a_b) as Arc<dyn LinMap>, xb1);
        let mut out = self.w_self.forward(fwd, x);
        for (layer, input) in
            [(&self.w_fwd1, xf1), (&self.w_fwd2, xf2), (&self.w_bwd1, xb1), (&self.w_bwd2, xb2)]
        {
            let y = layer.forward(fwd, input);
            out = fwd.add(out, y);
        }
        out
    }
}

struct IgnnkModel {
    l1: DiffusionLayer,
    l2: DiffusionLayer,
    l3: DiffusionLayer,
}

impl IgnnkModel {
    fn new(store: &mut ParamStore, cfg: &BaselineConfig, rng: &mut StdRng) -> Self {
        IgnnkModel {
            l1: DiffusionLayer::new(store, "ignnk.l1", cfg.t_in, cfg.hidden, rng),
            l2: DiffusionLayer::new(store, "ignnk.l2", cfg.hidden, cfg.hidden, rng),
            l3: DiffusionLayer::new(store, "ignnk.l3", cfg.hidden, cfg.t_out, rng),
        }
    }

    /// `x`: (N, T) window with missing locations zeroed; returns (N, T').
    fn forward(&self, fwd: &mut Fwd, a_f: &Arc<CsrLinMap>, a_b: &Arc<CsrLinMap>, x: Var) -> Var {
        let h = self.l1.forward(fwd, a_f, a_b, x);
        let h = fwd.relu(h);
        let h = self.l2.forward(fwd, a_f, a_b, h);
        let h = fwd.relu(h);
        self.l3.forward(fwd, a_f, a_b, h)
    }
}

fn diffusion_adjacencies(
    problem: &ProblemInstance,
    subset: &[usize],
) -> (Arc<CsrLinMap>, Arc<CsrLinMap>) {
    let a: CsrMatrix = problem.spatial_adjacency(subset, 0.05);
    let fwd = normalize_row(&a);
    let bwd = normalize_row(&a.transpose());
    (Arc::new(CsrLinMap::new(fwd)), Arc::new(CsrLinMap::new(bwd)))
}

/// Trains IGNNK on the observed region and evaluates on the unobserved one.
pub fn run_ignnk(problem: &ProblemInstance, cfg: &BaselineConfig) -> BaselineReport {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x16);
    let observed = problem.observed.clone();
    let n_obs = observed.len();
    let mut store = ParamStore::new();
    let model = IgnnkModel::new(&mut store, cfg, &mut rng);
    let mut opt = Adam::new(cfg.lr);
    let (a_f, a_b) = diffusion_adjacencies(problem, &observed);
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
        for chunk in order.chunks(cfg.batch_windows) {
            let (loss_v, mut grads) = {
                let tape = Tape::new();
                let mut binder = ParamBinder::new(&tape);
                let mut fwd = Fwd::new(&store, &mut binder);
                let mut losses: Vec<Var> = Vec::new();
                for &wi in chunk {
                    let w = windows[wi];
                    let start = problem.train_time.start + w.input_start;
                    let mut x = gather_matrix(problem, &observed, start, cfg.t_in);
                    // IGNNK's native augmentation: random *scattered* masking.
                    {
                        let data = x.data_mut();
                        for i in 0..n_obs {
                            if rng.random::<f32>() < 0.3 {
                                for v in &mut data[i * cfg.t_in..(i + 1) * cfg.t_in] {
                                    *v = 0.0;
                                }
                            }
                        }
                    }
                    let y = gather_matrix(problem, &observed, start + cfg.t_in, cfg.t_out);
                    let xv = fwd.constant(x);
                    let pred = model.forward(&mut fwd, &a_f, &a_b, xv);
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
    // Test over the full graph: unobserved inputs are zeros.
    let t1 = Instant::now();
    let all: Vec<usize> = (0..problem.n()).collect();
    let (a_f_full, a_b_full) = diffusion_adjacencies(problem, &all);
    let test_windows = sliding_windows(problem.test_time.len(), cfg.t_in, cfg.t_out, cfg.t_out);
    let mut acc = MetricAccumulator::new();
    // Bind parameters once; every window reuses the forward-only session.
    let mut session = InferSession::new(&store);
    for w in &test_windows {
        let start = problem.test_time.start + w.input_start;
        let mut x = Tensor::zeros([problem.n(), cfg.t_in]);
        {
            let data = x.data_mut();
            for &g in &problem.observed {
                data[g * cfg.t_in..(g + 1) * cfg.t_in].copy_from_slice(problem.scaled_range(
                    g,
                    start,
                    start + cfg.t_in,
                ));
            }
        }
        session.reset();
        let mut fwd = Fwd::infer(&store, &mut session);
        let xv = fwd.constant(x);
        let pred = model.forward(&mut fwd, &a_f_full, &a_b_full, xv);
        let pv = fwd.value(pred);
        for &u in &problem.unobserved {
            for p in 0..cfg.t_out {
                acc.push(problem, u, start + cfg.t_in + p, pv.at(&[u, p]));
            }
        }
    }
    assert!(acc.len() > 0, "no test predictions produced");
    BaselineReport {
        name: "IGNNK",
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
            seed: 31,
        }
        .generate();
        let split = space_split(&d.coords, SplitAxis::Vertical, false);
        ProblemInstance::new(d, split, DistanceMode::Euclidean)
    }

    #[test]
    fn infer_forward_is_bitwise_identical_to_train() {
        let p = tiny_problem();
        let cfg = BaselineConfig { t_in: 6, t_out: 6, hidden: 8, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let model = IgnnkModel::new(&mut store, &cfg, &mut rng);
        let (a_f, a_b) = diffusion_adjacencies(&p, &(0..p.n()).collect::<Vec<_>>());
        let x = gather_matrix(&p, &(0..p.n()).collect::<Vec<_>>(), p.test_time.start, cfg.t_in);
        let train_out = {
            let tape = Tape::new();
            let mut binder = ParamBinder::new(&tape);
            let mut fwd = Fwd::new(&store, &mut binder);
            let xv = fwd.constant(x.clone());
            let pred = model.forward(&mut fwd, &a_f, &a_b, xv);
            tape.value(pred)
        };
        let mut session = InferSession::new(&store);
        let mut fwd = Fwd::infer(&store, &mut session);
        let xv = fwd.constant(x);
        let pred = model.forward(&mut fwd, &a_f, &a_b, xv);
        let infer_out = fwd.value(pred);
        assert_eq!(train_out.shape(), infer_out.shape());
        for (a, b) in train_out.data().iter().zip(infer_out.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "Train/Infer divergence");
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
            ..Default::default()
        };
        let report = run_ignnk(&p, &cfg);
        assert_eq!(report.name, "IGNNK");
        assert!(report.metrics.rmse.is_finite() && report.metrics.rmse > 0.0);
        assert!(report.train_seconds > 0.0);
        assert!(report.test_seconds > 0.0);
    }
}
