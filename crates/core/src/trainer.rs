//! Training (§3.5, §4) and testing pipelines for STSM and its variants.
//!
//! Training masks sub-graphs of the observed region each epoch, fills the
//! masked locations with pseudo-observations, rebuilds the DTW adjacency,
//! and optimizes `L = L_pred + λ·L_cl` with Adam. Testing fills the
//! unobserved region with pseudo-observations, builds the full-graph
//! adjacencies and forecasts the next `T'` steps for the unobserved
//! locations.
//!
//! One epoch body, `EpochState::run_epoch`, serves both `train_stsm_with`
//! (every training window) and [`crate::OnlineTrainer`] (a replay tail).
//!
//! ## Fault tolerance
//!
//! Each epoch's RNG is derived from `(cfg.seed, epoch)` rather than one
//! long-lived stream, so epoch boundaries are replay points: a run resumed
//! from a [`TrainCheckpoint`] is bit-identical to an uninterrupted one. A
//! divergence guard watches every batch — non-finite losses or gradients
//! (and, after warmup, loss spikes) skip the optimizer step; a streak of bad
//! batches rolls parameters and optimizer state back to the last epoch
//! boundary with a backed-off learning rate. See `DESIGN.md`.

use crate::checkpoint::{CheckpointError, CheckpointRef, GuardSnapshot, TrainCheckpoint};
use crate::config::{GuardConfig, MaskingMode, StsmConfig};
use crate::contrastive::nt_xent;
use crate::error::StsmError;
use crate::masking::MaskingContext;
use crate::model::{ForwardOutput, StModel};
use crate::problem::ProblemInstance;
use crate::pseudo::blend_series_strided;
use crate::resilience::{DataQuality, ResilienceReport, TrainOptions};
use crate::temporal_adj::{pseudo_weights_for, DtwContext};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use stsm_graph::{normalize_gcn, CsrLinMap};
use stsm_tensor::nn::Fwd;
use stsm_tensor::optim::{clip_grad_norm, Adam, AdamState, Optimizer};
use stsm_tensor::telemetry;
use stsm_tensor::{ParamBinder, ParamStore, Tape, Tensor, TensorView, Var};
use stsm_timeseries::{sliding_windows, Metrics, WindowIndex};

/// A trained STSM (or variant) ready for evaluation.
pub struct TrainedStsm {
    /// The configuration it was trained with.
    pub cfg: StsmConfig,
    /// Learned parameters.
    pub store: ParamStore,
    model: StModel,
}

/// Statistics recorded during training.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean total loss per epoch (always finite; see
    /// [`ResilienceReport::skipped_epochs`]).
    pub epoch_losses: Vec<f32>,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
    /// Mean similarity (to the unobserved region) of the masked locations
    /// actually used across epochs — Table 8's numerator.
    pub mean_masked_similarity: f32,
    /// Reference mean similarity of purely random draws — Table 8's
    /// denominator.
    pub mean_random_similarity: f32,
    /// What the divergence guard and checkpointing machinery did.
    pub resilience: ResilienceReport,
    /// Telemetry snapshot taken when training finished (`None` when
    /// `STSM_TELEMETRY` is off). Includes the per-epoch phase histograms
    /// `train.epoch.{gather,forward,backward,step}` and the guard counters.
    pub telemetry: Option<telemetry::TelemetryReport>,
}

/// Evaluation result.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// Metrics over all unobserved locations and test windows.
    pub metrics: Metrics,
    /// Wall-clock inference time in seconds.
    pub test_seconds: f64,
    /// Number of test windows evaluated.
    pub windows: usize,
    /// Aggregated input sanitization summary over all test windows (clean
    /// inputs report zeros).
    pub quality: DataQuality,
    /// Telemetry snapshot taken when evaluation finished (`None` when
    /// `STSM_TELEMETRY` is off). Includes the `infer.window` latency
    /// histogram and the `infer.imputed.*` counters.
    pub telemetry: Option<telemetry::TelemetryReport>,
}

/// Derives epoch `epoch`'s RNG from the config seed. SplitMix64-style
/// mixing keeps distinct epochs decorrelated while making each epoch's
/// stream a pure function of `(seed, epoch)` — the foundation of
/// checkpoint-resume bit-identity.
fn epoch_rng(seed: u64, epoch: usize) -> StdRng {
    let mut z = seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Divergence-guard running state (the part that crosses epoch boundaries).
struct GuardState {
    ema: f32,
    ema_count: u64,
}

impl GuardState {
    fn new() -> Self {
        GuardState { ema: 0.0, ema_count: 0 }
    }

    fn restore(&mut self, snap: &GuardSnapshot) {
        self.ema = snap.ema;
        self.ema_count = snap.ema_count;
    }

    /// True when `loss` is a spike relative to the warmed-up EMA.
    fn is_spike(&self, loss: f32, guard: &GuardConfig) -> bool {
        self.ema_count >= guard.warmup_batches
            && self.ema > 0.0
            && loss > guard.spike_factor * self.ema
    }

    /// Folds a good batch's loss into the EMA.
    fn observe(&mut self, loss: f32) {
        self.ema = if self.ema_count == 0 { loss } else { 0.9 * self.ema + 0.1 * loss };
        self.ema_count += 1;
    }

    fn snapshot(&self, resilience: &ResilienceReport) -> GuardSnapshot {
        GuardSnapshot {
            ema: self.ema,
            ema_count: self.ema_count,
            skipped_batches: resilience.skipped_batches,
            rollbacks: resilience.rollbacks,
            skipped_epochs: resilience.skipped_epochs.clone(),
        }
    }
}

/// The telemetry names a trainer reports its epochs under: [`TRAIN_NAMES`]
/// for the batch trainer, `online.*` for the online one.
pub(crate) struct EpochNames {
    /// Span around each optimizer step.
    pub(crate) step: &'static str,
    /// Counter of batches whose step the guard skipped.
    pub(crate) skipped_batches: &'static str,
    /// Counter of rollbacks to the last epoch boundary.
    pub(crate) rollbacks: &'static str,
    /// Counter of epochs that ended with no usable batch.
    pub(crate) skipped_epochs: &'static str,
}

const TRAIN_NAMES: EpochNames = EpochNames {
    step: "train.step",
    skipped_batches: "train.guard.skipped_batches",
    rollbacks: "train.guard.rollbacks",
    skipped_epochs: "train.guard.skipped_epochs",
};

/// One epoch's masked view of the observed region: the masked locations,
/// the unmasked rows and weights their pseudo-observations blend from
/// (Eq. 3), and the DTW adjacency rebuilt for this masked set.
struct EpochMask {
    masked_locals: Vec<usize>,
    unmasked_rows: Tensor,
    pseudo_weights: Vec<f32>,
    a_dtw: Arc<CsrLinMap>,
}

/// The state both trainers drive one epoch at a time: parameters, Adam and
/// the divergence guard with its rollback snapshot, the epoch counter and
/// accumulators, and the per-problem assets built once. `train_stsm_with`
/// runs it over every training window; [`crate::OnlineTrainer`] over a
/// replay tail of recent windows.
pub(crate) struct EpochState {
    pub(crate) cfg: StsmConfig,
    pub(crate) store: ParamStore,
    model: StModel,
    opt: Adam,
    guard: GuardState,
    // Rollback target: parameters + optimizer state at the last epoch
    // boundary.
    snap_params: ParamStore,
    snap_adam: AdamState,
    lr_scale: f32,
    pub(crate) epoch: usize,
    pub(crate) epoch_losses: Vec<f32>,
    sim_used: f32,
    sim_random: f32,
    pub(crate) resilience: ResilienceReport,
    // All observed series gathered once as an `(N_o, T_total)` matrix;
    // every training window is a stride-aware *view* into it (see
    // `window_view`) rather than a per-window copy out of `scaled`.
    pub(crate) obs_rows: Tensor,
    a_s: Arc<CsrLinMap>,
    masking: MaskingContext,
    pub(crate) dtw: DtwContext,
}

impl EpochState {
    /// Builds the state for `problem`: freshly initialized parameters, or
    /// `warm`'s parameters with a cold optimizer and the epoch count
    /// continuing after `cfg.epochs`, so the lr schedule keeps decaying
    /// rather than restarting.
    pub(crate) fn new(
        problem: &ProblemInstance,
        cfg: &StsmConfig,
        warm: Option<&ParamStore>,
    ) -> Result<Self, StsmError> {
        cfg.validate();
        let observed = &problem.observed;
        if observed.len() < 4 {
            return Err(StsmError::TooFewObserved { got: observed.len(), needed: 4 });
        }
        let obs_rows = problem.gather_rows(observed);
        let mut store = ParamStore::new();
        let model = StModel::new(&mut store, cfg);
        if let Some(warm) = warm {
            store.load_from(warm)?;
        }
        // Mild weight decay fights overfitting to the observed region (the
        // model must transfer to locations it never sees ground truth for).
        let opt = Adam::new(cfg.lr).with_weight_decay(1e-4);
        let a_s = Arc::new(CsrLinMap::new(normalize_gcn(
            &problem.spatial_adjacency(observed, cfg.epsilon_s),
        )));
        let masking = MaskingContext::new(problem, cfg.epsilon_sg, cfg.mask_ratio, cfg.top_k);
        let dtw = DtwContext::with_options(
            problem,
            cfg.dtw_band,
            cfg.dtw_downsample,
            cfg.dtw_candidates,
            cfg.q_kk.max(cfg.q_ku),
        );
        let snap_params = store.clone();
        let snap_adam = opt.state();
        Ok(EpochState {
            cfg: cfg.clone(),
            store,
            model,
            opt,
            guard: GuardState::new(),
            snap_params,
            snap_adam,
            lr_scale: 1.0,
            epoch: if warm.is_some() { cfg.epochs } else { 0 },
            epoch_losses: Vec::with_capacity(cfg.epochs),
            sim_used: 0.0,
            sim_random: 0.0,
            resilience: ResilienceReport { lr_scale: 1.0, ..ResilienceReport::default() },
            obs_rows,
            a_s,
            masking,
            dtw,
        })
    }

    /// Resumes at `ck`'s epoch boundary: parameters, Adam moments, guard
    /// accumulators, lr backoff and the loss and similarity history. A
    /// checkpoint taken under another config is refused.
    pub(crate) fn restore(&mut self, ck: &TrainCheckpoint) -> Result<(), StsmError> {
        if ck.config_fingerprint != self.cfg.fingerprint() {
            return Err(CheckpointError::ConfigMismatch.into());
        }
        self.store.load_from(&ck.params)?;
        self.opt
            .load_state(ck.adam.clone(), &self.store)
            .map_err(|e| StsmError::Checkpoint(CheckpointError::Malformed(e)))?;
        self.snap_params = self.store.clone();
        self.snap_adam = self.opt.state();
        self.guard.restore(&ck.guard);
        self.lr_scale = ck.lr_scale;
        self.epoch = ck.epochs_done;
        self.epoch_losses = ck.epoch_losses.clone();
        self.sim_used = ck.sim_used;
        self.sim_random = ck.sim_random;
        self.resilience = ResilienceReport {
            skipped_batches: ck.guard.skipped_batches,
            rollbacks: ck.guard.rollbacks,
            skipped_epochs: ck.guard.skipped_epochs.clone(),
            lr_scale: ck.lr_scale,
            resumed_from_epoch: Some(ck.epochs_done),
            ..ResilienceReport::default()
        };
        Ok(())
    }

    /// The state at the last epoch boundary, borrowed: serializing it
    /// copies no parameter or moment table.
    pub(crate) fn checkpoint(&self) -> CheckpointRef<'_> {
        CheckpointRef {
            config_fingerprint: self.cfg.fingerprint(),
            epochs_done: self.epoch,
            lr_scale: self.lr_scale,
            sim_used: self.sim_used,
            sim_random: self.sim_random,
            epoch_losses: &self.epoch_losses,
            guard: self.guard.snapshot(&self.resilience),
            params: &self.snap_params,
            adam: &self.snap_adam,
        }
    }

    /// Runs epoch `self.epoch` over `windows` (indices relative to the
    /// training-period start) and returns its mean batch loss. The lr is
    /// `cfg.lr · 0.92^epoch · lr_scale · lr_mult`, where `lr_scale` is the
    /// guard's backoff; guard activity and steps are reported under
    /// `names`.
    pub(crate) fn run_epoch(
        &mut self,
        problem: &ProblemInstance,
        windows: &[WindowIndex],
        lr_mult: f32,
        names: &EpochNames,
    ) -> f32 {
        let cfg = &self.cfg;
        let epoch = self.epoch;
        let mut rng = epoch_rng(cfg.seed, epoch);
        // Geometric learning-rate decay, scaled by any guard backoff.
        let decayed_lr = cfg.lr * 0.92f32.powi(epoch as i32);
        self.opt.set_lr(decayed_lr * self.lr_scale * lr_mult);
        // 1. Draw this epoch's mask. Both draws advance the RNG, so the
        //    reference random draw runs although it is a diagnostic only.
        let masked = match cfg.masking {
            MaskingMode::Selective => self.masking.draw_selective(&mut rng),
            MaskingMode::Random => self.masking.draw_random(&mut rng),
        };
        self.sim_used += self.masking.mean_masked_similarity(&masked);
        self.sim_random += self.masking.mean_masked_similarity(&self.masking.draw_random(&mut rng));
        let observed = &problem.observed;
        let n_obs = observed.len();
        let masked_locals: Vec<usize> = (0..n_obs).filter(|&i| masked[i]).collect();
        let unmasked_locals: Vec<usize> = (0..n_obs).filter(|&i| !masked[i]).collect();
        let masked_globals: Vec<usize> = masked_locals.iter().map(|&l| observed[l]).collect();
        let unmasked_globals: Vec<usize> = unmasked_locals.iter().map(|&l| observed[l]).collect();
        // 2. Pseudo-observation weights for the masked locations, plus the
        //    unmasked series rows that pseudo-observations blend from
        //    (gathered once per epoch; windows blend strided views of it).
        let pseudo_weights = pseudo_weights_for(problem, &masked_globals, &unmasked_globals);
        let unmasked_rows = problem.gather_rows(&unmasked_globals);
        // 3. Per-epoch DTW adjacency (Eq. links rebuilt because the masked
        //    set changed).
        let a_dtw = {
            let _span = telemetry::span("stsm.adj.dtw");
            Arc::new(CsrLinMap::new(normalize_gcn(&self.dtw.train_adjacency(
                &masked,
                &pseudo_weights,
                cfg.q_kk,
                cfg.q_ku,
            ))))
        };
        let mask = EpochMask { masked_locals, unmasked_rows, pseudo_weights, a_dtw };
        // 4. Sample windows and run batches.
        let mut order: Vec<usize> = (0..windows.len()).collect();
        order.shuffle(&mut rng);
        order.truncate(cfg.windows_per_epoch.max(cfg.batch_windows));
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        let mut consecutive_bad = 0u32;
        for chunk in order.chunks(cfg.batch_windows) {
            if chunk.len() < 2 && cfg.contrastive {
                continue; // contrastive batches need at least 2 windows
            }
            let (loss_v, mut grads) = self.batch_loss_and_grads(problem, &mask, windows, chunk);
            let norm = clip_grad_norm(&mut grads, 5.0);
            let bad = cfg.guard.enabled
                && (!loss_v.is_finite()
                    || !norm.is_finite()
                    || self.guard.is_spike(loss_v, &cfg.guard));
            if bad {
                telemetry::count(names.skipped_batches, 1);
                self.resilience.skipped_batches += 1;
                consecutive_bad += 1;
                if consecutive_bad >= cfg.guard.max_consecutive_bad {
                    consecutive_bad = 0;
                    if self.resilience.rollbacks < cfg.guard.max_rollbacks {
                        // Roll back to the last epoch boundary with a
                        // backed-off learning rate. Stepped gradients are
                        // norm-bounded, so the snapshot state is always
                        // finite and loadable.
                        self.store.load_from(&self.snap_params).expect("snapshot layout matches");
                        self.opt
                            .load_state(self.snap_adam.clone(), &self.store)
                            .expect("snapshot state valid");
                        self.lr_scale *= cfg.guard.lr_backoff;
                        self.opt.set_lr(decayed_lr * self.lr_scale * lr_mult);
                        self.resilience.rollbacks += 1;
                        telemetry::count(names.rollbacks, 1);
                    }
                }
                continue;
            }
            consecutive_bad = 0;
            self.guard.observe(loss_v);
            {
                let _t = telemetry::span(names.step);
                self.opt.step(&mut self.store, &grads);
            }
            epoch_loss += loss_v;
            batches += 1;
        }
        let mean = if batches > 0 {
            epoch_loss / batches as f32
        } else {
            // No usable batch this epoch: keep the loss series finite by
            // repeating the last finite loss and record the skip explicitly
            // (this also covers the old zero-batch NaN case).
            self.resilience.skipped_epochs.push(epoch);
            telemetry::count(names.skipped_epochs, 1);
            self.epoch_losses.iter().rev().copied().find(|l| l.is_finite()).unwrap_or(0.0)
        };
        self.epoch_losses.push(mean);
        // Refresh the rollback target at the epoch boundary.
        self.snap_params = self.store.clone();
        self.snap_adam = self.opt.state();
        self.epoch += 1;
        self.resilience.lr_scale = self.lr_scale;
        mean
    }

    /// Computes the batch loss and raw parameter gradients *without*
    /// stepping — the divergence guard decides whether the step happens.
    /// The tape (and with it the immutable parameter borrow) is dropped
    /// before returning.
    fn batch_loss_and_grads(
        &self,
        problem: &ProblemInstance,
        mask: &EpochMask,
        windows: &[WindowIndex],
        chunk: &[usize],
    ) -> (f32, Vec<(stsm_tensor::ParamId, Tensor)>) {
        let (cfg, model, obs_rows, a_s) = (&self.cfg, &self.model, &self.obs_rows, &self.a_s);
        let a_dtw = &mask.a_dtw;
        let tape = Tape::new();
        let mut binder = ParamBinder::new(&tape);
        let mut fwd = Fwd::new(&self.store, &mut binder);
        let spd = problem.steps_per_day();
        let mut pred_losses: Vec<Var> = Vec::with_capacity(chunk.len());
        let mut z_orig: Vec<Var> = Vec::with_capacity(chunk.len());
        let mut z_masked: Vec<Var> = Vec::with_capacity(chunk.len());
        for &wi in chunk {
            let w = windows[wi];
            let abs_start = problem.train_time.start + w.input_start;
            let gather_t = telemetry::span("train.gather");
            let x_masked =
                mask_window(obs_rows, mask, abs_start, cfg.t_in, cfg.pseudo_observations);
            // The unmasked full window is only materialized when the
            // contrastive branch actually feeds it to a second forward pass.
            let x_full =
                cfg.contrastive.then(|| window_tensor(&window_view(obs_rows, abs_start, cfg.t_in)));
            let y = window_tensor(&window_view(obs_rows, abs_start + cfg.t_in, cfg.t_out));
            let tf = StModel::time_features(abs_start, cfg.t_in, spd);
            drop(gather_t);
            let _fwd_t = telemetry::span("train.forward");
            let out_m: ForwardOutput = model.forward(&mut fwd, &x_masked, &tf, a_s, a_dtw);
            let lp = fwd.tape().mse_loss(out_m.prediction, &y);
            pred_losses.push(lp);
            if let Some(x_full) = &x_full {
                // The full view feeds only the contrastive term: its readout
                // alone, over the readout's receptive field.
                z_orig.push(model.forward_readout(&mut fwd, x_full, &tf, a_s, a_dtw));
                z_masked.push(out_m.graph_repr);
            }
        }
        // Mean prediction loss over the batch.
        let mut loss = pred_losses[0];
        for &l in &pred_losses[1..] {
            loss = tape.add(loss, l);
        }
        loss = tape.mul_scalar(loss, 1.0 / pred_losses.len() as f32);
        if cfg.contrastive && z_orig.len() >= 2 {
            let zo = tape.concat(&z_orig, 0);
            let zm = tape.concat(&z_masked, 0);
            let lcl = nt_xent(&tape, zo, zm, cfg.tau);
            let lcl = tape.mul_scalar(lcl, cfg.lambda);
            loss = tape.add(loss, lcl);
        }
        let _bwd_t = telemetry::span("train.backward");
        tape.backward(loss);
        (tape.value(loss).item(), binder.grads())
    }
}

/// Trains an STSM variant on a problem instance (no checkpointing).
pub fn train_stsm(
    problem: &ProblemInstance,
    cfg: &StsmConfig,
) -> Result<(TrainedStsm, TrainReport), StsmError> {
    train_stsm_with(problem, cfg, &TrainOptions::default())
}

/// Trains an STSM variant with checkpoint/resume control. See
/// [`TrainOptions`]; `train_stsm` is the no-checkpointing shorthand.
pub fn train_stsm_with(
    problem: &ProblemInstance,
    cfg: &StsmConfig,
    opts: &TrainOptions,
) -> Result<(TrainedStsm, TrainReport), StsmError> {
    let start = Instant::now();
    // Training windows (input + target inside the training period).
    let span = problem.train_time.len();
    let windows: Vec<WindowIndex> = sliding_windows(span, cfg.t_in, cfg.t_out, 1);
    let mut state = EpochState::new(problem, cfg, None)?;
    if windows.is_empty() {
        return Err(StsmError::TrainingPeriodTooShort { span, needed: cfg.t_in + cfg.t_out });
    }
    if let Some(path) = opts.checkpoint_path.as_ref().filter(|p| opts.resume && p.exists()) {
        state.restore(&TrainCheckpoint::load(path)?)?;
    }
    let end_epoch = opts.stop_after_epoch.map_or(cfg.epochs, |m| m.min(cfg.epochs));
    while state.epoch < end_epoch {
        let epoch_t0 = Instant::now();
        let phases_before = epoch_phase_totals();
        state.run_epoch(problem, &windows, 1.0, &TRAIN_NAMES);
        // Persist the boundary if checkpointing is on.
        if let Some(path) = &opts.checkpoint_path {
            if state.epoch % opts.checkpoint_every.max(1) == 0 || state.epoch == end_epoch {
                state.checkpoint().save_atomic(path)?;
                state.resilience.checkpoints_written += 1;
                telemetry::count("train.checkpoint.written", 1);
            }
        }
        record_epoch_phases(&phases_before);
        telemetry::record_duration("train.epoch", epoch_t0.elapsed());
    }
    let EpochState {
        cfg, store, model, epoch, epoch_losses, sim_used, sim_random, resilience, ..
    } = state;
    // Table 8's means are over the epochs that ran, resumed ones included.
    let epochs_run = epoch.max(1) as f32;
    let report = TrainReport {
        epoch_losses,
        train_seconds: start.elapsed().as_secs_f64(),
        mean_masked_similarity: sim_used / epochs_run,
        mean_random_similarity: sim_random / epochs_run,
        resilience,
        telemetry: telemetry::enabled().then(telemetry::snapshot),
    };
    Ok((TrainedStsm { cfg, store, model }, report))
}

/// Span names of the four training phases timed inside every batch, in the
/// order they appear in `batch_loss_and_grads` / the step site.
const EPOCH_PHASES: [&str; 4] = ["train.gather", "train.forward", "train.backward", "train.step"];

/// Per-phase `total_nanos` so far, used to turn cumulative span totals into
/// per-epoch deltas.
fn epoch_phase_totals() -> [u64; 4] {
    EPOCH_PHASES.map(|name| telemetry::span_totals(name).1)
}

/// Records one histogram sample per phase for the epoch that just finished
/// (`train.epoch.gather` etc.) from the span-total deltas. No-op when
/// telemetry is off.
fn record_epoch_phases(before: &[u64; 4]) {
    if !telemetry::enabled() {
        return;
    }
    const EPOCH_HISTS: [&str; 4] =
        ["train.epoch.gather", "train.epoch.forward", "train.epoch.backward", "train.epoch.step"];
    let after = epoch_phase_totals();
    for i in 0..4 {
        telemetry::record_nanos(EPOCH_HISTS[i], after[i].saturating_sub(before[i]));
    }
}

/// A `(rows, len)` stride-aware view of the time window `[start, start+len)`
/// inside a pre-gathered `(rows, T_total)` row matrix — no data is copied.
fn window_view(rows: &Tensor, start: usize, len: usize) -> TensorView<'_> {
    telemetry::count("train.gather.view", 1);
    rows.view().slice(1, start, start + len)
}

/// Materializes a window view as a `(rows, len, 1)` tensor for consumers
/// that need an owned tensor (loss targets, the contrastive second pass).
fn window_tensor(w: &TensorView<'_>) -> Tensor {
    telemetry::count("train.gather.copy", 1);
    let (rows, len) = (w.dim(0), w.dim(1));
    w.to_tensor().reshape([rows, len, 1])
}

/// Builds the masked `(N_o, len, 1)` input window `[start, start + len)`
/// of the contiguous `(N_o, T_total)` row matrix `obs_rows`: unmasked rows
/// are copied straight out of it, masked rows get pseudo-observations
/// blended from strided views of the unmasked row matrix (Eq. 3).
fn mask_window(
    obs_rows: &Tensor,
    mask: &EpochMask,
    start: usize,
    len: usize,
    pseudo_observations: bool,
) -> Tensor {
    let EpochMask { masked_locals, unmasked_rows, pseudo_weights, .. } = mask;
    let (n_obs, t_total) = (obs_rows.dim(0), obs_rows.dim(1));
    let n_unmasked = unmasked_rows.dim(0);
    let pseudo = if masked_locals.is_empty() {
        Vec::new()
    } else if pseudo_observations && n_unmasked > 0 {
        blend_series_strided(
            pseudo_weights,
            unmasked_rows.data(),
            n_unmasked,
            len,
            unmasked_rows.dim(1),
            start,
        )
    } else {
        vec![0.0f32; masked_locals.len() * len]
    };
    let src = obs_rows.data();
    let mut data = stsm_tensor::alloc::buf_with_capacity(n_obs * len);
    // `masked_locals` is sorted ascending, so one pointer sweep interleaves
    // pseudo rows with source rows in output order.
    let mut mi = 0usize;
    for r in 0..n_obs {
        if mi < masked_locals.len() && masked_locals[mi] == r {
            data.extend_from_slice(&pseudo[mi * len..(mi + 1) * len]);
            mi += 1;
        } else {
            let row = r * t_total + start;
            data.extend_from_slice(&src[row..row + len]);
        }
    }
    Tensor::from_vec([n_obs, len, 1], data)
}

impl TrainedStsm {
    /// Assembles a trained model from parts whose store/architecture
    /// consistency the caller has already established (the online trainer's
    /// snapshot path).
    pub(crate) fn from_parts(cfg: StsmConfig, store: ParamStore, model: StModel) -> Self {
        TrainedStsm { cfg, store, model }
    }

    /// The underlying spatial-temporal network.
    pub fn model_ref(&self) -> &StModel {
        &self.model
    }

    /// Serializes configuration + parameters to JSON.
    pub fn to_json(&self) -> String {
        serde_json::json!({
            "config": self.cfg,
            "params": serde_json::from_str::<serde_json::Value>(&self.store.to_json())
                .expect("params serialize"),
        })
        .to_string()
    }

    /// Restores a trained model from [`TrainedStsm::to_json`] output.
    ///
    /// The persisted parameters are validated against the architecture the
    /// persisted config declares: mismatched parameter counts, names or
    /// shapes are rejected with [`StsmError::ParamLayout`] instead of
    /// silently copying or panicking.
    pub fn from_json(json: &str) -> Result<Self, StsmError> {
        let v: serde_json::Value = serde_json::from_str(json)?;
        let cfg: StsmConfig = serde_json::from_value(v["config"].clone())?;
        let store = ParamStore::from_json(&v["params"].to_string())?;
        // Rebuild the architecture, then overwrite with the trained weights.
        let mut fresh = ParamStore::new();
        let model = StModel::new(&mut fresh, &cfg);
        fresh.load_from(&store)?;
        Ok(TrainedStsm { cfg, store: fresh, model })
    }
}

/// Evaluates a trained model on the unobserved region over the test period.
///
/// Inference runs forward-only through a bind-once [`crate::Predictor`]: the
/// parameters are bound to the Infer session a single time and every test
/// window reuses the same workspace. Each window's input is scanned for
/// non-finite readings and sanitized if needed; the aggregated
/// [`DataQuality`] lands in the report (all zeros for clean data, in which
/// case the forecasts are bitwise identical to unsanitized evaluation).
pub fn evaluate_stsm(
    trained: &TrainedStsm,
    problem: &ProblemInstance,
) -> Result<EvalReport, StsmError> {
    let start = Instant::now();
    let predictor = crate::Predictor::new(trained, problem);
    evaluate_with_predictor(predictor, problem, start)
}

/// Evaluates a quantized model on the unobserved region over the test period.
///
/// Identical protocol to [`evaluate_stsm`] — same windows, same checked
/// inference path, same metrics — with the forward running over f16/bf16
/// weight storage (f32 compute). The `quantized_equivalence` suite gates the
/// resulting RMSE to stay within [`crate::QUANT_RMSE_REL_EPSILON`]
/// (relative) of the f32 evaluation.
pub fn evaluate_quantized(
    quantized: &crate::QuantizedStsm,
    problem: &ProblemInstance,
) -> Result<EvalReport, StsmError> {
    let start = Instant::now();
    let predictor = crate::Predictor::new_quantized(quantized, problem);
    evaluate_with_predictor(predictor, problem, start)
}

/// Shared evaluation loop behind [`evaluate_stsm`] and
/// [`evaluate_quantized`]: runs checked inference over non-overlapping test
/// windows and aggregates metrics + data quality. `start` is the caller's
/// clock so `test_seconds` includes predictor construction (adjacency and
/// session build), as it always has.
fn evaluate_with_predictor(
    mut predictor: crate::Predictor<'_>,
    problem: &ProblemInstance,
    start: Instant,
) -> Result<EvalReport, StsmError> {
    let (t_in, t_out) = (predictor.cfg().t_in, predictor.cfg().t_out);
    // Non-overlapping windows across the test period.
    let span = problem.test_time.len();
    let windows = sliding_windows(span, t_in, t_out, t_out);
    if windows.is_empty() {
        return Err(StsmError::TestPeriodTooShort { span, needed: t_in + t_out });
    }
    let mut preds = Vec::new();
    let mut truths = Vec::new();
    let mut quality = DataQuality::default();
    for w in &windows {
        let abs_start = problem.test_time.start + w.input_start;
        let (pred, wq) = predictor.predict_window_checked(problem, abs_start);
        quality.merge(&wq);
        let target_start = abs_start + t_in;
        for &u in &problem.unobserved {
            for p in 0..t_out {
                preds.push(problem.scaler.inverse(pred.at(&[u, p, 0])));
                truths.push(problem.dataset.value(u, target_start + p));
            }
        }
    }
    let metrics = Metrics::compute(&preds, &truths);
    Ok(EvalReport {
        metrics,
        test_seconds: start.elapsed().as_secs_f64(),
        windows: windows.len(),
        quality,
        telemetry: telemetry::enabled().then(telemetry::snapshot),
    })
}

/// A naive "historical average by time of day" baseline used in tests to
/// check that trained models carry real signal: it predicts the
/// time-of-day mean of the *observed* locations for every unobserved one.
pub fn historical_average_metrics(problem: &ProblemInstance) -> Metrics {
    let spd = problem.steps_per_day();
    let mut tod_sum = vec![0.0f64; spd];
    let mut tod_cnt = vec![0usize; spd];
    for &g in &problem.observed {
        for t in problem.train_time.clone() {
            let v = problem.dataset.value(g, t);
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
    let mut preds = Vec::new();
    let mut truths = Vec::new();
    for &u in &problem.unobserved {
        for t in problem.test_time.clone() {
            preds.push(tod_mean[t % spd]);
            truths.push(problem.dataset.value(u, t));
        }
    }
    Metrics::compute(&preds, &truths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use stsm_synth::{space_split, DatasetConfig, NetworkKind, SignalKind, SplitAxis};

    fn tiny_problem(seed: u64) -> ProblemInstance {
        let d = DatasetConfig {
            name: "tiny".into(),
            network: NetworkKind::Highway,
            sensors: 24,
            extent: 10_000.0,
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
        ProblemInstance::new(d, split, crate::config::DistanceMode::Euclidean)
    }

    fn tiny_cfg() -> StsmConfig {
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
            ..Default::default()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let p = tiny_problem(21);
        let cfg = tiny_cfg();
        let (_, report) = train_stsm(&p, &cfg).expect("trains");
        assert_eq!(report.epoch_losses.len(), 4);
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < first, "loss should drop: {first} -> {last}");
        assert!(report.train_seconds > 0.0);
        assert!(report.resilience.is_clean(), "clean data must not trip the guard");
    }

    #[test]
    fn evaluation_produces_finite_metrics() {
        let p = tiny_problem(22);
        let cfg = tiny_cfg();
        let (trained, _) = train_stsm(&p, &cfg).expect("trains");
        let eval = evaluate_stsm(&trained, &p).expect("evaluates");
        assert!(eval.metrics.rmse.is_finite() && eval.metrics.rmse > 0.0);
        assert!(eval.metrics.mae <= eval.metrics.rmse);
        assert!(eval.windows >= 1);
        assert!(eval.quality.is_clean(), "synthetic data is clean");
    }

    #[test]
    fn all_variants_train_and_evaluate() {
        let p = tiny_problem(23);
        for v in [Variant::StsmRnc, Variant::StsmNc, Variant::StsmR, Variant::StsmTrans] {
            let cfg = tiny_cfg().with_variant(v);
            let (trained, _) = train_stsm(&p, &cfg).expect("trains");
            let eval = evaluate_stsm(&trained, &p).expect("evaluates");
            assert!(eval.metrics.rmse.is_finite(), "{} produced NaN", v.name());
        }
    }

    #[test]
    fn serialization_roundtrip_preserves_predictions() {
        let p = tiny_problem(24);
        let cfg = tiny_cfg();
        let (trained, _) = train_stsm(&p, &cfg).expect("trains");
        let json = trained.to_json();
        let restored = TrainedStsm::from_json(&json).expect("roundtrip");
        let e1 = evaluate_stsm(&trained, &p).expect("evaluates");
        let e2 = evaluate_stsm(&restored, &p).expect("evaluates");
        assert!((e1.metrics.rmse - e2.metrics.rmse).abs() < 1e-9);
    }

    #[test]
    fn from_json_rejects_mismatched_architectures() {
        let p = tiny_problem(27);
        let cfg = tiny_cfg();
        let (trained, _) = train_stsm(&p, &cfg).expect("trains");
        // Rewrite the persisted config to declare a wider model than the
        // persisted parameters actually are.
        let json = trained.to_json().replace("\"hidden\":8", "\"hidden\":16");
        match TrainedStsm::from_json(&json) {
            Err(StsmError::ParamLayout(e)) => {
                assert!(!e.to_string().is_empty());
            }
            other => panic!("expected ParamLayout error, got {:?}", other.err()),
        }
        // Garbage is a serde error, not a panic.
        assert!(matches!(TrainedStsm::from_json("{not json"), Err(StsmError::Serde(_))));
    }

    #[test]
    fn short_periods_and_few_sensors_are_typed_errors() {
        let p = tiny_problem(28);
        let mut cfg = tiny_cfg();
        cfg.t_in = 200;
        cfg.t_out = 200;
        match train_stsm(&p, &cfg) {
            Err(StsmError::TrainingPeriodTooShort { needed, .. }) => assert_eq!(needed, 400),
            other => panic!("expected TrainingPeriodTooShort, got {:?}", other.err()),
        }
        let (trained, _) = train_stsm(&p, &tiny_cfg()).expect("trains");
        let mut wide = trained;
        wide.cfg.t_in = 100;
        wide.cfg.t_out = 100;
        assert!(matches!(evaluate_stsm(&wide, &p), Err(StsmError::TestPeriodTooShort { .. })));
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let p = tiny_problem(25);
        let cfg = tiny_cfg();
        let (t1, r1) = train_stsm(&p, &cfg).expect("trains");
        let (t2, r2) = train_stsm(&p, &cfg).expect("trains");
        assert_eq!(r1.epoch_losses, r2.epoch_losses);
        let e1 = evaluate_stsm(&t1, &p).expect("evaluates");
        let e2 = evaluate_stsm(&t2, &p).expect("evaluates");
        assert_eq!(e1.metrics.rmse, e2.metrics.rmse);
    }

    #[test]
    fn beats_noise_baseline_on_r2() {
        // The trained model should not be wildly worse than the historical
        // time-of-day average (a sanity floor, not a benchmark).
        let p = tiny_problem(26);
        let mut cfg = tiny_cfg();
        cfg.epochs = 8;
        cfg.windows_per_epoch = 16;
        let (trained, _) = train_stsm(&p, &cfg).expect("trains");
        let eval = evaluate_stsm(&trained, &p).expect("evaluates");
        let ha = historical_average_metrics(&p);
        assert!(
            eval.metrics.rmse < ha.rmse * 1.5,
            "model rmse {} vs historical-average {}",
            eval.metrics.rmse,
            ha.rmse
        );
    }
}
