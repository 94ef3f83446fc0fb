//! Online adaptation (§ DESIGN.md 4j): warm fine-tuning over a sliding
//! horizon of recent windows, resuming from a [`TrainCheckpoint`] or a
//! [`TrainedStsm`].
//!
//! [`OnlineTrainer`] replays the batch trainer's epoch machinery — same
//! per-epoch RNG derivation, same mask → pseudo-weights → DTW-adjacency →
//! shuffled-batch order, same divergence guard and rollback snapshots — but
//! restricts each epoch's window pool to the last
//! [`OnlineConfig::replay_windows`] windows ending before `now`. When the
//! replay horizon covers the full training window set (and
//! `lr_scale == 1.0`), one [`OnlineTrainer::fine_tune_epoch`] call is
//! bitwise identical to the corresponding batch-resume epoch; the
//! `online_equivalence` suite enforces this.
//!
//! Telemetry lands under `online.*` (`online.fine_tune` span,
//! `online.fine_tune_epochs` / `online.guard.*` counters), mirroring the
//! batch trainer's `train.*` namespace.

use crate::checkpoint::{config_fingerprint, CheckpointError, TrainCheckpoint};
use crate::config::{MaskingMode, StsmConfig};
use crate::error::StsmError;
use crate::masking::MaskingContext;
use crate::model::StModel;
use crate::problem::ProblemInstance;
use crate::pseudo::masked_inverse_distance_weights;
use crate::resilience::ResilienceReport;
use crate::temporal_adj::{pseudo_weights_for, DtwContext};
use crate::trainer::{batch_loss_and_grads, epoch_rng, GuardState, TrainedStsm};
use rand::seq::SliceRandom;
use std::sync::Arc;
use stsm_graph::{normalize_gcn, CsrLinMap};
use stsm_tensor::optim::{clip_grad_norm, Adam, AdamState, Optimizer};
use stsm_tensor::telemetry;
use stsm_tensor::{ParamStore, Tensor};
use stsm_timeseries::{sliding_windows, WindowIndex};

/// Knobs of the online fine-tuning loop. Environment overrides (all
/// optional) are read by [`OnlineConfig::from_env`]:
///
/// | Variable | Field | Meaning |
/// |---|---|---|
/// | `STSM_ONLINE_REPLAY` | `replay_windows` | Bounded replay: windows kept per fine-tune epoch |
/// | `STSM_ONLINE_LR_SCALE` | `lr_scale` | Extra multiplier on the batch lr schedule |
/// | `STSM_ONLINE_REFRESH` | `refresh_every` | Ingested windows between fine-tune + hot-swap rounds |
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineConfig {
    /// Bounded replay: each fine-tune epoch samples from at most this many
    /// of the most recent training windows.
    pub replay_windows: usize,
    /// Multiplier applied on top of the batch schedule
    /// `cfg.lr · 0.92^epoch · guard_backoff`. `1.0` keeps fine-tune steps
    /// bitwise on the batch trajectory; smaller values adapt more gently.
    pub lr_scale: f32,
    /// How many ingested windows between refresh rounds when an external
    /// driver (serve hook, `bench_online`, `stsm online`) paces the loop.
    pub refresh_every: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig { replay_windows: 64, lr_scale: 1.0, refresh_every: 8 }
    }
}

impl OnlineConfig {
    /// Defaults overridden by any `STSM_ONLINE_*` variables present (and
    /// parseable) in the environment.
    pub fn from_env() -> Self {
        let mut cfg = OnlineConfig::default();
        if let Some(v) = env_parse::<usize>("STSM_ONLINE_REPLAY") {
            cfg.replay_windows = v.max(1);
        }
        if let Some(v) = env_parse::<f32>("STSM_ONLINE_LR_SCALE") {
            if v.is_finite() && v > 0.0 {
                cfg.lr_scale = v;
            }
        }
        if let Some(v) = env_parse::<usize>("STSM_ONLINE_REFRESH") {
            cfg.refresh_every = v.max(1);
        }
        cfg
    }
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

/// Warm fine-tuner: the batch trainer's epoch loop, lifted to an object so
/// a long-running service can interleave ingestion with adaptation.
///
/// Construction restores parameters, Adam moments, guard EMA and lr backoff
/// exactly the way `train_stsm_with`'s resume path does, so the first
/// fine-tune step continues the batch trajectory bit-for-bit (given a full
/// replay horizon). Epochs advance the same `(seed, epoch)` RNG schedule
/// the batch trainer would have used.
pub struct OnlineTrainer {
    cfg: StsmConfig,
    online: OnlineConfig,
    store: ParamStore,
    model: StModel,
    opt: Adam,
    guard: GuardState,
    lr_scale: f32,
    epoch: usize,
    epoch_losses: Vec<f32>,
    sim_used: f32,
    sim_random: f32,
    resilience: ResilienceReport,
    snap_params: ParamStore,
    snap_adam: AdamState,
    fingerprint: u64,
    // Problem assets, built once (same construction as the batch trainer).
    observed: Vec<usize>,
    obs_rows: Tensor,
    a_s: Arc<CsrLinMap>,
    masking: MaskingContext,
    dtw: DtwContext,
}

impl OnlineTrainer {
    /// Resumes from a persisted [`TrainCheckpoint`], validating its config
    /// fingerprint against `cfg` and restoring parameters, optimizer
    /// moments, guard state and lr backoff exactly like the batch resume
    /// path.
    pub fn from_checkpoint(
        problem: &ProblemInstance,
        cfg: &StsmConfig,
        online: OnlineConfig,
        ck: &TrainCheckpoint,
    ) -> Result<Self, StsmError> {
        cfg.validate();
        let fingerprint = config_fingerprint(
            &serde_json::to_string(cfg).expect("config serialization cannot fail"),
        );
        if ck.config_fingerprint != fingerprint {
            return Err(CheckpointError::ConfigMismatch.into());
        }
        let mut store = ParamStore::new();
        let model = StModel::new(&mut store, cfg);
        let mut opt = Adam::new(cfg.lr).with_weight_decay(1e-4);
        store.load_from(&ck.params)?;
        opt.load_state(ck.adam.clone(), &store)
            .map_err(|e| StsmError::Checkpoint(CheckpointError::Malformed(e)))?;
        let mut guard = GuardState::new();
        guard.restore(&ck.guard);
        let resilience = ResilienceReport {
            skipped_batches: ck.guard.skipped_batches,
            rollbacks: ck.guard.rollbacks,
            skipped_epochs: ck.guard.skipped_epochs.clone(),
            lr_scale: ck.lr_scale,
            resumed_from_epoch: Some(ck.epochs_done),
            ..ResilienceReport::default()
        };
        Self::build(
            problem,
            cfg.clone(),
            online,
            store,
            model,
            opt,
            guard,
            ck.lr_scale,
            ck.epochs_done,
            ck.epoch_losses.clone(),
            ck.sim_used,
            ck.sim_random,
            resilience,
            fingerprint,
        )
    }

    /// Wraps an already-trained model for continued adaptation. Adam
    /// moments were not persisted in [`TrainedStsm`], so the optimizer
    /// starts cold; epoch numbering continues after `cfg.epochs` to keep
    /// the lr schedule decaying rather than restarting.
    pub fn from_trained(
        problem: &ProblemInstance,
        trained: &TrainedStsm,
        online: OnlineConfig,
    ) -> Result<Self, StsmError> {
        let cfg = trained.cfg.clone();
        cfg.validate();
        let fingerprint = config_fingerprint(
            &serde_json::to_string(&cfg).expect("config serialization cannot fail"),
        );
        let mut store = ParamStore::new();
        let model = StModel::new(&mut store, &cfg);
        store.load_from(&trained.store)?;
        let opt = Adam::new(cfg.lr).with_weight_decay(1e-4);
        let epochs_done = cfg.epochs;
        Self::build(
            problem,
            cfg,
            online,
            store,
            model,
            opt,
            GuardState::new(),
            1.0,
            epochs_done,
            Vec::new(),
            0.0,
            0.0,
            ResilienceReport { lr_scale: 1.0, ..ResilienceReport::default() },
            fingerprint,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        problem: &ProblemInstance,
        cfg: StsmConfig,
        online: OnlineConfig,
        store: ParamStore,
        model: StModel,
        opt: Adam,
        guard: GuardState,
        lr_scale: f32,
        epoch: usize,
        epoch_losses: Vec<f32>,
        sim_used: f32,
        sim_random: f32,
        resilience: ResilienceReport,
        fingerprint: u64,
    ) -> Result<Self, StsmError> {
        let observed = problem.observed.clone();
        if observed.len() < 4 {
            return Err(StsmError::TooFewObserved { got: observed.len(), needed: 4 });
        }
        let obs_rows = problem.gather_rows(&observed);
        let a_s = Arc::new(CsrLinMap::new(normalize_gcn(
            &problem.spatial_adjacency(&observed, cfg.epsilon_s),
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
        Ok(OnlineTrainer {
            cfg,
            online,
            store,
            model,
            opt,
            guard,
            lr_scale,
            epoch,
            epoch_losses,
            sim_used,
            sim_random,
            resilience,
            snap_params,
            snap_adam,
            fingerprint,
            observed,
            obs_rows,
            a_s,
            masking,
            dtw,
        })
    }

    /// Runs one fine-tune epoch over the replay horizon ending at absolute
    /// step `now` (exclusive; clamped to the gathered series length and
    /// floored at the training-period start). Returns the epoch's mean
    /// batch loss.
    ///
    /// With `now == problem.train_time.end`, `replay_windows` ≥ the full
    /// training window count and `lr_scale == 1.0`, this epoch is bitwise
    /// the batch trainer's epoch `self.epochs_done()` — identical RNG
    /// stream, window order, gradients and optimizer update.
    pub fn fine_tune_epoch(
        &mut self,
        problem: &ProblemInstance,
        now: usize,
    ) -> Result<f32, StsmError> {
        let _span = telemetry::span("online.fine_tune");
        let cfg = self.cfg.clone();
        let end = now.min(self.obs_rows.dim(1));
        let span = end.saturating_sub(problem.train_time.start);
        let all: Vec<WindowIndex> = sliding_windows(span, cfg.t_in, cfg.t_out, 1);
        if all.is_empty() {
            return Err(StsmError::TrainingPeriodTooShort { span, needed: cfg.t_in + cfg.t_out });
        }
        // Bounded replay: keep only the most recent windows.
        let skip = all.len().saturating_sub(self.online.replay_windows.max(1));
        let windows: Vec<WindowIndex> = all[skip..].to_vec();
        let epoch = self.epoch;
        let mut rng = epoch_rng(cfg.seed, epoch);
        self.opt.set_lr(cfg.lr * 0.92f32.powi(epoch as i32) * self.lr_scale * self.online.lr_scale);
        // Mask draw + similarity accounting — both draws advance the RNG, so
        // they must run even though the similarities are diagnostics only.
        let masked = match cfg.masking {
            MaskingMode::Selective => self.masking.draw_selective(&mut rng),
            MaskingMode::Random => self.masking.draw_random(&mut rng),
        };
        self.sim_used += self.masking.mean_masked_similarity(&masked);
        self.sim_random += self.masking.mean_masked_similarity(&self.masking.draw_random(&mut rng));
        let n_obs = self.observed.len();
        let masked_locals: Vec<usize> = (0..n_obs).filter(|&i| masked[i]).collect();
        let unmasked_locals: Vec<usize> = (0..n_obs).filter(|&i| !masked[i]).collect();
        let masked_globals: Vec<usize> = masked_locals.iter().map(|&l| self.observed[l]).collect();
        let unmasked_globals: Vec<usize> =
            unmasked_locals.iter().map(|&l| self.observed[l]).collect();
        let pw = pseudo_weights_for(problem, &masked_globals, &unmasked_globals);
        let unmasked_rows = problem.gather_rows(&unmasked_globals);
        let a_dtw = {
            let _span = telemetry::span("stsm.adj.dtw");
            Arc::new(CsrLinMap::new(normalize_gcn(
                &self.dtw.train_adjacency(&masked, &pw, cfg.q_kk, cfg.q_ku),
            )))
        };
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
            let (loss_v, mut grads) = batch_loss_and_grads(
                problem,
                &cfg,
                &self.model,
                &self.store,
                &masked_locals,
                &unmasked_rows,
                &pw,
                &self.a_s,
                &a_dtw,
                &windows,
                chunk,
                &self.obs_rows,
            );
            let norm = clip_grad_norm(&mut grads, 5.0);
            let bad = cfg.guard.enabled
                && (!loss_v.is_finite()
                    || !norm.is_finite()
                    || self.guard.is_spike(loss_v, &cfg.guard));
            if bad {
                telemetry::count("online.guard.skipped_batches", 1);
                self.resilience.skipped_batches += 1;
                consecutive_bad += 1;
                if consecutive_bad >= cfg.guard.max_consecutive_bad {
                    consecutive_bad = 0;
                    if self.resilience.rollbacks < cfg.guard.max_rollbacks {
                        self.store.load_from(&self.snap_params).expect("snapshot layout matches");
                        self.opt
                            .load_state(self.snap_adam.clone(), &self.store)
                            .expect("snapshot state valid");
                        self.lr_scale *= cfg.guard.lr_backoff;
                        self.opt.set_lr(
                            cfg.lr
                                * 0.92f32.powi(epoch as i32)
                                * self.lr_scale
                                * self.online.lr_scale,
                        );
                        self.resilience.rollbacks += 1;
                        telemetry::count("online.guard.rollbacks", 1);
                    }
                }
                continue;
            }
            consecutive_bad = 0;
            self.guard.observe(loss_v);
            {
                let _t = telemetry::span("online.step");
                self.opt.step(&mut self.store, &grads);
            }
            epoch_loss += loss_v;
            batches += 1;
        }
        let mean = if batches > 0 {
            epoch_loss / batches as f32
        } else {
            let prev =
                self.epoch_losses.iter().rev().copied().find(|l| l.is_finite()).unwrap_or(0.0);
            self.resilience.skipped_epochs.push(epoch);
            telemetry::count("online.guard.skipped_epochs", 1);
            prev
        };
        self.epoch_losses.push(mean);
        // Refresh the rollback target at the epoch boundary.
        self.snap_params = self.store.clone();
        self.snap_adam = self.opt.state();
        self.epoch += 1;
        self.resilience.lr_scale = self.lr_scale;
        telemetry::count("online.fine_tune_epochs", 1);
        Ok(mean)
    }

    /// Snapshots the current parameters as a deployable [`TrainedStsm`]
    /// (fresh store + architecture, loaded from the live weights) — the
    /// payload for `Server::swap_model`.
    pub fn trained(&self) -> Result<TrainedStsm, StsmError> {
        let mut fresh = ParamStore::new();
        let model = StModel::new(&mut fresh, &self.cfg);
        fresh.load_from(&self.store)?;
        Ok(TrainedStsm::from_parts(self.cfg.clone(), fresh, model))
    }

    /// Serializes the current state as a [`TrainCheckpoint`] (last epoch
    /// boundary, like the batch trainer persists).
    pub fn checkpoint(&self) -> TrainCheckpoint {
        TrainCheckpoint {
            config_fingerprint: self.fingerprint,
            epochs_done: self.epoch,
            lr_scale: self.lr_scale,
            sim_used: self.sim_used,
            sim_random: self.sim_random,
            epoch_losses: self.epoch_losses.clone(),
            guard: self.guard.snapshot(&self.resilience),
            params: self.snap_params.clone(),
            adam: self.snap_adam.clone(),
        }
    }

    /// Churn-aware pseudo-observation weights from `targets` to the full
    /// `sources` layout, zeroing dead sources: surviving columns are
    /// bitwise what a fresh fit on the compacted survivor set yields (see
    /// [`masked_inverse_distance_weights`]).
    pub fn churn_pseudo_weights(
        problem: &ProblemInstance,
        targets: &[usize],
        sources: &[usize],
        alive: &[bool],
    ) -> Vec<f32> {
        let dist = problem.sub_distances(targets, sources, true);
        masked_inverse_distance_weights(&dist, targets.len(), sources.len(), alive)
    }

    /// The DTW context the trainer fits adjacencies with (for churn-aware
    /// neighbour queries via [`DtwContext::surviving_links`]).
    pub fn dtw(&self) -> &DtwContext {
        &self.dtw
    }

    /// Epochs completed so far (batch + online).
    pub fn epochs_done(&self) -> usize {
        self.epoch
    }

    /// Mean loss per completed epoch (batch history included when resumed
    /// from a checkpoint).
    pub fn epoch_losses(&self) -> &[f32] {
        &self.epoch_losses
    }

    /// Guard / rollback / resume accounting, batch counters carried over.
    pub fn resilience(&self) -> &ResilienceReport {
        &self.resilience
    }

    /// The training configuration (shared with the batch run).
    pub fn config(&self) -> &StsmConfig {
        &self.cfg
    }

    /// The online-loop knobs this trainer was built with.
    pub fn online_config(&self) -> &OnlineConfig {
        &self.online
    }
}
