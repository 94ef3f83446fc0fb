//! Online adaptation (§ DESIGN.md 4j): warm fine-tuning over a sliding
//! horizon of recent windows, resuming from a [`TrainCheckpoint`] or a
//! [`TrainedStsm`].
//!
//! [`OnlineTrainer`] drives the batch trainer's own epoch body
//! (`EpochState::run_epoch` in `trainer.rs`) — same per-epoch RNG
//! derivation, mask → pseudo-weights → DTW-adjacency → shuffled-batch
//! order, divergence guard and rollback snapshots — but hands it only the
//! last [`OnlineConfig::replay_windows`] windows ending before `now`, with
//! [`OnlineConfig::lr_scale`] as an extra lr multiplier. When the replay
//! horizon covers the full training window set (and `lr_scale == 1.0`), one
//! [`OnlineTrainer::fine_tune_epoch`] call is therefore bitwise the
//! corresponding batch-resume epoch; the `online_equivalence` suite checks
//! the replay slice and the checkpoint hand-off that make it so.
//!
//! Telemetry lands under `online.*` (`online.fine_tune` span,
//! `online.step` span, `online.fine_tune_epochs` / `online.guard.*`
//! counters), mirroring the batch trainer's `train.*` namespace.

use crate::checkpoint::TrainCheckpoint;
use crate::config::StsmConfig;
use crate::error::StsmError;
use crate::model::StModel;
use crate::problem::ProblemInstance;
use crate::resilience::ResilienceReport;
use crate::trainer::{EpochNames, EpochState, TrainedStsm};
use stsm_tensor::telemetry;
use stsm_tensor::ParamStore;
use stsm_timeseries::WindowIndex;

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

/// The telemetry names online epochs report under.
const ONLINE_NAMES: EpochNames = EpochNames {
    step: "online.step",
    skipped_batches: "online.guard.skipped_batches",
    rollbacks: "online.guard.rollbacks",
    skipped_epochs: "online.guard.skipped_epochs",
};

/// Warm fine-tuner: the batch trainer's epoch state, held by an object so
/// a long-running service can interleave ingestion with adaptation.
///
/// Construction restores parameters, Adam moments, guard EMA and lr backoff
/// through the same `EpochState::restore` as `train_stsm_with`'s resume
/// path, so the first fine-tune step continues the batch trajectory
/// bit-for-bit (given a full replay horizon). Epochs advance the same
/// `(seed, epoch)` RNG schedule the batch trainer would have used.
pub struct OnlineTrainer {
    state: EpochState,
    online: OnlineConfig,
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
        let mut state = EpochState::new(problem, cfg, None)?;
        state.restore(ck)?;
        Ok(OnlineTrainer { state, online })
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
        let state = EpochState::new(problem, &trained.cfg, Some(&trained.store))?;
        Ok(OnlineTrainer { state, online })
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
        let cfg = &self.state.cfg;
        let end = now.min(self.state.obs_rows.dim(1));
        let span = end.saturating_sub(problem.train_time.start);
        let replay = replay_tail(span, cfg.t_in, cfg.t_out, self.online.replay_windows.max(1));
        if replay.is_empty() {
            return Err(StsmError::TrainingPeriodTooShort { span, needed: cfg.t_in + cfg.t_out });
        }
        let mean = self.state.run_epoch(problem, &replay, self.online.lr_scale, &ONLINE_NAMES);
        telemetry::count("online.fine_tune_epochs", 1);
        Ok(mean)
    }

    /// Snapshots the current parameters as a deployable [`TrainedStsm`]
    /// (fresh store + architecture, loaded from the live weights) — the
    /// payload for `Server::swap_model`.
    pub fn trained(&self) -> Result<TrainedStsm, StsmError> {
        let mut fresh = ParamStore::new();
        let model = StModel::new(&mut fresh, &self.state.cfg);
        fresh.load_from(&self.state.store)?;
        Ok(TrainedStsm::from_parts(self.state.cfg.clone(), fresh, model))
    }

    /// Serializes the current state as a [`TrainCheckpoint`] (last epoch
    /// boundary, like the batch trainer persists).
    pub fn checkpoint(&self) -> TrainCheckpoint {
        self.state.checkpoint().to_checkpoint()
    }

    /// Epochs completed so far (batch + online).
    pub fn epochs_done(&self) -> usize {
        self.state.epoch
    }

    /// Mean loss per completed epoch (batch history included when resumed
    /// from a checkpoint).
    pub fn epoch_losses(&self) -> &[f32] {
        &self.state.epoch_losses
    }

    /// Guard / rollback / resume accounting, batch counters carried over.
    pub fn resilience(&self) -> &ResilienceReport {
        &self.state.resilience
    }

    /// The training configuration (shared with the batch run).
    pub fn config(&self) -> &StsmConfig {
        &self.state.cfg
    }

    /// The online-loop knobs this trainer was built with.
    pub fn online_config(&self) -> &OnlineConfig {
        &self.online
    }
}

/// The last `keep` of the stride-1 `(t_in, t_out)` windows over `span`
/// steps — `sliding_windows(span, t_in, t_out, 1)`'s tail, built without
/// the windows before it.
fn replay_tail(span: usize, t_in: usize, t_out: usize, keep: usize) -> Vec<WindowIndex> {
    let count = (span + 1).saturating_sub(t_in + t_out);
    let first = count.saturating_sub(keep);
    (first..count).map(|input_start| WindowIndex { input_start, t_in, t_out }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsm_timeseries::sliding_windows;

    #[test]
    fn replay_tail_is_the_sliding_windows_tail() {
        for span in [0, 5, 23, 24, 25, 100, 857] {
            for keep in [1, 3, 64, 1000] {
                let all = sliding_windows(span, 12, 12, 1);
                let tail = &all[all.len().saturating_sub(keep)..];
                assert_eq!(replay_tail(span, 12, 12, keep), tail, "span {span}, keep {keep}");
            }
        }
    }
}
