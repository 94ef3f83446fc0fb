//! # stsm-core
//!
//! Rust reproduction of **STSM** — *Spatial-temporal Forecasting for Regions
//! without Observations* (EDBT 2024). Given a region graph whose locations
//! split into an observed region (with sensor history) and an adjacent,
//! contiguous unobserved region (no history at all), STSM learns to forecast
//! the unobserved region's next `T'` steps.
//!
//! The model combines:
//!
//! * **sub-graph masking** — at training, sub-graphs of the observed region
//!   are masked and filled with inverse-distance pseudo-observations
//!   (Eq. 3), teaching the network to predict for data-free locations;
//! * **selective masking** (§4.1) — masked sub-graphs are drawn with
//!   probability proportional to their POI/road/spatial similarity to the
//!   unobserved region (Eq. 15), so training mimics the test conditions;
//! * **a spatial-temporal backbone** (§3.4) — dilated causal TCNs in
//!   parallel with gated GCN stacks over a spatial adjacency (Eq. 2) and a
//!   DTW temporal-similarity adjacency, combined residually;
//! * **graph contrastive learning** (§4.2) — an NT-Xent loss pulls the
//!   masked view's graph representation toward the complete view's (Eq. 17).
//!
//! ## Quickstart
//!
//! ```no_run
//! use stsm_core::{train_stsm, evaluate_stsm, ProblemInstance, StsmConfig, DistanceMode};
//! use stsm_synth::{presets, space_split, SplitAxis};
//!
//! let dataset = presets::pems_bay(10, 42).generate();
//! let split = space_split(&dataset.coords, SplitAxis::Horizontal, false);
//! let problem = ProblemInstance::new(dataset, split, DistanceMode::Euclidean);
//! let cfg = StsmConfig::default().for_dataset("PEMS-Bay");
//! let (trained, report) = train_stsm(&problem, &cfg).expect("training runs");
//! let eval = evaluate_stsm(&trained, &problem).expect("evaluation runs");
//! println!("RMSE {:.3} in {:.1}s", eval.metrics.rmse, report.train_seconds);
//! ```
//!
//! ## Fault tolerance
//!
//! Training can snapshot every epoch boundary and resume bit-identically
//! after a crash ([`TrainOptions`], [`TrainCheckpoint`]); a divergence
//! guard skips non-finite/spiking batches and rolls back to the last good
//! snapshot ([`GuardConfig`](StsmConfig), reported via
//! [`ResilienceReport`]); inference sanitizes degraded input windows and
//! reports what it imputed ([`DataQuality`]). See `DESIGN.md`.
//!
//! ## Quantized inference
//!
//! [`TrainedStsm::quantize`] converts a trained model's parameters to f16 or
//! bf16 *storage* (compute stays f32), halving serving bytes.
//! [`Predictor`] serves either precision behind one API and honors the
//! `STSM_INFER_DTYPE=f32|f16|bf16` environment override;
//! [`evaluate_quantized`] mirrors [`evaluate_stsm`] for [`QuantizedStsm`],
//! and the `quantized_equivalence` suite gates the accuracy delta to
//! [`QUANT_RMSE_REL_EPSILON`]. See `DESIGN.md`, "Precision & quantization".

#![warn(missing_docs)]

mod analysis;
mod checkpoint;
mod config;
mod contrastive;
mod error;
mod masking;
mod model;
mod online;
mod predictor;
mod problem;
mod pseudo;
mod quant;
mod resilience;
mod temporal_adj;
mod trainer;

pub use analysis::{evaluate_detailed, DetailedEval};
pub use checkpoint::{
    config_fingerprint, CheckpointError, GuardSnapshot, TrainCheckpoint, CHECKPOINT_VERSION,
};
pub use config::{
    DistanceMode, DtwCandidates, GuardConfig, MaskingMode, StsmConfig, TemporalModule, Variant,
};
pub use contrastive::nt_xent;
pub use error::StsmError;
pub use masking::{cosine, MaskingContext};
pub use model::{predict_once, ForwardOutput, StModel};
pub use online::{OnlineConfig, OnlineTrainer};
pub use predictor::{InferAssets, Predictor, SharedModel};
pub use problem::ProblemInstance;
pub use pseudo::{blend_series, blend_series_strided, inverse_distance_weights};
pub use quant::{QuantizedStsm, QUANT_RMSE_REL_EPSILON};
pub use resilience::{carry_impute, DataQuality, ResilienceReport, TrainOptions};
pub use temporal_adj::{pseudo_weights_for, DtwContext};
pub use trainer::{
    evaluate_quantized, evaluate_stsm, historical_average_metrics, train_stsm, train_stsm_with,
    EvalReport, TrainReport, TrainedStsm,
};
