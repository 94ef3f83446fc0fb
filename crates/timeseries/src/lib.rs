//! # stsm-timeseries
//!
//! Time-series utilities for the STSM reproduction (EDBT 2024): dynamic time
//! warping (exact and Sakoe–Chiba banded) for the temporal-similarity
//! adjacency `A_dtw`, the four evaluation metrics of the paper (RMSE, MAE,
//! MAPE, R²), sliding-window extraction, z-score scaling and daily-profile
//! aggregation.

#![warn(missing_docs)]

mod analysis;
mod dtw;
mod lanes;
mod metrics;
mod prune;
mod windows;

pub use analysis::{autocorrelation, dominant_period, HorizonMetrics};
pub use dtw::{dtw, dtw_all_pairs, dtw_banded, dtw_banded_abandon, dtw_cross, dtw_similarity};
pub use lanes::{dtw_banded_lanes, DTW_LANES};
pub use metrics::Metrics;
pub use prune::{
    dtw_envelope, dtw_envelopes, dtw_nearest, dtw_top_q, dtw_top_q_with_candidates,
    dtw_top_q_with_envelopes, lb_keogh, lb_kim, DtwEnvelope, PruneStats, SparseNeighbors,
};
pub use windows::{daily_profile, sliding_windows, time_of_day_ids, Scaler, WindowIndex};
