//! # stsm-bench
//!
//! The experiment harness reproducing every table and figure of the STSM
//! paper's evaluation (§5). [`EXPERIMENTS`] registers one in-process entry
//! per paper artefact (Table 4–11, Figs. 5–11) plus the extra ablations; the
//! `repro` binary runs them at the scale `STSM_SCALE` selects (`smoke` |
//! `quick` | `full`), prints each Markdown block, and outside smoke scale
//! writes `results/<id>.json` and the matching EXPERIMENTS.md block. The
//! `bench_*` binaries time the kernels, inference, DTW scaling and online
//! adaptation.

#![warn(missing_docs)]

pub mod experiments;
pub mod rss;
pub mod runner;
pub mod scale;
pub mod table;

pub use experiments::{Experiment, Output, EXPERIMENTS, SEED};
pub use rss::{peak_rss_bytes, reset_peak_rss};
pub use scale::Scale;
pub use table::{publish, splice};
