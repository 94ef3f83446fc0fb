//! # stsm-serve
//!
//! A resilient, concurrent forecast service over the STSM [`Predictor`]
//! pool — the serving milestone of the reproduction roadmap. The paper's
//! model forecasts regions without observations; this crate keeps that
//! forecast available when the *observed* side degrades too: sensors go
//! dark, inputs turn to NaN, load spikes past capacity, the model is
//! upgraded under traffic, or a worker panics outright.
//!
//! The contract, enforced by the `serve_chaos` suite:
//!
//! * **Every request terminates** — a [`ForecastResponse`] or a typed
//!   [`ServeError`]; nothing is silently dropped, under any injected fault.
//! * **Bounded admission** — a full queue rejects with
//!   [`ServeError::Overloaded`] (backpressure), after watermark shedding of
//!   requests whose deadline already expired.
//! * **Deadline budgets** — expired requests are shed at queue-pop, before
//!   compute is spent on them ([`ServeError::DeadlineExceeded`]).
//! * **Graceful degradation** — per-sensor circuit breakers
//!   ([`HealthTracker`]) quarantine chronically dark sensors behind the
//!   deterministic imputation path; every response carries a
//!   [`DataQuality`](stsm_core::DataQuality) summary.
//! * **Hot-swap** — [`Server::swap_model`] installs a new
//!   [`SharedModel`] epoch-style (config
//!   fingerprints must match; in-flight requests are never dropped).
//! * **Panic containment** — a worker panic answers that one caller with
//!   [`ServeError::WorkerPanicked`], rebuilds the worker's predictor, and
//!   keeps serving.
//! * **Determinism** — after any fault schedule, a clean-input forecast is
//!   bitwise identical to one from an undisturbed server (given equal
//!   breaker state), because every degradation routes through the same
//!   deterministic sanitize-and-impute path.
//!
//! See `DESIGN.md`, "Serving", for the architecture discussion and
//! `STSM_SERVE_WORKERS` / `STSM_SERVE_QUEUE_DEPTH` / `STSM_SERVE_DEADLINE_MS`
//! in the README for deployment knobs.

#![warn(missing_docs)]

mod config;
mod error;
mod health;
mod ingest;
mod server;

pub use config::ServeConfig;
pub use error::ServeError;
pub use health::HealthTracker;
pub use ingest::IngestRing;
pub use server::{ForecastRequest, ForecastResponse, Pending, RequestKind, ServeStats, Server};

// Re-exported so serving callers need only this crate for the common loop.
pub use stsm_core::{Predictor, SharedModel};
