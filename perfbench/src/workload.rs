//! What every workload shares: names, sizes, the outcome record, and the
//! set-up and check helpers.

use crate::trace::{SpanId, Tracer};
use std::sync::Arc;
use std::time::Instant;
use stsm_core::{DistanceMode, ProblemInstance, StsmConfig, TrainedStsm};
use stsm_synth::{space_split, Dataset, DatasetConfig, SplitAxis};
use stsm_tensor::telemetry::TelemetryReport;

/// The three workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainPemsbay,
    ForecastPems08,
    ServeMelbourne,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::TrainPemsbay, Workload::ForecastPems08, Workload::ServeMelbourne];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainPemsbay => "train-pemsbay",
            Workload::ForecastPems08 => "forecast-pems08",
            Workload::ServeMelbourne => "serve-melbourne",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input scale. `Tiny` shrinks every input so the smoke test finishes in
/// seconds; the numbers of record use `Full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One measured pass of a workload.
pub struct RunSpec {
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    /// Complete set-ups to time; the last one's products are measured.
    pub setup_reps: usize,
}

/// What a workload hands to the per-layer probes: the problem it ran on,
/// its model configuration and the nodes its model forward spans.
pub struct ProbeCtx {
    pub problem: Arc<ProblemInstance>,
    pub cfg: StsmConfig,
    pub nodes: Vec<usize>,
    pub model: Arc<TrainedStsm>,
}

/// Everything one pass measured.
pub struct Outcome {
    /// Seconds per complete set-up.
    pub setup_s: Vec<f64>,
    /// Per-op wall time in seconds, in the order the ops were sent.
    pub latency_s: Vec<f64>,
    /// Per-op completion time in seconds since the timed start.
    pub done_s: Vec<f64>,
    /// Work units one op carries (training windows per fit, 1 otherwise).
    pub work_per_op: f64,
    /// Ops per throughput slice.
    pub ops_per_slice: usize,
    pub rmse: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that ran, and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    /// Workload-specific per-layer values, by metric name.
    pub layer: Vec<(&'static str, f64)>,
    /// Seconds the timed ops spent in total (summed over threads).
    pub busy_s: f64,
    /// Program telemetry over the timed ops (empty when it was off).
    pub telemetry: TelemetryReport,
    pub probe: ProbeCtx,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|&(_, ok)| ok)
    }
}

/// A model configuration for `dataset` at `size`, training for `epochs`.
pub fn model_cfg(dataset: &str, size: Size, seed: u64, epochs: usize) -> StsmConfig {
    let cfg = match size {
        Size::Full => StsmConfig { epochs, seed, ..StsmConfig::default() },
        Size::Tiny => StsmConfig {
            t_in: 6,
            t_out: 6,
            hidden: 8,
            blocks: 1,
            epochs: 1,
            windows_per_epoch: 4,
            batch_windows: 2,
            seed,
            ..StsmConfig::default()
        },
    };
    let mut cfg = cfg.for_dataset(dataset);
    if size == Size::Tiny {
        cfg.top_k = cfg.top_k.min(12);
    }
    cfg
}

/// Shrinks a preset for [`Size::Tiny`]; the full preset is left as is.
pub fn sized(mut preset: DatasetConfig, size: Size) -> DatasetConfig {
    if size == Size::Tiny {
        preset.sensors = 40;
        preset.days = 2;
    }
    preset
}

/// Generates the dataset and builds the problem (half the sensors, split
/// along the vertical axis, are the unobserved region).
pub fn build_problem(preset: &DatasetConfig, tracer: &Tracer, parent: SpanId) -> ProblemInstance {
    let data: Dataset = tracer.scope("synth.generate", 0, parent, || preset.generate());
    tracer.scope("core.problem", 0, parent, || {
        let split = space_split(&data.coords, SplitAxis::Vertical, false);
        ProblemInstance::new(data, split, DistanceMode::Euclidean)
    })
}

/// Runs `setup` `reps` times (at least once), timing each, and keeps the
/// last result. Each result is dropped before the next set-up starts, so
/// set-ups never overlap in time or memory.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps.max(1));
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (times, last.expect("at least one set-up ran"))
}

/// FNV-1a over the bit patterns of `values`: equal fingerprints mean
/// (with overwhelming probability) bitwise-equal outputs.
pub fn fingerprint(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Appends, for each unobserved location and horizon step, the forecast
/// (back in data units) and the true value, for an `(N, t_out, 1)` scaled
/// prediction whose targets start at `target_start`.
pub fn push_unobserved_errors(
    problem: &ProblemInstance,
    prediction: &[f32],
    t_out: usize,
    target_start: usize,
    preds: &mut Vec<f32>,
    truths: &mut Vec<f32>,
) {
    for &u in &problem.unobserved {
        for p in 0..t_out {
            preds.push(problem.scaler.inverse(prediction[u * t_out + p]));
            truths.push(problem.dataset.value(u, target_start + p));
        }
    }
}
