//! Experiment runner: trains/evaluates any model (the three baselines or any
//! STSM variant) on a problem instance and aggregates rows across splits.

use crate::scale::Scale;
use serde::{Deserialize, Serialize};
use stsm_baselines::{run_gegan, run_ignnk, run_increase};
use stsm_core::{evaluate_stsm, train_stsm, DistanceMode, ProblemInstance, StsmConfig, Variant};
use stsm_synth::{four_standard_splits, Dataset, SpaceSplit};
use stsm_timeseries::Metrics;

/// Any model that can be run through the harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelId {
    /// GE-GAN baseline.
    GeGan,
    /// IGNNK baseline.
    Ignnk,
    /// INCREASE baseline.
    Increase,
    /// An STSM variant.
    Stsm(Variant),
}

impl ModelId {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelId::GeGan => "GE-GAN",
            ModelId::Ignnk => "IGNNK",
            ModelId::Increase => "INCREASE",
            ModelId::Stsm(v) => v.name(),
        }
    }

    /// The Table 4 column order: three baselines then the four main variants.
    pub fn table4_lineup() -> Vec<ModelId> {
        vec![
            ModelId::GeGan,
            ModelId::Ignnk,
            ModelId::Increase,
            ModelId::Stsm(Variant::StsmRnc),
            ModelId::Stsm(Variant::StsmNc),
            ModelId::Stsm(Variant::StsmR),
            ModelId::Stsm(Variant::Stsm),
        ]
    }
}

/// One model × one problem result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Model name.
    pub model: String,
    /// Accuracy metrics.
    pub metrics: Metrics,
    /// Training wall-clock seconds.
    pub train_seconds: f64,
    /// Inference wall-clock seconds.
    pub test_seconds: f64,
    /// Mean masked-location similarity (STSM variants only; Table 8).
    pub masked_similarity: Option<f32>,
    /// Random-masking reference similarity (Table 8 denominator).
    pub random_similarity: Option<f32>,
}

/// Runs one model on one prepared problem.
pub fn run_model(problem: &ProblemInstance, model: ModelId, scale: Scale, seed: u64) -> RunResult {
    let run = match model {
        ModelId::GeGan => run_gegan,
        ModelId::Ignnk => run_ignnk,
        ModelId::Increase => run_increase,
        ModelId::Stsm(v) => {
            return run_stsm(problem, v, scale.stsm_config(&problem.dataset.name, seed))
        }
    };
    let r = run(problem, &scale.baseline_config(seed));
    RunResult {
        model: r.name.to_string(),
        metrics: r.metrics,
        train_seconds: r.train_seconds,
        test_seconds: r.test_seconds,
        masked_similarity: None,
        random_similarity: None,
    }
}

/// Trains and evaluates an STSM variant on top of an explicit base
/// configuration — the one entry behind [`run_model`] and every sweep or
/// ablation that overrides a field of the scale's config.
pub fn run_stsm(problem: &ProblemInstance, variant: Variant, cfg: StsmConfig) -> RunResult {
    let cfg = cfg.with_variant(variant);
    let (trained, report) = train_stsm(problem, &cfg).expect("trains");
    let eval = evaluate_stsm(&trained, problem).expect("evaluates");
    RunResult {
        model: variant.name().to_string(),
        metrics: eval.metrics,
        train_seconds: report.train_seconds,
        test_seconds: eval.test_seconds,
        masked_similarity: Some(report.mean_masked_similarity),
        random_similarity: Some(report.mean_random_similarity),
    }
}

/// The distance mode an STSM variant implies (baselines always Euclidean).
pub fn distance_mode_for(model: ModelId) -> DistanceMode {
    match model {
        ModelId::Stsm(Variant::StsmRdA) => DistanceMode::RoadAll,
        ModelId::Stsm(Variant::StsmRdM) => DistanceMode::RoadMatricesOnly,
        _ => DistanceMode::Euclidean,
    }
}

/// Applies the smoke-scale sensor cap (keeps a spatially contiguous prefix by
/// x coordinate so splits still make sense).
pub fn apply_sensor_cap(dataset: Dataset, scale: Scale) -> Dataset {
    match scale.sensor_cap() {
        Some(cap) if dataset.n > cap => {
            let mut order: Vec<usize> = (0..dataset.n).collect();
            order.sort_by(|&a, &b| {
                dataset.coords[a][0].partial_cmp(&dataset.coords[b][0]).expect("finite")
            });
            order.truncate(cap);
            order.sort_unstable();
            dataset.subset(&order)
        }
        _ => dataset,
    }
}

/// Runs a lineup of models on a dataset, averaging over `scale.splits()` of
/// the four standard splits. Returns one averaged [`RunResult`] per model.
pub fn run_dataset_lineup(
    dataset: &Dataset,
    models: &[ModelId],
    scale: Scale,
    seed: u64,
) -> Vec<RunResult> {
    let mut splits = four_standard_splits(&dataset.coords);
    splits.truncate(scale.splits().max(1));
    run_dataset_lineup_with_splits(dataset, models, &splits, scale, seed)
}

/// Like [`run_dataset_lineup`] with explicit splits (ring split, ratio
/// sweeps, ...).
pub fn run_dataset_lineup_with_splits(
    dataset: &Dataset,
    models: &[ModelId],
    splits: &[SpaceSplit],
    scale: Scale,
    seed: u64,
) -> Vec<RunResult> {
    let mut out: Vec<RunResult> = Vec::with_capacity(models.len());
    for &model in models {
        let mut per_split: Vec<RunResult> = Vec::with_capacity(splits.len());
        // Problems may differ per model only through the distance mode.
        for split in splits {
            let problem =
                ProblemInstance::new(dataset.clone(), split.clone(), distance_mode_for(model));
            per_split.push(run_model(&problem, model, scale, seed));
        }
        out.push(average_results(&per_split));
    }
    out
}

/// Averages results across splits (metrics averaged; times summed per the
/// paper's "total training time" reporting, then divided by split count).
pub fn average_results(results: &[RunResult]) -> RunResult {
    assert!(!results.is_empty());
    let n = results.len() as f64;
    let metrics = Metrics::average(&results.iter().map(|r| r.metrics).collect::<Vec<_>>());
    let avg_opt = |f: fn(&RunResult) -> Option<f32>| -> Option<f32> {
        let vals: Vec<f32> = results.iter().filter_map(f).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f32>() / vals.len() as f32)
        }
    };
    RunResult {
        model: results[0].model.clone(),
        metrics,
        train_seconds: results.iter().map(|r| r.train_seconds).sum::<f64>() / n,
        test_seconds: results.iter().map(|r| r.test_seconds).sum::<f64>() / n,
        masked_similarity: avg_opt(|r| r.masked_similarity),
        random_similarity: avg_opt(|r| r.random_similarity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_names() {
        let lineup = ModelId::table4_lineup();
        assert_eq!(lineup.len(), 7);
        assert_eq!(lineup[0].name(), "GE-GAN");
        assert_eq!(lineup[6].name(), "STSM");
    }

    #[test]
    fn averaging_results() {
        let mk = |rmse: f64, t: f64| RunResult {
            model: "X".into(),
            metrics: Metrics { rmse, mae: rmse / 2.0, mape: 0.1, r2: 0.0 },
            train_seconds: t,
            test_seconds: 1.0,
            masked_similarity: Some(0.5),
            random_similarity: None,
        };
        let avg = average_results(&[mk(2.0, 10.0), mk(4.0, 20.0)]);
        assert_eq!(avg.metrics.rmse, 3.0);
        assert_eq!(avg.train_seconds, 15.0);
        assert_eq!(avg.masked_similarity, Some(0.5));
        assert_eq!(avg.random_similarity, None);
    }

    #[test]
    fn distance_modes() {
        assert_eq!(distance_mode_for(ModelId::Increase), DistanceMode::Euclidean);
        assert_eq!(distance_mode_for(ModelId::Stsm(Variant::StsmRdA)), DistanceMode::RoadAll);
    }
}
