//! Experiment scales. The paper trained on a V100 over months-long datasets;
//! this reproduction runs on CPU, so `repro` (and the smoke modes of
//! `bench_scale` and `bench_online`) read one of three scales from the
//! `STSM_SCALE` environment variable:
//!
//! * `smoke` — seconds per run; for CI and tests (tiny subsets);
//! * `quick` — the default; minutes per table, preserves the paper's sensor
//!   counts and mechanism but shortens horizons and training;
//! * `full`  — hours; closest to the paper's protocol (4 splits, longer
//!   windows and training).

use stsm_baselines::BaselineConfig;
use stsm_core::StsmConfig;

/// Scale of an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: for CI.
    Smoke,
    /// Default: minutes per table.
    Quick,
    /// Paper-protocol-like: hours.
    Full,
}

impl Scale {
    /// Reads `STSM_SCALE` (smoke|quick|full, any case), defaulting to
    /// `Quick` when unset or empty.
    ///
    /// # Panics
    /// On any other value, naming the accepted ones, so a typo never runs
    /// the wrong scale.
    pub fn from_env() -> Scale {
        let raw = std::env::var("STSM_SCALE").unwrap_or_default();
        Scale::parse(&raw)
            .unwrap_or_else(|| panic!("STSM_SCALE={raw:?} is not one of smoke|quick|full"))
    }

    /// Parses a scale name (smoke|quick|full, any case; empty means `Quick`).
    fn parse(name: &str) -> Option<Scale> {
        match name.to_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "quick" | "" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Simulated days of data per dataset.
    pub fn days(&self) -> usize {
        match self {
            Scale::Smoke => 4,
            Scale::Quick => 8,
            Scale::Full => 14,
        }
    }

    /// Number of space splits averaged per dataset (the paper uses 4).
    pub fn splits(&self) -> usize {
        match self {
            Scale::Smoke | Scale::Quick => 1,
            Scale::Full => 4,
        }
    }

    /// Caps the number of sensors (smoke only) to keep runs tiny.
    pub fn sensor_cap(&self) -> Option<usize> {
        match self {
            Scale::Smoke => Some(40),
            _ => None,
        }
    }

    /// Window length `T = T'` in steps.
    pub fn window(&self) -> usize {
        match self {
            Scale::Smoke => 6,
            Scale::Quick => 8,
            Scale::Full => 12,
        }
    }

    /// Hidden width, training epochs and windows per epoch, shared by STSM
    /// and the baselines.
    fn training(&self) -> (usize, usize, usize) {
        match self {
            Scale::Smoke => (8, 2, 6),
            Scale::Quick => (16, 8, 24),
            Scale::Full => (16, 10, 24),
        }
    }

    /// STSM configuration at this scale for a dataset (applies Table 3
    /// hyper-parameters on top).
    pub fn stsm_config(&self, dataset_name: &str, seed: u64) -> StsmConfig {
        let (t, (hidden, epochs, windows_per_epoch)) = (self.window(), self.training());
        let (blocks, batch_windows) = if *self == Scale::Smoke { (1, 3) } else { (2, 4) };
        let base = StsmConfig {
            t_in: t,
            t_out: t,
            hidden,
            blocks,
            gcn_depth: 2,
            epochs,
            windows_per_epoch,
            batch_windows,
            ..Default::default()
        };
        let mut cfg = base.for_dataset(dataset_name);
        cfg.seed = seed;
        // Smoke runs cap top_k to the tiny sensor counts.
        if *self == Scale::Smoke {
            cfg.top_k = cfg.top_k.min(12);
        }
        cfg
    }

    /// Baseline configuration at this scale.
    pub fn baseline_config(&self, seed: u64) -> BaselineConfig {
        let (t, (hidden, epochs, windows_per_epoch)) = (self.window(), self.training());
        BaselineConfig {
            t_in: t,
            t_out: t,
            hidden,
            epochs,
            windows_per_epoch,
            seed,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Smoke.days() < Scale::Quick.days());
        assert!(Scale::Quick.days() < Scale::Full.days());
        assert!(Scale::Full.splits() == 4);
        assert!(Scale::Smoke.sensor_cap().is_some());
        assert!(Scale::Quick.sensor_cap().is_none());
    }

    #[test]
    fn scale_names_parse() {
        assert_eq!(Scale::parse("SMOKE"), Some(Scale::Smoke));
        assert_eq!(Scale::parse(""), Some(Scale::Quick));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("qiuck"), None);
    }

    #[test]
    fn configs_apply_table3() {
        let c = Scale::Quick.stsm_config("PEMS-Bay", 7);
        assert_eq!(c.lambda, 0.01);
        assert_eq!(c.seed, 7);
        assert_eq!(c.t_in, c.t_out);
        c.validate();
    }
}
