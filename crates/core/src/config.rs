//! STSM hyper-parameters (§5.1.3, Table 3) and model-variant switches
//! (§5.2.2, §5.2.5, §5.2.6).

use serde::{Deserialize, Serialize};

/// Which masking strategy generates the augmented view `G_o^m`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaskingMode {
    /// Selective masking guided by region/road similarity (§4.1) — full STSM.
    Selective,
    /// Uniform random sub-graph masking (§3.3) — the -R variants.
    Random,
}

/// Which temporal-correlation module the ST blocks use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TemporalModule {
    /// Stacked dilated causal 1-D convolutions (Eq. 5) — default.
    DilatedConv,
    /// Transformer encoder + gated fusion — the STSM-trans variant (§5.2.5).
    Transformer,
}

/// Candidate-pair policy for the DTW neighbour search behind `A_dtw`
/// (§3.4.1). The search itself is always lower-bound pruned; this only
/// controls which pairs are eligible at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DtwCandidates {
    /// Every other node is a candidate — selections match the dense
    /// all-pairs ranking bitwise. Default.
    #[default]
    Exact,
    /// Each node only considers its `per_node` spatially nearest sensors
    /// (grid-bucketed k-NN over coordinates). Approximate: a temporally
    /// similar but spatially distant peer can be missed. Opt-in for
    /// metro-scale graphs where even the pruned exact scan is too slow.
    Spatial {
        /// Spatially nearest candidates kept per node.
        per_node: usize,
    },
}

impl DtwCandidates {
    /// Parses `exact` or `spatial:<k>` with `k > 0` (e.g. `spatial:32`),
    /// case-insensitively; anything else is `None`. The `stsm` CLI applies
    /// its `STSM_DTW_CANDIDATES` variable through this.
    pub fn parse(s: &str) -> Option<Self> {
        let v = s.to_lowercase();
        if v == "exact" {
            return Some(DtwCandidates::Exact);
        }
        v.strip_prefix("spatial:")
            .and_then(|k| k.parse().ok())
            .filter(|&k: &usize| k > 0)
            .map(|per_node| DtwCandidates::Spatial { per_node })
    }
}

/// Which distance function feeds adjacency matrices and pseudo-observations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistanceMode {
    /// Euclidean everywhere — default STSM.
    Euclidean,
    /// Road-network distance for adjacencies *and* pseudo-observations
    /// (STSM-rd-a, §5.2.6).
    RoadAll,
    /// Road-network distance for adjacencies only (STSM-rd-m).
    RoadMatricesOnly,
}

/// The named model variants evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// Full model: selective masking + contrastive learning.
    Stsm,
    /// No contrastive learning (§5.2.2).
    StsmNc,
    /// Random masking instead of selective (§5.2.2).
    StsmR,
    /// Random masking and no contrastive learning — the base model (§3).
    StsmRnc,
    /// Transformer temporal module (§5.2.5).
    StsmTrans,
    /// Road-network distance for matrices and pseudo-observations (§5.2.6).
    StsmRdA,
    /// Road-network distance for matrices only (§5.2.6).
    StsmRdM,
}

impl Variant {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Stsm => "STSM",
            Variant::StsmNc => "STSM-NC",
            Variant::StsmR => "STSM-R",
            Variant::StsmRnc => "STSM-RNC",
            Variant::StsmTrans => "STSM-trans",
            Variant::StsmRdA => "STSM-rd-a",
            Variant::StsmRdM => "STSM-rd-m",
        }
    }

    /// All seven variants.
    pub fn all() -> [Variant; 7] {
        [
            Variant::Stsm,
            Variant::StsmNc,
            Variant::StsmR,
            Variant::StsmRnc,
            Variant::StsmTrans,
            Variant::StsmRdA,
            Variant::StsmRdM,
        ]
    }
}

/// Divergence-guard thresholds (see `DESIGN.md`, "Fault tolerance"). The
/// guard watches every batch's loss and gradient norm; defaults are chosen
/// so a clean run can never trip it (the spike factor is 10⁴× the running
/// loss average), keeping guarded training bit-identical to unguarded.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Master switch; disabled restores the pre-guard behavior of stepping
    /// on whatever loss the batch produced.
    pub enabled: bool,
    /// A batch is "spiking" when its loss exceeds `spike_factor` × the
    /// exponential moving average of recent good batch losses.
    pub spike_factor: f32,
    /// Good batches required before spike detection arms (the EMA is
    /// meaningless during the first steep descent).
    pub warmup_batches: u64,
    /// Consecutive bad batches tolerated before rolling back to the last
    /// epoch-end snapshot.
    pub max_consecutive_bad: u32,
    /// Rollbacks allowed per run; beyond this the guard keeps skipping bad
    /// batches but stops rewinding (degraded mode — training still ends).
    pub max_rollbacks: u64,
    /// Learning-rate multiplier applied at each rollback.
    pub lr_backoff: f32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            enabled: true,
            spike_factor: 1e4,
            warmup_batches: 8,
            max_consecutive_bad: 8,
            max_rollbacks: 4,
            lr_backoff: 0.5,
        }
    }
}

/// Full STSM configuration. Defaults follow §5.1.3 / Table 3 (PEMS-Bay
/// column) with training sizes scaled for CPU.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StsmConfig {
    /// Input window length `T` (time steps).
    pub t_in: usize,
    /// Prediction horizon `T'` (time steps). The architecture requires
    /// `t_out == t_in` (the paper uses T = T' throughout).
    pub t_out: usize,
    /// Hidden width `C'`.
    pub hidden: usize,
    /// Number of ST blocks `L`.
    pub blocks: usize,
    /// GCN layers per block `k` (Eq. 9).
    pub gcn_depth: usize,
    /// Spatial adjacency threshold ε_s (Eq. 2; paper: 0.05).
    pub epsilon_s: f32,
    /// Sub-graph adjacency threshold ε_sg (Table 3; 0.4–0.7).
    pub epsilon_sg: f32,
    /// Masking ratio δ_m (paper: 0.5).
    pub mask_ratio: f32,
    /// Top-K most similar sub-graphs kept for selective masking (Table 3).
    pub top_k: usize,
    /// `q_kk`: most-similar observed↔observed DTW links per node (paper: 1).
    pub q_kk: usize,
    /// `q_ku`: most-similar observed→unobserved DTW links per node (paper: 1).
    pub q_ku: usize,
    /// Contrastive temperature τ (paper: 0.5).
    pub tau: f32,
    /// Contrastive loss weight λ (Table 3; 0.01–1).
    pub lambda: f32,
    /// Adam learning rate (paper: 0.01).
    pub lr: f32,
    /// Windows per contrastive batch `M` (paper: 32; smaller on CPU).
    pub batch_windows: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Training windows sampled per epoch.
    pub windows_per_epoch: usize,
    /// Sakoe–Chiba band for DTW on daily profiles.
    pub dtw_band: usize,
    /// Downsampling factor for DTW daily profiles.
    pub dtw_downsample: usize,
    /// Candidate-pair policy for the DTW neighbour search. `#[serde(default)]`
    /// keeps configs serialized before this field existed loadable.
    #[serde(default)]
    pub dtw_candidates: DtwCandidates,
    /// Masking strategy.
    pub masking: MaskingMode,
    /// Whether the contrastive module is enabled.
    pub contrastive: bool,
    /// Temporal module choice.
    pub temporal: TemporalModule,
    /// Distance function choice.
    pub distance: DistanceMode,
    /// Fill masked/unobserved inputs with Eq. 3 pseudo-observations (the
    /// paper's design) instead of zeros (IGNNK-style). Ablation switch.
    pub pseudo_observations: bool,
    /// RNG seed (weights, masking draws, window sampling).
    pub seed: u64,
    /// Divergence-guard thresholds. `#[serde(default)]` keeps configs
    /// serialized before this field existed loadable.
    #[serde(default)]
    pub guard: GuardConfig,
}

impl Default for StsmConfig {
    fn default() -> Self {
        StsmConfig {
            t_in: 12,
            t_out: 12,
            hidden: 16,
            blocks: 2,
            gcn_depth: 2,
            epsilon_s: 0.05,
            epsilon_sg: 0.5,
            mask_ratio: 0.5,
            top_k: 35,
            q_kk: 1,
            q_ku: 1,
            tau: 0.5,
            lambda: 0.5,
            lr: 0.01,
            batch_windows: 4,
            epochs: 8,
            windows_per_epoch: 24,
            dtw_band: 6,
            dtw_downsample: 4,
            dtw_candidates: DtwCandidates::Exact,
            masking: MaskingMode::Selective,
            contrastive: true,
            temporal: TemporalModule::DilatedConv,
            distance: DistanceMode::Euclidean,
            pseudo_observations: true,
            seed: 0,
            guard: GuardConfig::default(),
        }
    }
}

impl StsmConfig {
    /// Applies a named variant's switches on top of this configuration.
    pub fn with_variant(mut self, v: Variant) -> Self {
        match v {
            Variant::Stsm => {}
            Variant::StsmNc => self.contrastive = false,
            Variant::StsmR => self.masking = MaskingMode::Random,
            Variant::StsmRnc => {
                self.masking = MaskingMode::Random;
                self.contrastive = false;
            }
            Variant::StsmTrans => self.temporal = TemporalModule::Transformer,
            Variant::StsmRdA => self.distance = DistanceMode::RoadAll,
            Variant::StsmRdM => self.distance = DistanceMode::RoadMatricesOnly,
        }
        self
    }

    /// Per-dataset λ / ε_sg / K from Table 3 of the paper (r_poi is a
    /// generator-side parameter; see `stsm_synth::presets`).
    pub fn for_dataset(mut self, dataset_name: &str) -> Self {
        let (lambda, eps_sg, k) = match dataset_name {
            "PEMS-Bay" => (0.01, 0.5, 35),
            "PEMS-07" => (1.0, 0.7, 35),
            "PEMS-08" => (0.5, 0.5, 35),
            "Melbourne" => (0.5, 0.4, 45),
            "AirQ" => (1.0, 0.6, 5),
            _ => (self.lambda, self.epsilon_sg, self.top_k),
        };
        self.lambda = lambda;
        self.epsilon_sg = eps_sg;
        self.top_k = k;
        self
    }

    /// FNV-1a fingerprint of this config's canonical JSON form. Training
    /// checkpoints and serving hot-swaps compare it: only state trained
    /// under the identical config may replace or resume another.
    pub fn fingerprint(&self) -> u64 {
        crate::checkpoint::config_fingerprint(
            &serde_json::to_string(self).expect("config serialization cannot fail"),
        )
    }

    /// Sanity-checks invariants.
    pub fn validate(&self) {
        assert_eq!(self.t_in, self.t_out, "the ST model requires T == T'");
        assert!(self.hidden >= 1 && self.blocks >= 1 && self.gcn_depth >= 1);
        assert!((0.0..1.0).contains(&self.mask_ratio), "mask ratio must be in [0,1)");
        assert!(self.tau > 0.0, "temperature must be positive");
        assert!(self.batch_windows >= 2 || !self.contrastive, "contrastive learning needs M >= 2");
        assert!(
            self.guard.lr_backoff > 0.0 && self.guard.lr_backoff <= 1.0,
            "lr backoff must be in (0, 1]"
        );
        assert!(self.guard.spike_factor > 1.0, "spike factor must exceed 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_toggle_switches() {
        let base = StsmConfig::default();
        assert_eq!(base.masking, MaskingMode::Selective);
        assert!(base.contrastive);
        let rnc = base.clone().with_variant(Variant::StsmRnc);
        assert_eq!(rnc.masking, MaskingMode::Random);
        assert!(!rnc.contrastive);
        let trans = base.clone().with_variant(Variant::StsmTrans);
        assert_eq!(trans.temporal, TemporalModule::Transformer);
        let rda = base.clone().with_variant(Variant::StsmRdA);
        assert_eq!(rda.distance, DistanceMode::RoadAll);
    }

    #[test]
    fn table3_parameters() {
        let c = StsmConfig::default().for_dataset("PEMS-Bay");
        assert_eq!(c.lambda, 0.01);
        assert_eq!(c.top_k, 35);
        let m = StsmConfig::default().for_dataset("Melbourne");
        assert_eq!(m.epsilon_sg, 0.4);
        assert_eq!(m.top_k, 45);
        let a = StsmConfig::default().for_dataset("AirQ");
        assert_eq!(a.top_k, 5);
    }

    #[test]
    fn default_is_valid() {
        StsmConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "T == T'")]
    fn rejects_mismatched_horizons() {
        let c = StsmConfig { t_out: 6, ..StsmConfig::default() };
        c.validate();
    }

    #[test]
    fn dtw_candidates_parse() {
        assert_eq!(DtwCandidates::parse("exact"), Some(DtwCandidates::Exact));
        assert_eq!(DtwCandidates::parse("EXACT"), Some(DtwCandidates::Exact));
        assert_eq!(
            DtwCandidates::parse("spatial:32"),
            Some(DtwCandidates::Spatial { per_node: 32 })
        );
        assert_eq!(DtwCandidates::parse("spatial:0"), None);
        assert_eq!(DtwCandidates::parse("nearest"), None);
    }

    #[test]
    fn default_dtw_candidates_are_exact() {
        assert_eq!(StsmConfig::default().dtw_candidates, DtwCandidates::Exact);
    }

    #[test]
    fn variant_names_match_paper() {
        assert_eq!(Variant::Stsm.name(), "STSM");
        assert_eq!(Variant::StsmRnc.name(), "STSM-RNC");
        assert_eq!(Variant::all().len(), 7);
    }
}
