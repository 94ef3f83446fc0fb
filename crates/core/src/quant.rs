//! Post-training quantization: f16/bf16 *storage* with f32 *compute*.
//!
//! [`TrainedStsm::quantize`] converts every learned parameter to a narrower
//! storage dtype (round-to-nearest-even, exactly the hardware `VCVTPS2PH`
//! semantics — see `stsm_tensor::dtype`). Nothing about the compute path
//! changes: the one packed GEMM path decodes the 16-bit weights to f32 while
//! packing and accumulates in f32, so a product against a quantized weight
//! is bitwise the f32 product of the decoded weight, at every size, and a
//! quantized forward differs from the f32 forward only by the one rounding
//! step applied to the weights. Training is untouched — quantization is a
//! pure post-processing step over an already-trained [`TrainedStsm`].
//!
//! The resulting [`QuantizedStsm`] halves parameter bytes (16 vs 32 bits per
//! scalar), persists via the same JSON shape as [`TrainedStsm::to_json`] plus
//! a `"dtype"` field, and plugs into [`crate::Predictor`] /
//! [`crate::evaluate_quantized`] behind the same API as the f32 model.
//! Accuracy is guarded by [`QUANT_RMSE_REL_EPSILON`]: the
//! `quantized_equivalence` suite asserts the quantized eval RMSE stays within
//! that relative budget of the f32 eval on the standard synthetic problem.

use crate::config::StsmConfig;
use crate::error::StsmError;
use crate::model::StModel;
use crate::trainer::TrainedStsm;
use stsm_tensor::{DType, ParamStore};

/// Maximum tolerated relative RMSE degradation of a quantized model against
/// its f32 source: `|rmse_q - rmse_f32| <= ε · rmse_f32`.
///
/// The budget is deliberately loose (5%): bf16 keeps only 8 mantissa bits, so
/// individual weights move by up to ~0.4% relative, and the GRU/GCN stack can
/// amplify that over `T` steps. Empirically both f16 and bf16 land well under
/// 1% on the standard synthetic eval; 5% leaves headroom for unlucky seeds
/// while still catching real regressions (a broken convert routine or a
/// kernel that accumulates in half precision blows the gate by orders of
/// magnitude).
pub const QUANT_RMSE_REL_EPSILON: f32 = 0.05;

/// A trained STSM whose parameters are stored in a (possibly) narrower dtype.
///
/// Produced by [`TrainedStsm::quantize`]. The architecture and config are
/// identical to the source model; only parameter *storage* differs. A
/// `QuantizedStsm` with [`DType::F32`] is a plain copy of the source — useful
/// as the uniform "either precision" currency behind [`crate::Predictor`].
pub struct QuantizedStsm {
    cfg: StsmConfig,
    store: ParamStore,
    model: StModel,
    dtype: DType,
}

impl TrainedStsm {
    /// Quantizes the trained parameters to storage dtype `dt`
    /// (round-to-nearest-even per scalar; `dt == DType::F32` yields a
    /// bit-exact copy). Training state is not consumed or modified.
    pub fn quantize(&self, dt: DType) -> QuantizedStsm {
        // Rebuild the architecture so the quantized model owns an
        // independent store/model pair (same idiom as `from_json`).
        let mut fresh = ParamStore::new();
        let model = StModel::new(&mut fresh, &self.cfg);
        fresh.load_from(&self.store).expect("same config implies same parameter layout");
        QuantizedStsm { cfg: self.cfg.clone(), store: fresh.to_dtype(dt), model, dtype: dt }
    }
}

impl QuantizedStsm {
    /// Storage dtype of every parameter.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// The configuration the source model was trained with.
    pub fn cfg(&self) -> &StsmConfig {
        &self.cfg
    }

    /// The quantized parameters.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The underlying spatial-temporal network.
    pub fn model_ref(&self) -> &StModel {
        &self.model
    }

    /// Bytes the parameter storage occupies (16-bit dtypes: half of f32).
    pub fn param_bytes(&self) -> usize {
        self.store.storage_bytes()
    }

    /// Serializes configuration + dtype + quantized parameters to JSON.
    ///
    /// Same shape as [`TrainedStsm::to_json`] plus a top-level `"dtype"`
    /// field; the parameter payload round-trips the raw little-endian dtype
    /// bits through the shared `stsm_tensor::codec` hex encoding, so
    /// save → load → predict is bitwise stable.
    pub fn to_json(&self) -> String {
        serde_json::json!({
            "config": self.cfg,
            "dtype": self.dtype.name(),
            "params": serde_json::from_str::<serde_json::Value>(&self.store.to_json())
                .expect("params serialize"),
        })
        .to_string()
    }

    /// Restores a quantized model from [`QuantizedStsm::to_json`] output.
    ///
    /// Validates the persisted parameters against the architecture declared
    /// by the persisted config (count/name/shape mismatches surface as
    /// [`StsmError::ParamLayout`]) and checks every parameter actually
    /// carries the declared dtype (mismatch is [`StsmError::Serde`]).
    pub fn from_json(json: &str) -> Result<Self, StsmError> {
        let v: serde_json::Value = serde_json::from_str(json)?;
        let cfg: StsmConfig = serde_json::from_value(v["config"].clone())?;
        let dt_name =
            v["dtype"].as_str().ok_or_else(|| StsmError::Serde("missing dtype field".into()))?;
        let dtype = DType::parse(dt_name)
            .ok_or_else(|| StsmError::Serde(format!("unknown dtype '{dt_name}'")))?;
        let store = ParamStore::from_json(&v["params"].to_string())?;
        // Rebuild the architecture, then overwrite with the persisted
        // (quantized) weights; `load_from` validates the layout.
        let mut fresh = ParamStore::new();
        let model = StModel::new(&mut fresh, &cfg);
        fresh.load_from(&store)?;
        for (_, name, t) in fresh.iter() {
            if t.dtype() != dtype {
                return Err(StsmError::Serde(format!(
                    "parameter '{name}' is stored as {} but the checkpoint declares {dtype}",
                    t.dtype()
                )));
            }
        }
        Ok(QuantizedStsm { cfg, store: fresh, model, dtype })
    }
}
