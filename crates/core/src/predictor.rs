//! Bind-once, predict-many inference workspace for a trained STSM.
//!
//! [`Predictor`] packages everything test-time forecasting needs — the
//! full-graph spatial and DTW adjacencies, the pseudo-observation weights of
//! Eq. 3, and a forward-only [`InferSession`] with all parameters bound — so
//! evaluation loops stop rebuilding binder state per window. One `Predictor`
//! serves any number of windows: each call resets the session arena, which
//! recycles the previous window's intermediates straight into the next one,
//! and a window that overlaps the previous one bit for bit recomputes only
//! the block steps whose receptive field moved ([`Predictor::predict`]).
//!
//! [`Predictor::predict_window_checked`] additionally scans the observed
//! readings of the window for non-finite values (dropped or corrupted
//! sensors) and imputes them — inverse-distance blend over the finite
//! co-temporal readings first, last-finite carry within the window as the
//! fallback, deterministic zero-fill (counted as
//! [`DataQuality::unrecoverable`]) when a sensor's window is non-finite end
//! to end with no finite co-temporal reading anywhere — returning a
//! [`DataQuality`] summary next to the forecast.
//! Clean windows take an untouched fast path, so their output is bitwise
//! identical to [`Predictor::predict_window`] — for f32 *and* quantized
//! sessions alike (the fast path never touches the gathered sources, so the
//! same bound session sees the same input bits either way; the
//! `quantized_equivalence` suite asserts this per dtype).
//!
//! ## Precision
//!
//! A `Predictor` serves either parameter precision behind one API: bind a
//! [`TrainedStsm`] for f32 weights, or a [`QuantizedStsm`] (via
//! [`Predictor::new_quantized`] / [`Predictor::new_with_dtype`]) for
//! f16/bf16 storage with f32 compute. [`Predictor::new`] additionally honors
//! the `STSM_INFER_DTYPE=f32|f16|bf16` environment override, quantizing on
//! the fly — unset, empty, or unrecognized values fall back to f32 so a
//! stray variable can never silently change a production default to a
//! *different* reduced precision.

use crate::config::StsmConfig;
use crate::model::{RollingState, StModel};
use crate::problem::ProblemInstance;
use crate::pseudo::{blend_series, inverse_distance_weights};
use crate::quant::QuantizedStsm;
use crate::resilience::{carry_impute, DataQuality};
use crate::temporal_adj::{pseudo_weights_for, DtwContext};
use crate::trainer::TrainedStsm;
use std::sync::Arc;
use std::time::Instant;
use stsm_graph::{normalize_gcn, CsrLinMap};
use stsm_tensor::nn::Fwd;
use stsm_tensor::{telemetry, DType, InferSession, ParamStore, Tensor};

/// A shareable, reference-counted model of either precision — the currency a
/// serving layer passes between threads and swaps atomically under load.
///
/// Worker threads clone the `Arc` and bind their own (thread-pinned)
/// [`Predictor`] via [`Predictor::new_shared`] /
/// [`Predictor::new_shared_with_assets`]; the model data itself is immutable
/// and `Sync`, so any number of sessions serve one copy of the weights.
#[derive(Clone)]
pub enum SharedModel {
    /// Full-precision trained weights.
    F32(Arc<TrainedStsm>),
    /// f16/bf16 storage (f32 compute) — see [`QuantizedStsm`].
    Quantized(Arc<QuantizedStsm>),
}

impl SharedModel {
    /// The configuration the model was trained with.
    pub fn cfg(&self) -> &StsmConfig {
        match self {
            SharedModel::F32(t) => &t.cfg,
            SharedModel::Quantized(q) => q.cfg(),
        }
    }

    /// Storage dtype of the parameters.
    pub fn dtype(&self) -> DType {
        match self {
            SharedModel::F32(_) => DType::F32,
            SharedModel::Quantized(q) => q.dtype(),
        }
    }

    /// FNV-1a fingerprint of the model's config (the same canonical JSON
    /// form the training checkpoints use). A serving layer compares
    /// fingerprints before hot-swapping: only a checkpoint trained under the
    /// *identical* configuration can replace a live model, because the
    /// serving-side assets (adjacencies, pseudo-weights, window geometry)
    /// are functions of that config.
    pub fn fingerprint(&self) -> u64 {
        self.cfg().fingerprint()
    }
}

/// Where a [`Predictor`]'s weights live: a borrowed f32 model, a borrowed
/// quantized model, a quantized copy the predictor owns (the
/// `STSM_INFER_DTYPE` path quantizes on the fly and must keep the result
/// alive itself), or a reference-counted [`SharedModel`] (the serving path —
/// no borrow, so the predictor is `'static`).
enum ModelSource<'m> {
    Trained(&'m TrainedStsm),
    Quantized(&'m QuantizedStsm),
    OwnedQuantized(Box<QuantizedStsm>),
    Shared(SharedModel),
}

impl ModelSource<'_> {
    fn cfg(&self) -> &StsmConfig {
        match self {
            ModelSource::Trained(t) => &t.cfg,
            ModelSource::Quantized(q) => q.cfg(),
            ModelSource::OwnedQuantized(q) => q.cfg(),
            ModelSource::Shared(s) => s.cfg(),
        }
    }

    fn store(&self) -> &ParamStore {
        match self {
            ModelSource::Trained(t) => &t.store,
            ModelSource::Quantized(q) => q.store(),
            ModelSource::OwnedQuantized(q) => q.store(),
            ModelSource::Shared(SharedModel::F32(t)) => &t.store,
            ModelSource::Shared(SharedModel::Quantized(q)) => q.store(),
        }
    }

    fn model(&self) -> &StModel {
        match self {
            ModelSource::Trained(t) => t.model_ref(),
            ModelSource::Quantized(q) => q.model_ref(),
            ModelSource::OwnedQuantized(q) => q.model_ref(),
            ModelSource::Shared(SharedModel::F32(t)) => t.model_ref(),
            ModelSource::Shared(SharedModel::Quantized(q)) => q.model_ref(),
        }
    }

    fn dtype(&self) -> DType {
        match self {
            ModelSource::Trained(_) => DType::F32,
            ModelSource::Quantized(q) => q.dtype(),
            ModelSource::OwnedQuantized(q) => q.dtype(),
            ModelSource::Shared(s) => s.dtype(),
        }
    }
}

/// The model-independent test-time assets a [`Predictor`] binds: full-graph
/// spatial and DTW adjacencies, pseudo-observation weights (Eq. 3), the
/// observed×observed imputation weights and the steps/day for time features.
///
/// These are a function of the *config* and the *problem*, not the weights,
/// so a predictor pool builds them once and every worker — and every
/// hot-swapped model with a matching config fingerprint — reuses them via
/// cheap `Arc` clones instead of re-running the DTW search per worker or per
/// swap.
#[derive(Clone)]
pub struct InferAssets {
    a_s: Arc<CsrLinMap>,
    a_dtw: Arc<CsrLinMap>,
    pw: Arc<Vec<f32>>,
    obs_weights: Arc<Vec<f32>>,
    spd: usize,
}

impl InferAssets {
    /// Builds the test-time assets for `cfg` over `problem` (the expensive
    /// part is the DTW top-q search). Shareable across threads and swaps.
    pub fn new(cfg: &StsmConfig, problem: &ProblemInstance) -> Self {
        let n = problem.n();
        let all: Vec<usize> = (0..n).collect();
        let a_s = Arc::new(CsrLinMap::new(normalize_gcn(
            &problem.spatial_adjacency(&all, cfg.epsilon_s),
        )));
        let dtw = DtwContext::with_options(
            problem,
            cfg.dtw_band,
            cfg.dtw_downsample,
            cfg.dtw_candidates,
            cfg.q_kk.max(cfg.q_ku),
        );
        let pw = pseudo_weights_for(problem, &problem.unobserved, &problem.observed);
        let a_dtw = {
            let _span = telemetry::span("stsm.adj.dtw");
            Arc::new(CsrLinMap::new(normalize_gcn(&dtw.test_adjacency(
                n,
                &problem.observed,
                &problem.unobserved,
                &pw,
                cfg.q_kk,
                cfg.q_ku,
            ))))
        };
        let obs_dist = problem.sub_distances(&problem.observed, &problem.observed, true);
        let obs_weights =
            inverse_distance_weights(&obs_dist, problem.observed.len(), problem.observed.len());
        InferAssets {
            a_s,
            a_dtw,
            pw: Arc::new(pw),
            obs_weights: Arc::new(obs_weights),
            spd: problem.steps_per_day(),
        }
    }
}

/// Reusable inference workspace over a trained (or quantized) model and a
/// problem's test-time assets; see the module docs.
pub struct Predictor<'m> {
    source: ModelSource<'m>,
    session: InferSession,
    assets: InferAssets,
    /// The last window's block rows, for the next window to reuse.
    rolling: RollingState,
}

impl<'m> Predictor<'m> {
    /// Builds the test-time assets (full-graph adjacencies, pseudo-observation
    /// weights) and binds the model's parameters into a fresh Infer session.
    ///
    /// Reads `STSM_INFER_DTYPE` (per call): `f16`/`bf16` quantize the model's
    /// weights on the fly (storage-only; compute stays f32); `f32`, unset, or
    /// any unrecognized value serve the trained f32 weights unchanged.
    pub fn new(trained: &'m TrainedStsm, problem: &ProblemInstance) -> Self {
        let dt = std::env::var("STSM_INFER_DTYPE")
            .ok()
            .and_then(|s| DType::parse(&s))
            .unwrap_or(DType::F32);
        Self::new_with_dtype(trained, problem, dt)
    }

    /// Like [`Predictor::new`], but with the inference dtype fixed by the
    /// caller instead of the environment. [`DType::F32`] binds the trained
    /// store directly (no copy); the 16-bit dtypes quantize into an owned
    /// [`QuantizedStsm`].
    pub fn new_with_dtype(trained: &'m TrainedStsm, problem: &ProblemInstance, dt: DType) -> Self {
        let source = if dt.is_half() {
            ModelSource::OwnedQuantized(Box::new(trained.quantize(dt)))
        } else {
            ModelSource::Trained(trained)
        };
        Self::with_source(source, problem)
    }

    /// Binds an already-quantized model. The session arena allocates per the
    /// store's dtype, so reset/recycle stays zero-alloc across windows just
    /// like the f32 path.
    pub fn new_quantized(quantized: &'m QuantizedStsm, problem: &ProblemInstance) -> Self {
        Self::with_source(ModelSource::Quantized(quantized), problem)
    }

    /// Binds a reference-counted [`SharedModel`] (either precision), building
    /// fresh assets from `problem`. The result borrows nothing, so a serving
    /// worker can own it for the lifetime of its thread. Note the predictor
    /// itself stays `!Send` (its session arena is thread-pinned): build it
    /// *inside* the thread that will serve with it.
    pub fn new_shared(model: SharedModel, problem: &ProblemInstance) -> Predictor<'static> {
        Predictor::with_source(ModelSource::Shared(model), problem)
    }

    /// Like [`Predictor::new_shared`], but reusing already-built
    /// [`InferAssets`] — the predictor-pool path: the expensive DTW search
    /// runs once, every worker (and every hot-swapped model with a matching
    /// config fingerprint) binds against `Arc` clones of the same assets.
    pub fn new_shared_with_assets(model: SharedModel, assets: &InferAssets) -> Predictor<'static> {
        Predictor::from_parts(ModelSource::Shared(model), assets.clone())
    }

    /// Storage dtype of the bound parameters ([`DType::F32`] for a plain
    /// trained model).
    pub fn dtype(&self) -> DType {
        self.source.dtype()
    }

    fn with_source(source: ModelSource<'m>, problem: &ProblemInstance) -> Self {
        let assets = InferAssets::new(source.cfg(), problem);
        Self::from_parts(source, assets)
    }

    fn from_parts(source: ModelSource<'m>, assets: InferAssets) -> Self {
        let session = InferSession::new(source.store());
        let rolling = source.model().rolling_state();
        Predictor { source, session, assets, rolling }
    }

    /// The configuration of the bound model.
    pub fn cfg(&self) -> &StsmConfig {
        self.source.cfg()
    }

    /// Predicts one test window starting at absolute step `abs_start`:
    /// builds the `(N, T, 1)` input (real observed rows, pseudo-observed
    /// unobserved rows) and time features, then runs a forward-only forward.
    /// Returns scaled predictions `(N, T', 1)`. Assumes finite inputs; use
    /// [`Predictor::predict_window_checked`] for degraded data.
    pub fn predict_window(&mut self, problem: &ProblemInstance, abs_start: usize) -> Tensor {
        let cfg = self.source.cfg();
        let x = build_full_input(
            problem,
            &self.assets.pw,
            abs_start,
            cfg.t_in,
            cfg.pseudo_observations,
        );
        let tf = StModel::time_features(abs_start, cfg.t_in, self.assets.spd);
        self.predict(&x, &tf)
    }

    /// Like [`Predictor::predict_window`], but scans the window's observed
    /// readings for non-finite values and imputes them before forecasting.
    /// Returns the forecast plus a [`DataQuality`] summary of what was
    /// imputed; a clean window reports zeros and produces output bitwise
    /// identical to the unchecked path.
    pub fn predict_window_checked(
        &mut self,
        problem: &ProblemInstance,
        abs_start: usize,
    ) -> (Tensor, DataQuality) {
        let len = self.source.cfg().t_in;
        let mut sources = gather_sources(problem, abs_start, len);
        self.predict_sources_checked(problem, &mut sources, abs_start)
    }

    /// The serving-layer entry point: forecasts from *caller-gathered*
    /// observed source rows (`N_o × t_in`, observed-major, scaled) instead of
    /// reading the problem's dataset — the shape a streaming ingest ring
    /// buffer produces. Sanitizes `sources` in place exactly like
    /// [`Predictor::predict_window_checked`] (blend → carry → zero-fill; see
    /// [`DataQuality`]) and returns the forecast plus the imputation summary.
    /// `abs_start` only feeds the time-of-day/day-of-week features.
    pub fn predict_sources_checked(
        &mut self,
        problem: &ProblemInstance,
        sources: &mut [f32],
        abs_start: usize,
    ) -> (Tensor, DataQuality) {
        let cfg = self.source.cfg();
        let len = cfg.t_in;
        assert_eq!(
            sources.len(),
            problem.observed.len() * len,
            "sources must be N_o x t_in, observed-major"
        );
        let mut quality = DataQuality { scanned: sources.len(), ..DataQuality::default() };
        sanitize_sources(sources, problem, len, &self.assets.obs_weights, &mut quality);
        telemetry::count("infer.imputed.blend", quality.imputed_blend as u64);
        telemetry::count("infer.imputed.carry", quality.imputed_carry as u64);
        telemetry::count("infer.imputed.unrecoverable", quality.unrecoverable as u64);
        telemetry::count("infer.non_finite_inputs", quality.non_finite as u64);
        let x =
            assemble_full_input(problem, &self.assets.pw, sources, len, cfg.pseudo_observations);
        let tf = StModel::time_features(abs_start, cfg.t_in, self.assets.spd);
        (self.predict(&x, &tf), quality)
    }

    /// Runs one forward-only forward on an already-assembled input, reusing the
    /// bound session. For f32 sessions the result is bitwise identical to the
    /// Train-mode forward value; quantized sessions differ from f32 only by
    /// the round-to-nearest-even step applied to the stored weights (compute
    /// still accumulates in f32) and are themselves fully deterministic.
    ///
    /// When the first `T − δ` steps of `x` and `time_feats` are bitwise the
    /// last `T − δ` steps of the previous call's (a rolling forecast
    /// advanced by `δ`), only the block steps whose receptive field moved
    /// are recomputed; the rest come from the previous call, and the output
    /// is bitwise the full forward's (DESIGN.md, "Rolling reuse").
    pub fn predict(&mut self, x: &Tensor, time_feats: &Tensor) -> Tensor {
        let t0 = telemetry::enabled().then(Instant::now);
        self.session.reset();
        let mut fwd = Fwd::infer(self.source.store(), &mut self.session);
        let out = self.source.model().forward_rolling(
            &mut fwd,
            x,
            time_feats,
            &self.assets.a_s,
            &self.assets.a_dtw,
            &mut self.rolling,
        );
        let pred = fwd.value(out);
        if let Some(t0) = t0 {
            telemetry::record_duration("infer.window", t0.elapsed());
        }
        pred
    }
}

/// Gathers the observed rows of a window, source-major (`N_o × len`), in
/// `problem.observed` order.
pub(crate) fn gather_sources(problem: &ProblemInstance, start: usize, len: usize) -> Vec<f32> {
    let mut sources = Vec::with_capacity(problem.observed.len() * len);
    for &g in &problem.observed {
        sources.extend_from_slice(problem.scaled_range(g, start, start + len));
    }
    sources
}

/// Imputes non-finite entries of `sources` (`N_o × len`, observed-major) in
/// place. Per time step, each bad reading is replaced by the
/// inverse-distance blend of the *finite* co-temporal readings (weights
/// renormalized over the finite subset, self excluded); readings with no
/// finite co-temporal neighbor are filled afterwards by carrying the
/// sensor's last finite value through the window. A row that is non-finite
/// end to end (and found no blend either) is zero-filled and counted as
/// [`DataQuality::unrecoverable`] — the documented deterministic fallback
/// for an all-dark window. Updates `quality` with what happened.
fn sanitize_sources(
    sources: &mut [f32],
    problem: &ProblemInstance,
    len: usize,
    obs_weights: &[f32],
    quality: &mut DataQuality,
) {
    let n_obs = problem.observed.len();
    let mut affected = vec![false; n_obs];
    let mut any_bad = false;
    for r in 0..n_obs {
        for t in 0..len {
            if !sources[r * len + t].is_finite() {
                affected[r] = true;
                any_bad = true;
                quality.non_finite += 1;
            }
        }
    }
    if !any_bad {
        return; // clean fast path: sources untouched
    }
    // Pass 1: cross-sensor blends, computed per time step from the original
    // finite readings only (a value imputed at step `t` never feeds another
    // imputation at the same `t`).
    let mut writes: Vec<(usize, f32)> = Vec::new();
    for t in 0..len {
        writes.clear();
        for r in 0..n_obs {
            if sources[r * len + t].is_finite() {
                continue;
            }
            let mut acc = 0.0f64;
            let mut wsum = 0.0f64;
            for s in 0..n_obs {
                let v = sources[s * len + t];
                if s == r || !v.is_finite() {
                    continue;
                }
                let w = obs_weights[r * n_obs + s] as f64;
                acc += w * v as f64;
                wsum += w;
            }
            if wsum > 0.0 {
                writes.push((r, (acc / wsum) as f32));
            }
        }
        for &(r, v) in &writes {
            sources[r * len + t] = v;
            quality.imputed_blend += 1;
        }
    }
    // Pass 2: whatever survived pass 1 (a step where *every* sensor dropped
    // out) is carried within the sensor's own window. A row with no finite
    // reading anywhere — the all-dark case, where neither the blend nor the
    // carry has any information — is zero-filled deterministically (0.0 is
    // the scaled mean) and counted as `unrecoverable`, not as a carry: the
    // forecast for those readings rests on the model prior alone, and
    // callers branch on that distinction.
    for r in 0..n_obs {
        let row = &mut sources[r * len..(r + 1) * len];
        if !row.iter().any(|v| !v.is_finite()) {
            continue;
        }
        if row.iter().any(|v| v.is_finite()) {
            quality.imputed_carry += carry_impute(row, 0.0);
        } else {
            row.fill(0.0);
            quality.unrecoverable += len;
        }
    }
    for (r, flag) in affected.iter().enumerate() {
        if *flag {
            quality.affected_sensors.push(problem.observed[r]);
        }
    }
}

/// Assembles the full `(N, T, 1)` input from already-gathered (and possibly
/// sanitized) observed source rows: real values at observed rows,
/// pseudo-observations (or zeros, per the ablation switch) at unobserved
/// rows.
pub(crate) fn assemble_full_input(
    problem: &ProblemInstance,
    pseudo_weights: &[f32],
    sources: &[f32],
    len: usize,
    pseudo_observations: bool,
) -> Tensor {
    let n = problem.n();
    let mut data = stsm_tensor::alloc::buf_zeroed(n * len);
    for (row, &g) in problem.observed.iter().enumerate() {
        data[g * len..(g + 1) * len].copy_from_slice(&sources[row * len..(row + 1) * len]);
    }
    if pseudo_observations {
        let pseudo = blend_series(pseudo_weights, sources, problem.observed.len(), len);
        for (row, &u) in problem.unobserved.iter().enumerate() {
            data[u * len..(u + 1) * len].copy_from_slice(&pseudo[row * len..(row + 1) * len]);
        }
    }
    Tensor::from_vec([n, len, 1], data)
}

/// Builds a test-time `(N, T, 1)` input: real scaled values at observed rows,
/// pseudo-observations (or zeros, per the ablation switch) at unobserved rows.
pub(crate) fn build_full_input(
    problem: &ProblemInstance,
    pseudo_weights: &[f32],
    start: usize,
    len: usize,
    pseudo_observations: bool,
) -> Tensor {
    let sources = gather_sources(problem, start, len);
    assemble_full_input(problem, pseudo_weights, &sources, len, pseudo_observations)
}
