//! The spatial-temporal network of §3.4 (Fig. 3): time-of-day input fusion
//! (Eq. 4), `L` blocks of parallel dilated-TCN (Eq. 5) and gated GCN stacks
//! over the spatial and DTW adjacencies (Eqs. 6–11) combined residually
//! (Eq. 12), an output head (Eq. 13) and the contrastive graph readout
//! (Eq. 16). The STSM-trans variant (§5.2.5) swaps the TCN for a transformer
//! encoder with gated spatial/temporal fusion.

use crate::config::{StsmConfig, TemporalModule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use stsm_graph::CsrLinMap;
use stsm_tensor::nn::{Conv1d, Fwd, Linear, TransformerEncoderLayer};
use stsm_tensor::{InferSession, ParamStore, Tensor, Var};

/// Number of periodic time features per step (see [`StModel::time_features`]).
pub const TIME_FEATURES: usize = 5;

/// Temporal sub-module of one block.
#[allow(clippy::large_enum_variant)] // one instance per block; size is irrelevant
enum TemporalSub {
    /// Two stacked dilated causal convolutions (Eq. 5).
    Conv(Conv1d, Conv1d),
    /// Transformer encoder + gated fusion (STSM-trans).
    Transformer(TransformerEncoderLayer, Linear, Linear),
}

/// Gated GCN layer pair: `GCNL(A, Z) = GCN(A,Z) ⊙ σ(GCN(A,Z))` (Eq. 7).
struct GcnLayer {
    value: Linear,
    gate: Linear,
}

impl GcnLayer {
    /// One fused node: aggregate neighbours once, then both feature maps,
    /// the gate and the product in one GEMM pass ([`Fwd::gated_gcn`]).
    fn forward(&self, fwd: &mut Fwd, adj: &Arc<CsrLinMap>, z: Var) -> Var {
        let value = self.value.bind(fwd);
        let gate = self.gate.bind(fwd);
        let map = Arc::clone(adj) as Arc<dyn stsm_tensor::LinMap>;
        fwd.gated_gcn(map, z, value, gate)
    }

    /// The composed chain the fused node replaces — `linmap`, two `addmm`,
    /// `sigmoid`, `mul` — kept as the bitwise oracle for [`GcnLayer::forward`]
    /// (reached through [`StModel::forward_reference`]).
    fn forward_reference(&self, fwd: &mut Fwd, adj: &Arc<CsrLinMap>, z: Var) -> Var {
        let agg = fwd.linmap(Arc::clone(adj) as Arc<dyn stsm_tensor::LinMap>, z);
        let v = self.value.forward(fwd, agg);
        let g = self.gate.forward(fwd, agg);
        let gs = fwd.sigmoid(g);
        fwd.mul(v, gs)
    }
}

/// One ST block: temporal module ∥ two GCN stacks, combined by max + residual
/// sum (Eqs. 9–12).
struct StBlock {
    temporal: TemporalSub,
    gcn_s: Vec<GcnLayer>,
    gcn_dtw: Vec<GcnLayer>,
}

/// The time steps one block computes. The GCN stacks mix nodes and
/// features but never time, so they run at exactly the steps the block
/// outputs; the two causal convs widen that set by their taps.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BlockSteps {
    /// Steps at which the first conv of the temporal module runs.
    mid: Vec<usize>,
    /// Steps the block outputs: where its GCN stacks and last conv run.
    out: Vec<usize>,
}

/// The full spatial-temporal model.
pub struct StModel {
    phi1: Linear,
    phi2: Linear,
    blocks: Vec<StBlock>,
    phi3: Linear,
    phi4: Linear,
    readout1: Linear,
    readout2: Linear,
    hidden: usize,
    t_in: usize,
}

/// Output of one forward pass.
pub struct ForwardOutput {
    /// Predictions `(N, T', 1)` in scaled space.
    pub prediction: Var,
    /// Graph-level representation for contrastive learning (Eq. 16), shape
    /// `(1, hidden)`.
    pub graph_repr: Var,
}

impl StModel {
    /// Registers all parameters for the configured architecture.
    pub fn new(store: &mut ParamStore, cfg: &StsmConfig) -> Self {
        cfg.validate();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA11CE);
        let h = cfg.hidden;
        let phi1 = Linear::new(store, "input.phi1", 1, h, &mut rng);
        let phi2 = Linear::new(store, "input.phi2", TIME_FEATURES, h, &mut rng);
        let mut blocks = Vec::with_capacity(cfg.blocks);
        for l in 0..cfg.blocks {
            let temporal = match cfg.temporal {
                TemporalModule::DilatedConv => {
                    // Exponential dilations across blocks: 2^(2l), 2^(2l+1),
                    // capped so the receptive field stays inside the window.
                    let d1 = (1usize << (2 * l)).min(cfg.t_in.max(2) / 2).max(1);
                    let d2 = (1usize << (2 * l + 1)).min(cfg.t_in.max(2) / 2).max(1);
                    TemporalSub::Conv(
                        Conv1d::new(store, &format!("block{l}.tcn0"), h, h, 2, d1, &mut rng),
                        Conv1d::new(store, &format!("block{l}.tcn1"), h, h, 2, d2, &mut rng),
                    )
                }
                TemporalModule::Transformer => {
                    let heads = if h.is_multiple_of(4) { 4 } else { 1 };
                    TemporalSub::Transformer(
                        TransformerEncoderLayer::new(
                            store,
                            &format!("block{l}.trans"),
                            h,
                            heads,
                            2 * h,
                            &mut rng,
                        ),
                        Linear::new(store, &format!("block{l}.gate_s"), h, h, &mut rng),
                        Linear::new(store, &format!("block{l}.gate_t"), h, h, &mut rng),
                    )
                }
            };
            let gcn_s = (0..cfg.gcn_depth)
                .map(|q| GcnLayer {
                    value: Linear::new(store, &format!("block{l}.gcn_s{q}.v"), h, h, &mut rng),
                    gate: Linear::new(store, &format!("block{l}.gcn_s{q}.g"), h, h, &mut rng),
                })
                .collect();
            let gcn_dtw = (0..cfg.gcn_depth)
                .map(|q| GcnLayer {
                    value: Linear::new(store, &format!("block{l}.gcn_d{q}.v"), h, h, &mut rng),
                    gate: Linear::new(store, &format!("block{l}.gcn_d{q}.g"), h, h, &mut rng),
                })
                .collect();
            blocks.push(StBlock { temporal, gcn_s, gcn_dtw });
        }
        // Output head: every horizon must see the whole input window, so the
        // head flattens time before projecting (Eq. 13's φ3/φ4).
        let phi3 = Linear::new(store, "head.phi3", cfg.t_in * h, 2 * h, &mut rng);
        let phi4 = Linear::new(store, "head.phi4", 2 * h, cfg.t_out, &mut rng);
        let readout1 = Linear::new(store, "readout.0", h, h, &mut rng);
        let readout2 = Linear::new(store, "readout.1", h, h, &mut rng);
        StModel { phi1, phi2, blocks, phi3, phi4, readout1, readout2, hidden: h, t_in: cfg.t_in }
    }

    /// Periodic time features `(T, 5)` for a window starting at absolute
    /// step `start`: time-of-day sin/cos at one and two cycles per day plus
    /// a weekend indicator. The paper's `TE` carries interval ids (§3.4.1);
    /// harmonics + day type are the projection-friendly equivalent.
    pub fn time_features(start: usize, len: usize, steps_per_day: usize) -> Tensor {
        let mut data = Vec::with_capacity(len * TIME_FEATURES);
        for i in 0..len {
            let abs = start + i;
            let id = abs % steps_per_day;
            let day = abs / steps_per_day;
            let angle = std::f64::consts::TAU * id as f64 / steps_per_day as f64;
            data.push(angle.sin() as f32);
            data.push(angle.cos() as f32);
            data.push((2.0 * angle).sin() as f32);
            data.push((2.0 * angle).cos() as f32);
            data.push(if day % 7 >= 5 { 1.0 } else { 0.0 });
        }
        Tensor::from_vec([len, TIME_FEATURES], data)
    }

    /// Forward pass.
    ///
    /// * `x` — inputs `(N, T, 1)` in scaled space (pseudo-observations
    ///   already filled in);
    /// * `time_feats` — from [`StModel::time_features`], `(T, 5)`;
    /// * `a_s`, `a_dtw` — GCN-normalized adjacency maps over the same `N`
    ///   locations.
    pub fn forward(
        &self,
        fwd: &mut Fwd,
        x: &Tensor,
        time_feats: &Tensor,
        a_s: &Arc<CsrLinMap>,
        a_dtw: &Arc<CsrLinMap>,
    ) -> ForwardOutput {
        let (prediction, graph_repr) =
            self.forward_with(fwd, x, time_feats, a_s, a_dtw, false, false);
        ForwardOutput { prediction: prediction.expect("the full pass builds the head"), graph_repr }
    }

    /// [`StModel::forward`] with every gated GCN layer run as the composed
    /// five-op chain instead of the fused node: the oracle the bitwise
    /// equivalence suites compare the fused model against.
    #[doc(hidden)]
    pub fn forward_reference(
        &self,
        fwd: &mut Fwd,
        x: &Tensor,
        time_feats: &Tensor,
        a_s: &Arc<CsrLinMap>,
        a_dtw: &Arc<CsrLinMap>,
    ) -> ForwardOutput {
        let (prediction, graph_repr) =
            self.forward_with(fwd, x, time_feats, a_s, a_dtw, true, false);
        ForwardOutput { prediction: prediction.expect("the full pass builds the head"), graph_repr }
    }

    /// The Eq. 16 graph representation alone, `(1, hidden)` — all the
    /// contrastive full view reads — computed only over the readout's
    /// receptive field: the readout takes the last step, so the last block
    /// runs at step `T − 1` and each earlier block at the steps the next
    /// one's convs read ([`StModel::step_plan`]); the output head is never
    /// built. Bitwise equal to [`StModel::forward`]'s `graph_repr`, and on
    /// a tape so is every gradient it sends back (DESIGN.md, "The readout
    /// pass"). The transformer variant attends over every step and keeps
    /// the full set.
    pub fn forward_readout(
        &self,
        fwd: &mut Fwd,
        x: &Tensor,
        time_feats: &Tensor,
        a_s: &Arc<CsrLinMap>,
        a_dtw: &Arc<CsrLinMap>,
    ) -> Var {
        self.forward_with(fwd, x, time_feats, a_s, a_dtw, false, true).1
    }

    /// Per block, the steps it computes so that the last block outputs the
    /// steps `need`, walking from the last block back: a TCN block whose
    /// output set is `S` runs its first conv at `U = c2.input_steps(S)` and
    /// reads its input at `c1.input_steps(U)`, which the block before must
    /// output. A transformer block attends over every step, so it and every
    /// block before it keep the full set.
    fn step_plan(&self, mut need: Vec<usize>) -> Vec<BlockSteps> {
        let all = || (0..self.t_in).collect::<Vec<_>>();
        let mut plan = Vec::with_capacity(self.blocks.len());
        for block in self.blocks.iter().rev() {
            let (mid, input) = match &block.temporal {
                TemporalSub::Conv(c1, c2) => {
                    let mid = c2.input_steps(&need);
                    let input = c1.input_steps(&mid);
                    (mid, input)
                }
                TemporalSub::Transformer(..) => {
                    need = all();
                    (all(), all())
                }
            };
            plan.push(BlockSteps { mid, out: need });
            need = input;
        }
        plan.reverse();
        plan
    }

    /// The forward pass over the steps `step_plan` gives: every step with
    /// the output head for [`StModel::forward`], the readout's receptive
    /// field without it when `readout_only`. Returns the prediction (none
    /// when `readout_only`) and the graph representation.
    #[allow(clippy::too_many_arguments)]
    fn forward_with(
        &self,
        fwd: &mut Fwd,
        x: &Tensor,
        time_feats: &Tensor,
        a_s: &Arc<CsrLinMap>,
        a_dtw: &Arc<CsrLinMap>,
        composed_gcn: bool,
        readout_only: bool,
    ) -> (Option<Var>, Var) {
        let (n, t_len) = (x.dim(0), x.dim(1));
        assert_eq!(x.dims(), &[n, t_len, 1], "input must be (N, T, 1)");
        assert_eq!(t_len, self.t_in, "window length mismatch");
        assert_eq!(
            time_feats.dims(),
            &[t_len, TIME_FEATURES],
            "time features must be (T, {TIME_FEATURES})"
        );
        assert_eq!(a_s.matrix().rows(), n, "A_s size mismatch");
        assert_eq!(a_dtw.matrix().rows(), n, "A_dtw size mismatch");
        let xv = fwd.constant(x.clone());
        let te = fwd.constant(time_feats.clone());
        // Eq. 4: H0 = φ1(X) ⊙ φ2(TE), broadcast over nodes.
        let hx = self.phi1.forward(fwd, xv); // (N, T, H)
        let ht = self.phi2.forward(fwd, te); // (T, H) -> broadcast
        let ht = fwd.reshape(ht, [1, t_len, self.hidden]);
        let ht = fwd.broadcast_to(ht, [n, t_len, self.hidden]);
        let mut h = fwd.mul(hx, ht);
        let all: Vec<usize> = (0..t_len).collect();
        let plan = self.step_plan(if readout_only { vec![t_len - 1] } else { all.clone() });
        // The steps `h` holds, in order.
        let mut have = &all[..];
        for (block, steps) in self.blocks.iter().zip(&plan) {
            h = self.block_forward(fwd, block, h, have, steps, n, t_len, a_s, a_dtw, composed_gcn);
            have = &steps.out;
        }
        // Eq. 13 head: flatten time so each horizon sees the full window;
        // inner ReLU, linear output (scaled space can be negative, so no
        // outer squashing).
        let prediction = (!readout_only).then(|| {
            let flat = fwd.reshape(h, [n, t_len * self.hidden]);
            let h3 = self.phi3.forward(fwd, flat);
            let h3 = fwd.relu(h3);
            let out = self.phi4.forward(fwd, h3); // (N, T')
            fwd.reshape(out, [n, t_len, 1])
        });
        // Eq. 16 readout on the last time step, the last one `h` holds.
        let last = fwd.slice(h, 1, have.len() - 1, have.len()); // (N, 1, H)
        let last = fwd.reshape(last, [n, self.hidden]);
        let pooled = fwd.sum_axis(last, 0, false); // (H,)
        let pooled = fwd.reshape(pooled, [1, self.hidden]);
        let r = self.readout1.forward(fwd, pooled);
        let r = fwd.relu(r);
        let graph_repr = self.readout2.forward(fwd, r);
        (prediction, graph_repr)
    }

    /// Rows of `h` — `(N, |have|, H)`, holding the steps `have` — at the
    /// steps `want`, as `(N, |want|, H)`: `h` itself when the two sets are
    /// one, else one gather of its `(N·|have|, H)` rows.
    fn gather_steps(&self, fwd: &mut Fwd, h: Var, have: &[usize], want: &[usize]) -> Var {
        if want == have {
            return h;
        }
        let n = fwd.shape_of(h).dim(0);
        let idx: Vec<usize> = (0..n)
            .flat_map(|b| {
                want.iter().map(move |t| {
                    b * have.len() + have.binary_search(t).expect("block input lacks a step")
                })
            })
            .collect();
        let rows = fwd.reshape(h, [n * have.len(), self.hidden]);
        let rows = fwd.index_select0(rows, &idx);
        fwd.reshape(rows, [n, want.len(), self.hidden])
    }

    /// One block over `h`, which holds the steps `have`; outputs the steps
    /// `steps.out`.
    #[allow(clippy::too_many_arguments)]
    fn block_forward(
        &self,
        fwd: &mut Fwd,
        block: &StBlock,
        h: Var,
        have: &[usize],
        steps: &BlockSteps,
        n: usize,
        t_len: usize,
        a_s: &Arc<CsrLinMap>,
        a_dtw: &Arc<CsrLinMap>,
        composed_gcn: bool,
    ) -> Var {
        // GCN path, per adjacency: stack of gated layers, max over depth
        // (Eq. 9), then max over adjacencies (Eq. 11). The weights mix only
        // the feature axis, so all output steps go through at once. Each
        // path gathers its own input rows, so the gradients reaching `h`
        // add up in the order the full-length pass adds them.
        let gcn_path = |fwd: &mut Fwd, layers: &[GcnLayer], adj: &Arc<CsrLinMap>| -> Var {
            let mut z = self.gather_steps(fwd, h, have, &steps.out);
            let mut best: Option<Var> = None;
            for layer in layers {
                z = if composed_gcn {
                    layer.forward_reference(fwd, adj, z)
                } else {
                    layer.forward(fwd, adj, z)
                };
                best = Some(match best {
                    None => z,
                    Some(b) => fwd.max2(b, z),
                });
            }
            best.expect("at least one GCN layer")
        };
        let hs = gcn_path(fwd, &block.gcn_s, a_s);
        let hd = gcn_path(fwd, &block.gcn_dtw, a_dtw);
        let h_gcn = fwd.max2(hs, hd);
        // Temporal path.
        match &block.temporal {
            TemporalSub::Conv(c1, c2) => {
                // The convs run channels-last, on (N, T, H) as it is, or at
                // the planned steps only.
                let y = c1.forward_steps(fwd, h, have, &steps.mid, t_len);
                let y = fwd.relu(y);
                let y = c2.forward_steps(fwd, y, &steps.mid, &steps.out, t_len);
                let h_tcn = fwd.relu(y);
                // Eq. 12: residual combination.
                fwd.add(h_gcn, h_tcn)
            }
            TemporalSub::Transformer(enc, gate_s, gate_t) => {
                let h_trans = enc.forward(fwd, h); // (N, T, H): attention over time
                                                   // Gated fusion (GMAN-style): z = σ(Ws h_gcn + Wt h_trans),
                                                   // H = z ⊙ h_gcn + (1 - z) ⊙ h_trans.
                let gs = gate_s.forward(fwd, h_gcn);
                let gt = gate_t.forward(fwd, h_trans);
                let z = fwd.add(gs, gt);
                let z = fwd.sigmoid(z);
                let a = fwd.mul(z, h_gcn);
                let one = fwd.constant(Tensor::ones([n, t_len, self.hidden]));
                let omz = fwd.sub(one, z);
                let b = fwd.mul(omz, h_trans);
                fwd.add(a, b)
            }
        }
    }
}

/// Convenience: run a single forward-only (Infer-mode) forward pass; returns
/// the prediction tensor. For repeated windows, prefer
/// [`crate::Predictor`], which binds the session once.
pub fn predict_once(
    model: &StModel,
    store: &ParamStore,
    x: &Tensor,
    time_feats: &Tensor,
    a_s: &Arc<CsrLinMap>,
    a_dtw: &Arc<CsrLinMap>,
) -> Tensor {
    let mut session = InferSession::new(store);
    let mut fwd = Fwd::infer(store, &mut session);
    let out = model.forward(&mut fwd, x, time_feats, a_s, a_dtw);
    fwd.value(out.prediction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsm_graph::{normalize_gcn, CsrMatrix};
    use stsm_tensor::Tape;

    fn adjacency(n: usize) -> Arc<CsrLinMap> {
        // Ring graph.
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, (i + 1) % n, 1.0));
            triplets.push(((i + 1) % n, i, 1.0));
        }
        Arc::new(CsrLinMap::new(normalize_gcn(&CsrMatrix::from_triplets(n, n, &triplets))))
    }

    fn small_cfg() -> StsmConfig {
        StsmConfig { t_in: 6, t_out: 6, hidden: 8, blocks: 2, gcn_depth: 2, ..Default::default() }
    }

    #[test]
    fn forward_shapes() {
        let cfg = small_cfg();
        let mut store = ParamStore::new();
        let model = StModel::new(&mut store, &cfg);
        let n = 10;
        let x = Tensor::zeros([n, 6, 1]);
        let tf = StModel::time_features(0, 6, 24);
        let a = adjacency(n);
        let tape = Tape::new();
        let mut binder = stsm_tensor::ParamBinder::new(&tape);
        let mut fwd = Fwd::new(&store, &mut binder);
        let out = model.forward(&mut fwd, &x, &tf, &a, &a);
        assert_eq!(tape.shape_of(out.prediction).dims(), &[n, 6, 1]);
        assert_eq!(tape.shape_of(out.graph_repr).dims(), &[1, 8]);
    }

    #[test]
    fn transformer_variant_forward() {
        let mut cfg = small_cfg();
        cfg.temporal = TemporalModule::Transformer;
        let mut store = ParamStore::new();
        let model = StModel::new(&mut store, &cfg);
        let n = 6;
        let x = Tensor::ones([n, 6, 1]);
        let tf = StModel::time_features(3, 6, 24);
        let a = adjacency(n);
        let pred = predict_once(&model, &store, &x, &tf, &a, &a);
        assert_eq!(pred.dims(), &[n, 6, 1]);
        assert!(!pred.has_non_finite());
    }

    #[test]
    fn time_features_are_periodic() {
        let f1 = StModel::time_features(0, 3, 24);
        let f2 = StModel::time_features(7 * 24, 3, 24); // same weekday phase
        assert!(f1.allclose(&f2, 1e-6));
        // A weekend window differs in the day-type flag.
        let f3 = StModel::time_features(5 * 24, 3, 24);
        assert!(!f1.allclose(&f3, 1e-6));
        // All on the unit circle.
        for t in 0..3 {
            let s = f1.at(&[t, 0]);
            let c = f1.at(&[t, 1]);
            assert!((s * s + c * c - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let cfg = small_cfg();
        let mut store = ParamStore::new();
        let model = StModel::new(&mut store, &cfg);
        let n = 8;
        let mut rng = StdRng::seed_from_u64(1);
        let x = stsm_tensor::nn::randn([n, 6, 1], 1.0, &mut rng);
        let tf = StModel::time_features(0, 6, 24);
        let a = adjacency(n);
        let tape = Tape::new();
        let mut binder = stsm_tensor::ParamBinder::new(&tape);
        let mut fwd = Fwd::new(&store, &mut binder);
        let out = model.forward(&mut fwd, &x, &tf, &a, &a);
        let target = Tensor::zeros([n, 6, 1]);
        let lp = tape.mse_loss(out.prediction, &target);
        let lr = tape.mean_all(tape.square(out.graph_repr));
        let loss = tape.add(lp, lr);
        tape.backward(loss);
        let grads = binder.grads();
        // Every registered parameter should be touched by the forward pass.
        assert_eq!(grads.len(), store.len(), "some parameters receive no gradient");
        for (pid, g) in &grads {
            assert!(!g.has_non_finite(), "non-finite grad for {}", store.name(*pid));
        }
    }

    #[test]
    fn deterministic_initialization() {
        let cfg = small_cfg();
        let mut s1 = ParamStore::new();
        let _ = StModel::new(&mut s1, &cfg);
        let mut s2 = ParamStore::new();
        let _ = StModel::new(&mut s2, &cfg);
        for ((_, n1, v1), (_, n2, v2)) in s1.iter().zip(s2.iter()) {
            assert_eq!(n1, n2);
            assert_eq!(v1, v2);
        }
    }

    #[test]
    fn readout_receptive_field_of_default_config() {
        // T = 12, dilations 1, 2 (block 0) and 4, 6 (block 1).
        let mut store = ParamStore::new();
        let model = StModel::new(&mut store, &StsmConfig::default());
        let plan = model.step_plan(vec![11]);
        let steps =
            |mid: &[usize], out: &[usize]| BlockSteps { mid: mid.to_vec(), out: out.to_vec() };
        assert_eq!(plan, vec![steps(&[1, 3, 5, 7, 9, 11], &[1, 5, 7, 11]), steps(&[5, 11], &[11])]);
        // Block 0 reads its whole input; the full pass keeps every step.
        let TemporalSub::Conv(c1, _) = &model.blocks[0].temporal else { unreachable!() };
        assert_eq!(c1.input_steps(&plan[0].mid), (0..12).collect::<Vec<_>>());
        let all: Vec<usize> = (0..12).collect();
        assert!(model.step_plan(all.clone()).iter().all(|b| b.mid == all && b.out == all));
        // The transformer attends over every step.
        let cfg = StsmConfig { temporal: TemporalModule::Transformer, ..Default::default() };
        let trans = StModel::new(&mut ParamStore::new(), &cfg);
        assert!(trans.step_plan(vec![11]).iter().all(|b| b.mid == all && b.out == all));
    }

    #[test]
    fn readout_ignores_steps_outside_its_receptive_field() {
        // One block, T = 12, dilations 1, 2: the readout at step 11 reads
        // steps 8..=11 only, so rewriting steps 0..=7 of the input must
        // leave the full forward's graph representation bitwise unchanged.
        let cfg = StsmConfig { blocks: 1, ..Default::default() };
        let mut store = ParamStore::new();
        let model = StModel::new(&mut store, &cfg);
        let plan = model.step_plan(vec![11]);
        let TemporalSub::Conv(c1, _) = &model.blocks[0].temporal else { unreachable!() };
        assert_eq!(c1.input_steps(&plan[0].mid), vec![8, 9, 10, 11]);
        let n = 10;
        let mut rng = StdRng::seed_from_u64(3);
        let x = stsm_tensor::nn::randn([n, 12, 1], 1.0, &mut rng);
        let mut y = x.clone();
        for (i, v) in y.data_mut().iter_mut().enumerate() {
            if i % 12 < 8 {
                *v = 5.0 - *v * 3.0;
            }
        }
        let tf = StModel::time_features(0, 12, 24);
        let a = adjacency(n);
        let repr = |x: &Tensor, readout: bool| {
            let mut session = InferSession::new(&store);
            let mut fwd = Fwd::infer(&store, &mut session);
            let z = if readout {
                model.forward_readout(&mut fwd, x, &tf, &a, &a)
            } else {
                model.forward(&mut fwd, x, &tf, &a, &a).graph_repr
            };
            fwd.value(z)
        };
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let base = bits(repr(&x, false));
        assert_eq!(bits(repr(&y, false)), base, "steps 0..=7 reached the readout");
        assert_eq!(bits(repr(&x, true)), base, "the readout pass differs from the full forward");
        // The prediction does read those steps.
        let p1 = predict_once(&model, &store, &x, &tf, &a, &a);
        let p2 = predict_once(&model, &store, &y, &tf, &a, &a);
        assert!(!p1.allclose(&p2, 1e-5));
    }

    #[test]
    fn prediction_depends_on_adjacency() {
        // Swapping the adjacency must change the output — the GCN path works.
        let cfg = small_cfg();
        let mut store = ParamStore::new();
        let model = StModel::new(&mut store, &cfg);
        let n = 10;
        let mut rng = StdRng::seed_from_u64(2);
        let x = stsm_tensor::nn::randn([n, 6, 1], 1.0, &mut rng);
        let tf = StModel::time_features(0, 6, 24);
        let ring = adjacency(n);
        let empty = Arc::new(CsrLinMap::new(normalize_gcn(&CsrMatrix::from_triplets(n, n, &[]))));
        let p1 = predict_once(&model, &store, &x, &tf, &ring, &ring);
        let p2 = predict_once(&model, &store, &x, &tf, &empty, &empty);
        assert!(!p1.allclose(&p2, 1e-5), "adjacency has no effect on the output");
    }
}
