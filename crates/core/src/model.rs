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
use stsm_tensor::{telemetry, InferSession, ParamStore, Tensor, Var};

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
/// features but never time, so a step of their output needs the block's
/// input at that step alone; the two causal convs widen a step by their
/// taps.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BlockSteps {
    /// Steps at which the GCN stacks run: the steps the block outputs, or
    /// in a rolling pass the steps whose block input changed.
    gcn: Vec<usize>,
    /// Steps at which the first conv of the temporal module runs.
    mid: Vec<usize>,
    /// Steps at which the last conv runs: the steps the block computes its
    /// output at. A rolling pass takes every other step from its cache.
    out: Vec<usize>,
}

/// What a forward pass computes.
enum Pass<'s> {
    /// Every step and the output head; `composed_gcn` runs each gated GCN
    /// layer as the composed oracle chain.
    Full { composed_gcn: bool },
    /// The readout's receptive field only, without the head.
    Readout,
    /// Every step and the head, taking the steps the previous window
    /// already computed from `state`.
    Rolling(&'s mut RollingState),
}

/// What a rolling forward keeps of the previous window (DESIGN.md,
/// "Rolling reuse"): its input and time features, and per block the
/// `(N, T, H)` GCN output and block output. Bound to the model, parameters
/// and adjacencies of the one [`crate::Predictor`] that holds it.
pub(crate) struct RollingState {
    /// The previous window's input and time features; `None` before the
    /// first window and after a pass that did not finish.
    last: Option<(Tensor, Tensor)>,
    blocks: Vec<BlockCache>,
    /// Whether any shift lets a window reuse a step; without one
    /// (STSM-trans) no window is kept.
    reusable: bool,
}

/// One block's rows from the previous window, every step each.
struct BlockCache {
    /// The GCN stacks' output.
    gcn: Option<Tensor>,
    /// The block's output, when some window can read it: not the last
    /// block's when every shift recomputes all its steps.
    out: Option<Tensor>,
    keep_out: bool,
}

impl RollingState {
    /// The smallest shift `δ` in `1..T` at which this window's first
    /// `T − δ` steps are bitwise the previous window's last `T − δ`, input
    /// and time features alike.
    fn shift_from_last(&self, x: &Tensor, tf: &Tensor) -> Option<usize> {
        let (px, ptf) = self.last.as_ref()?;
        let t_len = tf.dim(0);
        (1..t_len).find(|&d| overlaps(ptf, tf, 1, t_len, d) && overlaps(px, x, x.dim(0), t_len, d))
    }
}

/// Whether each of the `rows` series of `t_len` steps in `cur` starts with
/// the last `t_len − shift` steps of its series in `prev`, bit for bit.
fn overlaps(prev: &Tensor, cur: &Tensor, rows: usize, t_len: usize, shift: usize) -> bool {
    let width = cur.numel() / rows;
    let skip = shift * (width / t_len);
    let (p, c) = (prev.data(), cur.data());
    (0..rows).all(|r| {
        let (p, c) = (&p[r * width..(r + 1) * width], &c[r * width..(r + 1) * width]);
        p[skip..].iter().zip(c).all(|(a, b)| a.to_bits() == b.to_bits())
    })
}

/// The output steps of `conv` over a `t_len`-step series that the previous
/// window cannot supply when the input steps `fresh` changed: those with a
/// tap on a step in `fresh`, or before step 0, where the zero padding stands
/// in for a step the previous window read for real.
fn fresh_steps(conv: &Conv1d, fresh: &[usize], t_len: usize) -> Vec<usize> {
    (0..t_len)
        .filter(|&t| {
            t + 1 < conv.receptive_field()
                || conv.input_steps(&[t]).iter().any(|s| fresh.binary_search(s).is_ok())
        })
        .collect()
}

/// What every block of one forward pass shares.
#[derive(Clone, Copy)]
struct BlockCtx<'a> {
    n: usize,
    t_len: usize,
    a_s: &'a Arc<CsrLinMap>,
    a_dtw: &'a Arc<CsrLinMap>,
    composed_gcn: bool,
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
            self.forward_with(fwd, x, time_feats, a_s, a_dtw, Pass::Full { composed_gcn: false });
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
            self.forward_with(fwd, x, time_feats, a_s, a_dtw, Pass::Full { composed_gcn: true });
        ForwardOutput { prediction: prediction.expect("the full pass builds the head"), graph_repr }
    }

    /// The Eq. 16 graph representation alone, `(1, hidden)` — all the
    /// contrastive full view reads — computed only over the readout's
    /// receptive field: the readout takes the last step, so the last block
    /// runs at step `T − 1` and each earlier block at the steps the next
    /// one's convs read (`StModel::step_plan`); the output head is never
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
        self.forward_with(fwd, x, time_feats, a_s, a_dtw, Pass::Readout).1
    }

    /// A fresh [`RollingState`] for [`StModel::forward_rolling`].
    pub(crate) fn rolling_state(&self) -> RollingState {
        // A larger shift only recomputes more steps, so the smallest one
        // tells what any window can reuse.
        let plan = self.reuse_plan(Some(1));
        let reusable = plan.iter().any(|b| b.gcn.len() < self.t_in);
        let last = plan.len() - 1;
        let blocks = (0..plan.len())
            .map(|l| BlockCache {
                gcn: None,
                out: None,
                keep_out: l < last || plan[last].out.len() < self.t_in,
            })
            .collect();
        RollingState { last: None, blocks, reusable }
    }

    /// [`StModel::forward`]'s prediction, computing only the steps whose
    /// receptive field moved since the window `state` last saw: when this
    /// window's first `T − δ` input steps and time features are bitwise the
    /// previous window's last ones, the rest come from `state`
    /// ([`StModel::reuse_plan`]). Any other window runs every step. Either
    /// way `state` then holds this window. Bitwise equal to
    /// [`StModel::forward`], as long as `state` only ever sees this model,
    /// its parameters and these adjacencies (DESIGN.md, "Rolling reuse").
    pub(crate) fn forward_rolling(
        &self,
        fwd: &mut Fwd,
        x: &Tensor,
        time_feats: &Tensor,
        a_s: &Arc<CsrLinMap>,
        a_dtw: &Arc<CsrLinMap>,
        state: &mut RollingState,
    ) -> Var {
        let (prediction, _) =
            self.forward_with(fwd, x, time_feats, a_s, a_dtw, Pass::Rolling(state));
        prediction.expect("the rolling pass builds the head")
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
            plan.push(BlockSteps { gcn: need.clone(), mid, out: need });
            need = input;
        }
        plan.reverse();
        plan
    }

    /// Per block, the steps a window computes when its first `T − shift`
    /// steps are the previous window's last ones, walking from the first
    /// block on: the GCN stacks run where the block's input changed, and
    /// the block output where the last conv's value can change — the
    /// [`fresh_steps`] of the first conv's fresh steps, themselves the
    /// fresh steps of the changed input. The rest are the previous window's
    /// steps `shift` later. The first conv runs at every step the last one
    /// reads, so no step of it needs keeping. A transformer block attends
    /// over every step, so from there on every step runs; so it does in
    /// each block without a shift, the plan of a window that reuses
    /// nothing.
    fn reuse_plan(&self, shift: Option<usize>) -> Vec<BlockSteps> {
        let t_len = self.t_in;
        let mut fresh: Vec<usize> = (t_len - shift.unwrap_or(t_len)..t_len).collect();
        let mut plan = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let steps = match &block.temporal {
                TemporalSub::Conv(c1, c2) => {
                    let out = fresh_steps(c2, &fresh_steps(c1, &fresh, t_len), t_len);
                    BlockSteps { gcn: fresh, mid: c2.input_steps(&out), out }
                }
                TemporalSub::Transformer(..) => {
                    let all: Vec<usize> = (0..t_len).collect();
                    BlockSteps { gcn: all.clone(), mid: all.clone(), out: all }
                }
            };
            fresh = steps.out.clone();
            plan.push(steps);
        }
        plan
    }

    /// The forward pass over the steps its plan gives: every step with the
    /// output head for [`Pass::Full`], the readout's receptive field
    /// ([`StModel::step_plan`]) without it for [`Pass::Readout`], and the
    /// steps the previous window did not compute ([`StModel::reuse_plan`])
    /// with the head for [`Pass::Rolling`], spliced into every step with
    /// the rows its state kept. Returns the prediction (none for the
    /// readout) and the graph representation.
    fn forward_with(
        &self,
        fwd: &mut Fwd,
        x: &Tensor,
        time_feats: &Tensor,
        a_s: &Arc<CsrLinMap>,
        a_dtw: &Arc<CsrLinMap>,
        pass: Pass,
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
        let readout_only = matches!(pass, Pass::Readout);
        let (plan, composed_gcn, mut rolling) = match pass {
            Pass::Full { composed_gcn } => (self.step_plan(all.clone()), composed_gcn, None),
            Pass::Readout => (self.step_plan(vec![t_len - 1]), false, None),
            Pass::Rolling(state) => {
                let shift = state.shift_from_last(x, time_feats);
                // Forget the last window until this pass has replaced every
                // block's rows: a pass cut short must not be reused.
                state.last = None;
                let plan = self.reuse_plan(shift);
                let reused: usize = plan.iter().map(|b| t_len - b.gcn.len()).sum();
                telemetry::count(
                    if reused > 0 { "infer.reuse.hit" } else { "infer.reuse.miss" },
                    1,
                );
                telemetry::count("infer.reuse.steps", reused as u64);
                (plan, false, Some((state, shift.unwrap_or(0))))
            }
        };
        let ctx = BlockCtx { n, t_len, a_s, a_dtw, composed_gcn };
        // The steps `h` holds, in order.
        let mut have = &all[..];
        for (l, (block, steps)) in self.blocks.iter().zip(&plan).enumerate() {
            let cache = rolling.as_mut().map(|(state, shift)| (&mut state.blocks[l], *shift));
            let full = cache.is_some();
            h = self.block_forward(fwd, block, h, have, steps, cache, &ctx);
            have = if full { &all } else { &steps.out };
        }
        if let Some((state, _)) = rolling {
            if state.reusable {
                state.last = Some((x.clone(), time_feats.clone()));
            }
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

    /// `fresh`, `(N, |steps|, H)` at the ascending `steps`, completed to
    /// every step: a step `t` it lacks is the previous window's step
    /// `t + shift` of `prev` (`(N, T, H)`), in one gather. Either way a
    /// kept `prev` then holds the result for the next window; without one,
    /// `steps` must be every step.
    fn splice(
        &self,
        fwd: &mut Fwd,
        fresh: Var,
        steps: &[usize],
        prev: Option<&mut Option<Tensor>>,
        shift: usize,
        t_len: usize,
    ) -> Var {
        let full = if steps.len() == t_len {
            fresh
        } else {
            let n = fwd.shape_of(fresh).dim(0);
            let cached = prev.as_ref().and_then(|p| p.as_ref());
            let cached = cached.expect("a reused step has a cached row");
            let cached = cached.reshape([n * t_len, self.hidden]);
            let base = n * steps.len();
            let idx: Vec<usize> = (0..n)
                .flat_map(|b| {
                    (0..t_len).map(move |t| match steps.binary_search(&t) {
                        Ok(pos) => b * steps.len() + pos,
                        Err(_) => base + b * t_len + t + shift,
                    })
                })
                .collect();
            let rows = fwd.reshape(fresh, [base, self.hidden]);
            let rows = fwd.index_select0_cat(rows, &cached, &idx);
            fwd.reshape(rows, [n, t_len, self.hidden])
        };
        // Replacing the previous window's rows frees them for the blocks
        // still to run.
        if let Some(prev) = prev {
            *prev = Some(fwd.value(full));
        }
        full
    }

    /// One block over `h`, which holds the steps `have`. Outputs the steps
    /// `steps.out`, or with a `cache` (a rolling pass: its block rows and
    /// the shift) every step, the rest taken from the cache.
    #[allow(clippy::too_many_arguments)]
    fn block_forward(
        &self,
        fwd: &mut Fwd,
        block: &StBlock,
        h: Var,
        have: &[usize],
        steps: &BlockSteps,
        mut cache: Option<(&mut BlockCache, usize)>,
        ctx: &BlockCtx,
    ) -> Var {
        let BlockCtx { n, t_len, a_s, a_dtw, composed_gcn } = *ctx;
        // GCN path, per adjacency: stack of gated layers, max over depth
        // (Eq. 9), then max over adjacencies (Eq. 11). The weights mix only
        // the feature axis, so all output steps go through at once. Each
        // path gathers its own input rows, so the gradients reaching `h`
        // add up in the order the full-length pass adds them.
        let gcn_path = |fwd: &mut Fwd, layers: &[GcnLayer], adj: &Arc<CsrLinMap>| -> Var {
            let mut z = self.gather_steps(fwd, h, have, &steps.gcn);
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
                // A rolling pass completes the GCN output and the block
                // output to every step from the cache, and keeps them for
                // the next window.
                let all: Vec<usize> = (0..t_len).collect();
                let (h_gcn, gcn_at) = match cache.as_mut() {
                    Some((c, shift)) => {
                        let full = Some(&mut c.gcn);
                        (self.splice(fwd, h_gcn, &steps.gcn, full, *shift, t_len), &all)
                    }
                    None => (h_gcn, &steps.gcn),
                };
                // The convs run channels-last, on (N, T, H) as it is, or at
                // the planned steps only.
                let y = c1.forward_steps(fwd, h, have, &steps.mid, t_len);
                let y = fwd.relu(y);
                let y = c2.forward_steps(fwd, y, &steps.mid, &steps.out, t_len);
                let h_tcn = fwd.relu(y);
                // Eq. 12: residual combination.
                let h_gcn = self.gather_steps(fwd, h_gcn, gcn_at, &steps.out);
                let out = fwd.add(h_gcn, h_tcn);
                match cache {
                    Some((c, shift)) => {
                        let kept = c.keep_out.then_some(&mut c.out);
                        self.splice(fwd, out, &steps.out, kept, shift, t_len)
                    }
                    None => out,
                }
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
        let steps = |mid: &[usize], out: &[usize]| BlockSteps {
            gcn: out.to_vec(),
            mid: mid.to_vec(),
            out: out.to_vec(),
        };
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
    fn reuse_plan_of_default_config() {
        // T = 12, dilations 1, 2 (block 0) and 4, 6 (block 1), shifted by 1.
        let model = StModel::new(&mut ParamStore::new(), &StsmConfig::default());
        let all: Vec<usize> = (0..12).collect();
        let steps = |gcn: &[usize], mid: &[usize], out: &[usize]| BlockSteps {
            gcn: gcn.to_vec(),
            mid: mid.to_vec(),
            out: out.to_vec(),
        };
        let plan = model.reuse_plan(Some(1));
        // Block 0: only step 11 is new; the last conv's taps reach the
        // padding from steps 0..=2 and step 11 through the first conv.
        assert_eq!(plan[0], steps(&[11], &[0, 1, 2, 9, 11], &[0, 1, 2, 11]));
        // Block 1's convs reach back 4 + 6 steps from every step.
        assert_eq!(plan[1], steps(&[0, 1, 2, 11], &all, &all));
        // A larger shift moves more steps; no shift reuses nothing.
        let out = [0, 1, 2, 9, 10, 11];
        assert_eq!(
            model.reuse_plan(Some(3))[0],
            steps(&[9, 10, 11], &[0, 1, 2, 7, 8, 9, 10, 11], &out)
        );
        assert!(model.reuse_plan(None).iter().all(|b| b == &steps(&all, &all, &all)));
        let state = model.rolling_state();
        assert!(state.reusable);
        // No shift reuses a step of block 1's output, so it is not kept.
        assert_eq!(state.blocks.iter().map(|b| b.keep_out).collect::<Vec<_>>(), [true, false]);
        // The transformer attends over every step: nothing to reuse.
        let cfg = StsmConfig { temporal: TemporalModule::Transformer, ..Default::default() };
        let trans = StModel::new(&mut ParamStore::new(), &cfg);
        assert!(trans.reuse_plan(Some(1)).iter().all(|b| b == &steps(&all, &all, &all)));
        assert!(!trans.rolling_state().reusable);
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
