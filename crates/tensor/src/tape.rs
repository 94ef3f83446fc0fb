//! Reverse-mode automatic differentiation on a per-forward-pass tape.
//!
//! A [`Tape`] is an arena of nodes built during one forward pass. Each op
//! computes its value once and, on a recording tape, records a backward
//! closure that, given the output gradient, returns gradient contributions
//! for its parents (cheap: tensor clones share storage). Call
//! [`Tape::backward`] on a scalar loss, then read gradients with
//! [`Tape::grad`]. Parameters live outside the tape in a
//! [`crate::params::ParamStore`] and are re-registered as leaves each pass,
//! so the tape can simply be dropped between iterations.
//!
//! The tape inside a [`crate::InferSession`] records no backward: its ops
//! run the same forward lines and skip building what only the backward
//! reads, so Infer-mode values equal Train-mode values by construction.

use crate::alloc;
use crate::kernels;
use crate::linmap::LinMap;
use crate::shape::Shape;
use crate::telemetry;
use crate::tensor::Tensor;
use std::cell::{Ref, RefCell};
use std::ops::Range;
use std::sync::Arc;

/// Handle to a node on a [`Tape`]. Only valid for the tape that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<(usize, Tensor)>>;

struct Node {
    data: Tensor,
    grad: Option<Tensor>,
    backward: Option<BackwardFn>,
}

/// Arena for one forward/backward pass.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// Set only for an Infer-mode session's tape: ops then box no backward
    /// and build none of its data.
    forward_only: bool,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// An empty tape that records no backward (Infer mode).
    pub(crate) fn forward_only() -> Self {
        Tape { forward_only: true, ..Tape::default() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every node from index `len` on.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.nodes.get_mut().truncate(len);
    }

    /// Replaces the value of node `v`.
    pub(crate) fn set_value(&mut self, v: Var, t: Tensor) {
        self.nodes.get_mut()[v.0].data = t;
    }

    /// Bytes of storage held by the values of nodes `range`.
    pub(crate) fn storage_bytes(&self, range: Range<usize>) -> usize {
        self.nodes.borrow()[range].iter().map(|n| n.data.storage_bytes()).sum()
    }

    fn push(&self, data: Tensor, backward: Option<BackwardFn>) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { data, grad: None, backward });
        Var(nodes.len() - 1)
    }

    /// Pushes an op's output. `backward` gets the output and builds the
    /// op's backward closure; it runs only when the tape records, so
    /// everything only the backward reads belongs inside it.
    fn record(&self, out: Tensor, backward: impl FnOnce(&Tensor) -> BackwardFn) -> Var {
        let backward = (!self.forward_only).then(|| backward(&out));
        self.push(out, backward)
    }

    /// Borrows a node's value, so an op reads its inputs without cloning.
    fn val(&self, v: Var) -> Ref<'_, Tensor> {
        Ref::map(self.nodes.borrow(), |nodes| &nodes[v.0].data)
    }

    /// Registers a tensor that does not require gradients.
    pub fn constant(&self, t: Tensor) -> Var {
        self.push(t, None)
    }

    /// Registers a differentiable leaf (e.g. a model parameter).
    ///
    /// Leaves have no backward function but accumulate gradients, readable
    /// afterwards via [`Tape::grad`].
    pub fn leaf(&self, t: Tensor) -> Var {
        // A leaf is a node without backward; gradient accumulates in `grad`.
        self.push(t, None)
    }

    /// The current value of a node (cheap clone).
    pub fn value(&self, v: Var) -> Tensor {
        self.val(v).clone()
    }

    /// The shape of a node.
    pub fn shape_of(&self, v: Var) -> Shape {
        self.val(v).shape().clone()
    }

    /// The accumulated gradient of a node after [`Tape::backward`], if any.
    pub fn grad(&self, v: Var) -> Option<Tensor> {
        self.nodes.borrow()[v.0].grad.clone()
    }

    // ---------------------------------------------------------------- binary

    /// Elementwise addition with broadcasting.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).zip_broadcast(&self.val(b), |x, y| x + y);
        self.record(out, |_| {
            let (sa, sb) = (self.shape_of(a), self.shape_of(b));
            Box::new(move |g| {
                vec![(a.0, Tensor::reduce_to(g, &sa)), (b.0, Tensor::reduce_to(g, &sb))]
            })
        })
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).zip_broadcast(&self.val(b), |x, y| x - y);
        self.record(out, |_| {
            let (sa, sb) = (self.shape_of(a), self.shape_of(b));
            Box::new(move |g| {
                vec![
                    (a.0, Tensor::reduce_to(g, &sa)),
                    (b.0, Tensor::reduce_to(&g.map(|x| -x), &sb)),
                ]
            })
        })
    }

    /// Elementwise (Hadamard) product with broadcasting.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).zip_broadcast(&self.val(b), |x, y| x * y);
        self.record(out, |_| {
            let (ta, tb) = (self.value(a), self.value(b));
            let (sa, sb) = (ta.shape().clone(), tb.shape().clone());
            Box::new(move |g| {
                vec![
                    (a.0, Tensor::reduce_to(&g.zip_broadcast(&tb, |gv, bv| gv * bv), &sa)),
                    (b.0, Tensor::reduce_to(&g.zip_broadcast(&ta, |gv, av| gv * av), &sb)),
                ]
            })
        })
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).zip_broadcast(&self.val(b), |x, y| x / y);
        self.record(out, |_| {
            let (ta, tb) = (self.value(a), self.value(b));
            let (sa, sb) = (ta.shape().clone(), tb.shape().clone());
            Box::new(move |g| {
                let ga = g.zip_broadcast(&tb, |gv, bv| gv / bv);
                let gb = g
                    .zip_broadcast(&ta, |gv, av| gv * av)
                    .zip_broadcast(&tb, |x, bv| -x / (bv * bv));
                vec![(a.0, Tensor::reduce_to(&ga, &sa)), (b.0, Tensor::reduce_to(&gb, &sb))]
            })
        })
    }

    /// Elementwise maximum; gradient flows to whichever input was larger
    /// (split evenly on exact ties, and on NaN, which compares neither way).
    pub fn max2(&self, a: Var, b: Var) -> Var {
        let out = {
            let (ta, tb) = (self.val(a), self.val(b));
            assert_eq!(ta.shape(), tb.shape(), "max2 requires equal shapes");
            ta.zip(&tb, f32::max)
        };
        self.record(out, |_| {
            let (ta, tb) = (self.value(a), self.value(b));
            Box::new(move |g| {
                // One select pass per input: `g` where it is the strict
                // maximum, 0 where the other is, `0.5·g` on a tie.
                let route = |x: &Tensor, y: &Tensor| {
                    let mut buf = alloc::buf_with_capacity(g.numel());
                    buf.extend(x.data().iter().zip(y.data()).zip(g.data()).map(
                        |((&xv, &yv), &gv)| {
                            if xv > yv {
                                gv
                            } else if yv > xv {
                                0.0
                            } else {
                                0.5 * gv
                            }
                        },
                    ));
                    Tensor::from_vec(g.shape().clone(), buf)
                };
                vec![(a.0, route(&ta, &tb)), (b.0, route(&tb, &ta))]
            })
        })
    }

    /// Matrix product of two 2-D nodes.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let out = kernels::matmul(&self.val(a), &self.val(b));
        self.record(out, |_| {
            let (ta, tb) = (self.value(a), self.value(b));
            Box::new(move |g| {
                // dL/dA = G Bᵀ ; dL/dB = Aᵀ G — transpose-view routes, no
                // materialized Bᵀ/Aᵀ (bitwise identical to the copy routes).
                let ga = kernels::matmul_nt(g, &tb);
                let gb = kernels::matmul_tn(&ta, g);
                vec![(a.0, ga), (b.0, gb)]
            })
        })
    }

    /// Batched matrix product of two 3-D nodes: (B,m,k)×(B,k,n).
    pub fn bmm(&self, a: Var, b: Var) -> Var {
        let out = kernels::bmm(&self.val(a), &self.val(b));
        self.record(out, |_| {
            let (ta, tb) = (self.value(a), self.value(b));
            Box::new(move |g| {
                let ga = kernels::bmm_nt(g, &tb);
                let gb = kernels::bmm_tn(&ta, g);
                vec![(a.0, ga), (b.0, gb)]
            })
        })
    }

    /// Batched `a · bᵀ` of two 3-D nodes: (B,m,k)×(B,n,k) → (B,m,n) —
    /// attention's `Q·Kᵀ` without materializing the transposed keys.
    /// Bit-identical to `bmm(a, permute(b, &[0, 2, 1]))` in forward and
    /// backward.
    pub fn bmm_nt(&self, a: Var, b: Var) -> Var {
        let out = kernels::bmm_nt(&self.val(a), &self.val(b));
        self.record(out, |_| {
            let (ta, tb) = (self.value(a), self.value(b));
            Box::new(move |g| {
                // out = A Bᵀ: dL/dA = G B ; dL/dB = Gᵀ A.
                let ga = kernels::bmm(g, &tb);
                let gb = kernels::bmm_tn(g, &ta);
                vec![(a.0, ga), (b.0, gb)]
            })
        })
    }

    /// Applies a constant linear map (e.g. a sparse adjacency matrix) to the
    /// leading axis of `x`. Gradient uses the map's transpose.
    pub fn linmap(&self, map: Arc<dyn LinMap>, x: Var) -> Var {
        let out = map.apply(&self.val(x));
        self.record(out, |_| Box::new(move |g| vec![(x.0, map.apply_transpose(g))]))
    }

    /// Fused affine `x·W + b` for 2-D `x` with a broadcast bias row;
    /// bit-identical to `add(matmul(x, w), b)` in forward and backward (see
    /// [`kernels::addmm`]). Used by `nn::Linear`: one tape node instead of
    /// two, no broadcast intermediate.
    pub fn addmm(&self, x: Var, w: Var, b: Var) -> Var {
        let out = kernels::addmm(&self.val(x), &self.val(w), &self.val(b));
        self.record(out, |_| {
            let (tx, tw) = (self.value(x), self.value(w));
            Box::new(move |g| {
                let (gx, gw, gb) = kernels::addmm_backward(&tx, &tw, g);
                vec![(x.0, gx), (w.0, gw), (b.0, gb)]
            })
        })
    }

    /// Fused gated GCN layer (Eq. 7) as one node: `agg = map(z)` (one spmm),
    /// then `(agg·W_v + b_v) ⊙ σ(agg·W_g + b_g)` through
    /// `kernels::gated_gcn`, with `value = (W_v, b_v)` and
    /// `gate = (W_g, b_g)`. Bit-identical to `linmap`, `addmm` ×2, `sigmoid`
    /// and `mul` in forward and backward. A recording node keeps `agg`, `v`
    /// and `s` for its hand-written backward
    /// (`kernels::gated_gcn_backward`) — not the gate pre-activation, and
    /// no gradient slots for the inner values; a forward-only tape has the
    /// kernel save nothing.
    pub fn gated_gcn(
        &self,
        map: Arc<dyn LinMap>,
        z: Var,
        value: (Var, Var),
        gate: (Var, Var),
    ) -> Var {
        let agg = map.apply(&self.val(z));
        let (out, saved) = kernels::gated_gcn(
            &agg,
            &self.val(value.0),
            &self.val(value.1),
            &self.val(gate.0),
            &self.val(gate.1),
            !self.forward_only,
        );
        self.record(out, |_| {
            let (v, s) = saved.expect("gated_gcn saves its activations when asked");
            let (wv, wg) = (self.value(value.0), self.value(gate.0));
            Box::new(move |g| {
                let (dagg, dwv, dbv, dwg, dbg) =
                    kernels::gated_gcn_backward(&agg, &wv, &wg, &v, &s, g);
                vec![
                    (z.0, map.apply_transpose(&dagg)),
                    (value.0 .0, dwv),
                    (value.1 .0, dbv),
                    (gate.0 .0, dwg),
                    (gate.1 .0, dbg),
                ]
            })
        })
    }

    /// Fused GRU reset gate `rh = sigmoid(ar) ⊙ h`; bit-identical to
    /// `mul(sigmoid(ar), h)` (see `kernels::gru_rh`). Used by
    /// `nn::GruCell`.
    pub fn gru_rh(&self, ar: Var, h: Var) -> Var {
        let (rh, r) = kernels::gru_rh(&self.val(ar), &self.val(h));
        self.record(rh, |_| {
            let th = self.value(h);
            Box::new(move |g| {
                let (gar, gh) = kernels::gru_rh_backward(&r, &th, g);
                vec![(ar.0, gar), (h.0, gh)]
            })
        })
    }

    /// Fused GRU output gate
    /// `h' = (1 - sigmoid(az)) ⊙ tanh(s) + sigmoid(az) ⊙ h`; bit-identical
    /// to the composed five-node chain (see `kernels::gru_out`). Used by
    /// `nn::GruCell`.
    pub fn gru_out(&self, az: Var, s: Var, h: Var) -> Var {
        let (out, z, n) = kernels::gru_out(&self.val(az), &self.val(s), &self.val(h));
        self.record(out, |_| {
            let th = self.value(h);
            Box::new(move |g| {
                let (gaz, gs, gh) = kernels::gru_out_backward(&z, &n, &th, g);
                vec![(az.0, gaz), (s.0, gs), (h.0, gh)]
            })
        })
    }

    /// Dilated causal 1-D convolution over channels-last (N, T, C_in)
    /// input; see [`kernels::conv1d_ntc`]. One node that saves only the
    /// input, weight and bias: the backward rebuilds the tap unfold.
    pub fn conv1d_ntc(&self, input: Var, weight: Var, bias: Option<Var>, dilation: usize) -> Var {
        let out = {
            let tb = bias.map(|b| self.val(b));
            kernels::conv1d_ntc(&self.val(input), &self.val(weight), tb.as_deref(), dilation)
        };
        self.record(out, |_| {
            let (ti, tw) = (self.value(input), self.value(weight));
            Box::new(move |g| {
                let (gi, gw, gb) = kernels::conv1d_ntc_backward(&ti, &tw, g, dilation);
                let mut grads = vec![(input.0, gi), (weight.0, gw)];
                if let Some(b) = bias {
                    grads.push((b.0, gb));
                }
                grads
            })
        })
    }

    /// Dilated causal 1-D convolution over channels-first (N, C_in, T)
    /// input; see [`kernels::conv1d_dilated`].
    pub fn conv1d(&self, input: Var, weight: Var, bias: Option<Var>, dilation: usize) -> Var {
        let out = {
            let tb = bias.map(|b| self.val(b));
            kernels::conv1d_dilated(&self.val(input), &self.val(weight), tb.as_deref(), dilation)
        };
        self.record(out, |_| {
            let (ti, tw) = (self.value(input), self.value(weight));
            Box::new(move |g| {
                let (gi, gw, gb) = kernels::conv1d_dilated_backward(&ti, &tw, g, dilation);
                let mut grads = vec![(input.0, gi), (weight.0, gw)];
                if let Some(b) = bias {
                    grads.push((b.0, gb));
                }
                grads
            })
        })
    }

    // ----------------------------------------------------------- elementwise

    fn unary(&self, x: Var, f: impl Fn(f32) -> f32, df: impl Fn(f32, f32) -> f32 + 'static) -> Var {
        let out = self.val(x).map(f);
        self.unary_out(x, out, df)
    }

    /// Pushes `out = f(x)`, already computed, with the elementwise
    /// derivative `df(x, out)`.
    fn unary_out(&self, x: Var, out: Tensor, df: impl Fn(f32, f32) -> f32 + 'static) -> Var {
        self.record(out, |y| {
            let (tx, saved_out) = (self.value(x), y.clone());
            Box::new(move |g| {
                let mut buf = alloc::buf_with_capacity(tx.numel());
                buf.extend(
                    tx.data()
                        .iter()
                        .zip(saved_out.data().iter())
                        .zip(g.data().iter())
                        .map(|((&xi, &yi), &gi)| gi * df(xi, yi)),
                );
                vec![(x.0, Tensor::from_vec(tx.shape().clone(), buf))]
            })
        })
    }

    /// Rectified linear unit.
    pub fn relu(&self, x: Var) -> Var {
        self.unary(x, |v| v.max(0.0), |v, _| if v > 0.0 { 1.0 } else { 0.0 })
    }

    /// Logistic sigmoid (the shared polynomial [`crate::sigmoid`]).
    pub fn sigmoid(&self, x: Var) -> Var {
        let out = kernels::sigmoid(&self.val(x));
        self.unary_out(x, out, |_, y| y * (1.0 - y))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, x: Var) -> Var {
        self.unary(x, f32::tanh, |_, y| 1.0 - y * y)
    }

    /// Elementwise exponential.
    pub fn exp(&self, x: Var) -> Var {
        self.unary(x, f32::exp, |_, y| y)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self, x: Var) -> Var {
        self.unary(x, f32::ln, |v, _| 1.0 / v)
    }

    /// Elementwise square root.
    pub fn sqrt(&self, x: Var) -> Var {
        self.unary(x, f32::sqrt, |_, y| 0.5 / y)
    }

    /// Elementwise square.
    pub fn square(&self, x: Var) -> Var {
        self.unary(x, |v| v * v, |v, _| 2.0 * v)
    }

    /// Elementwise absolute value (subgradient 0 at zero).
    pub fn abs(&self, x: Var) -> Var {
        self.unary(x, f32::abs, |v, _| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Adds a scalar constant.
    pub fn add_scalar(&self, x: Var, c: f32) -> Var {
        self.unary(x, move |v| v + c, |_, _| 1.0)
    }

    /// Multiplies by a scalar constant.
    pub fn mul_scalar(&self, x: Var, c: f32) -> Var {
        self.unary(x, move |v| v * c, move |_, _| c)
    }

    /// Negation.
    pub fn neg(&self, x: Var) -> Var {
        self.mul_scalar(x, -1.0)
    }

    /// Elementwise maximum against a scalar bound. Gradient is 1 above the
    /// bound, 0 below, 0.5 on an exact tie — the same subgradient
    /// [`Tape::max2`] routes to `x` against a constant tensor, without
    /// materializing that tensor.
    pub fn max_scalar(&self, x: Var, c: f32) -> Var {
        self.unary(
            x,
            move |v| v.max(c),
            move |v, _| {
                if v > c {
                    1.0
                } else if v < c {
                    0.0
                } else {
                    0.5
                }
            },
        )
    }

    /// Elementwise minimum against a scalar bound; mirror of
    /// [`Tape::max_scalar`].
    pub fn min_scalar(&self, x: Var, c: f32) -> Var {
        self.unary(
            x,
            move |v| v.min(c),
            move |v, _| {
                if v < c {
                    1.0
                } else if v > c {
                    0.0
                } else {
                    0.5
                }
            },
        )
    }

    /// Leaky ReLU with slope `alpha` on the negative side.
    pub fn leaky_relu(&self, x: Var, alpha: f32) -> Var {
        self.unary(
            x,
            move |v| if v > 0.0 { v } else { alpha * v },
            move |v, _| if v > 0.0 { 1.0 } else { alpha },
        )
    }

    /// Inverted dropout: zeroes elements with probability `p` and rescales
    /// the survivors by `1/(1-p)`. `mask` must be a pre-drawn 0/1 tensor of
    /// the same shape (kept outside the tape so callers control randomness).
    pub fn dropout(&self, x: Var, mask: &Tensor, p: f32) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        let scale = 1.0 / (1.0 - p);
        let scaled = mask.map(|m| m * scale);
        let m = self.constant(scaled);
        self.mul(x, m)
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements (scalar output).
    pub fn sum_all(&self, x: Var) -> Var {
        let out = Tensor::scalar(self.val(x).sum());
        self.record(out, |_| {
            let shape = self.shape_of(x);
            Box::new(move |g| {
                let gv = g.item();
                vec![(x.0, Tensor::full(shape.clone(), gv))]
            })
        })
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&self, x: Var) -> Var {
        let n = self.val(x).numel() as f32;
        let s = self.sum_all(x);
        self.mul_scalar(s, 1.0 / n)
    }

    /// Sum along `axis` with `keepdim`.
    pub fn sum_axis(&self, x: Var, axis: usize, keepdim: bool) -> Var {
        let out = self.val(x).sum_axis(axis, keepdim);
        self.record(out, |_| {
            let in_shape = self.shape_of(x);
            Box::new(move |g| {
                let gk = if keepdim { g.clone() } else { g.reshape(in_shape.keep_axis(axis)) };
                vec![(x.0, gk.broadcast_to(&in_shape))]
            })
        })
    }

    /// Mean along `axis` with `keepdim`.
    pub fn mean_axis(&self, x: Var, axis: usize, keepdim: bool) -> Var {
        let d = self.val(x).dim(axis) as f32;
        let s = self.sum_axis(x, axis, keepdim);
        self.mul_scalar(s, 1.0 / d)
    }

    // --------------------------------------------------------------- shaping

    /// Reshape (element count preserved).
    pub fn reshape(&self, x: Var, shape: impl Into<Shape>) -> Var {
        let out = self.val(x).reshape(shape.into());
        self.record(out, |_| {
            let in_shape = self.shape_of(x);
            Box::new(move |g| vec![(x.0, g.reshape(in_shape.clone()))])
        })
    }

    /// Dimension permutation.
    pub fn permute(&self, x: Var, perm: &[usize]) -> Var {
        let out = self.val(x).permute(perm);
        self.record(out, |_| {
            // Inverse permutation for the gradient.
            let mut inv = vec![0usize; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                inv[p] = i;
            }
            Box::new(move |g| vec![(x.0, g.permute(&inv))])
        })
    }

    /// Slice `[start, end)` along `axis`; gradient scatters back with zeros
    /// elsewhere.
    pub fn slice(&self, x: Var, axis: usize, start: usize, end: usize) -> Var {
        let out = self.val(x).slice(axis, start, end);
        self.record(out, |_| {
            let in_shape = self.shape_of(x);
            Box::new(move |g| {
                let mut gx = Tensor::zeros(in_shape.clone());
                let outer: usize = in_shape.dims()[..axis].iter().product();
                let inner: usize = in_shape.dims()[axis + 1..].iter().product();
                let d = in_shape.dim(axis);
                let len = end - start;
                {
                    let gd = gx.data_mut();
                    for o in 0..outer {
                        let src = &g.data()[o * len * inner..(o + 1) * len * inner];
                        let dst = o * d * inner + start * inner;
                        gd[dst..dst + len * inner].copy_from_slice(src);
                    }
                }
                vec![(x.0, gx)]
            })
        })
    }

    /// Concatenation along `axis`.
    pub fn concat(&self, xs: &[Var], axis: usize) -> Var {
        let out = {
            let nodes = self.nodes.borrow();
            let ts: Vec<&Tensor> = xs.iter().map(|v| &nodes[v.0].data).collect();
            Tensor::concat(&ts, axis)
        };
        self.record(out, |_| {
            let ids: Vec<usize> = xs.iter().map(|v| v.0).collect();
            let lens: Vec<usize> = xs.iter().map(|&v| self.val(v).dim(axis)).collect();
            Box::new(move |g| {
                let mut grads = Vec::with_capacity(ids.len());
                let mut start = 0usize;
                for (i, &id) in ids.iter().enumerate() {
                    let end = start + lens[i];
                    grads.push((id, g.slice(axis, start, end)));
                    start = end;
                }
                grads
            })
        })
    }

    /// Selects rows of `x` along axis 0 (duplicates allowed); gradient
    /// scatter-adds back.
    pub fn index_select0(&self, x: Var, indices: &[usize]) -> Var {
        let out = self.val(x).index_select0(indices);
        self.select_rows_backward(x, out, indices)
    }

    /// [`Tape::index_select0`] over `x` with the constant rows of `tail`
    /// appended ([`Tensor::index_select0_cat`]): one output buffer, where a
    /// concatenation followed by a gather would build two. `tail` stays off
    /// the tape, so a caller may keep it (a cache of rows computed by an
    /// earlier pass) or drop it once the op has run. Gradient scatter-adds
    /// back to the rows of `x`.
    pub fn index_select0_cat(&self, x: Var, tail: &Tensor, indices: &[usize]) -> Var {
        let out = self.val(x).index_select0_cat(tail, indices);
        self.select_rows_backward(x, out, indices)
    }

    /// Records a row gather's output: its backward scatter-adds each output
    /// row into the row of `x` it was read from, skipping rows read from
    /// past the end of `x`.
    fn select_rows_backward(&self, x: Var, out: Tensor, indices: &[usize]) -> Var {
        self.record(out, |_| {
            let in_shape = self.shape_of(x);
            let idx = indices.to_vec();
            Box::new(move |g| {
                let mut gx = Tensor::zeros(in_shape.clone());
                let inner: usize = in_shape.dims()[1..].iter().product();
                let rows = in_shape.dim(0);
                {
                    let gd = gx.data_mut();
                    for (row, &i) in idx.iter().enumerate().filter(|&(_, &i)| i < rows) {
                        let src = &g.data()[row * inner..(row + 1) * inner];
                        for (dst, &s) in gd[i * inner..(i + 1) * inner].iter_mut().zip(src) {
                            *dst += s;
                        }
                    }
                }
                vec![(x.0, gx)]
            })
        })
    }

    /// Broadcasts `x` to a larger shape; gradient reduces back.
    pub fn broadcast_to(&self, x: Var, shape: impl Into<Shape>) -> Var {
        let out = self.val(x).broadcast_to(&shape.into());
        self.record(out, |_| {
            let in_shape = self.shape_of(x);
            Box::new(move |g| vec![(x.0, Tensor::reduce_to(g, &in_shape))])
        })
    }

    // ------------------------------------------------------- softmax & co.

    /// Softmax over the last dimension.
    pub fn softmax_lastdim(&self, x: Var) -> Var {
        let out = kernels::softmax_lastdim(&self.val(x));
        self.record(out, |y| {
            let y = y.clone();
            Box::new(move |g| {
                // dx = y * (g - sum(g*y, lastdim))
                let d = y.dim(y.rank() - 1);
                let rows = y.numel() / d;
                let mut gx = alloc::buf_zeroed(y.numel());
                for r in 0..rows {
                    let yrow = &y.data()[r * d..(r + 1) * d];
                    let grow = &g.data()[r * d..(r + 1) * d];
                    let dot: f32 = yrow.iter().zip(grow).map(|(&a, &b)| a * b).sum();
                    for i in 0..d {
                        gx[r * d + i] = yrow[i] * (grow[i] - dot);
                    }
                }
                vec![(x.0, Tensor::from_vec(y.shape().clone(), gx))]
            })
        })
    }

    /// Log-softmax over the last dimension.
    pub fn log_softmax_lastdim(&self, x: Var) -> Var {
        let out = kernels::log_softmax_lastdim(&self.val(x));
        self.record(out, |y| {
            let y = y.clone();
            Box::new(move |g| {
                // dx = g - softmax(x) * sum(g, lastdim)
                let d = y.dim(y.rank() - 1);
                let rows = y.numel() / d;
                let mut gx = alloc::buf_zeroed(y.numel());
                for r in 0..rows {
                    let yrow = &y.data()[r * d..(r + 1) * d];
                    let grow = &g.data()[r * d..(r + 1) * d];
                    let gsum: f32 = grow.iter().sum();
                    for i in 0..d {
                        gx[r * d + i] = grow[i] - yrow[i].exp() * gsum;
                    }
                }
                vec![(x.0, Tensor::from_vec(y.shape().clone(), gx))]
            })
        })
    }

    // ---------------------------------------------------------------- losses

    /// Mean-squared error between a node and a constant target.
    pub fn mse_loss(&self, pred: Var, target: &Tensor) -> Var {
        let t = self.constant(target.clone());
        let d = self.sub(pred, t);
        let sq = self.square(d);
        self.mean_all(sq)
    }

    /// Mean absolute error between a node and a constant target.
    pub fn mae_loss(&self, pred: Var, target: &Tensor) -> Var {
        let t = self.constant(target.clone());
        let d = self.sub(pred, t);
        let a = self.abs(d);
        self.mean_all(a)
    }

    // -------------------------------------------------------------- backward

    /// Runs reverse-mode differentiation from scalar node `loss`, seeding its
    /// gradient with 1. Panics if `loss` is not a scalar, or if the tape is
    /// an Infer-mode session's, which records no backward.
    pub fn backward(&self, loss: Var) {
        assert!(
            !self.forward_only,
            "backward() called on an Infer mode tape, which records no backward"
        );
        let _t = telemetry::span("tape.backward");
        {
            let mut nodes = self.nodes.borrow_mut();
            let n = &mut nodes[loss.0];
            assert_eq!(
                n.data.numel(),
                1,
                "backward() requires a scalar loss, got {}",
                n.data.shape()
            );
            n.grad = Some(Tensor::scalar(1.0));
        }
        let len = self.len();
        for id in (0..len).rev() {
            // Take the backward fn and grad out without holding the borrow
            // across the closure call (closures only read captured tensors).
            let (g, f) = {
                let mut nodes = self.nodes.borrow_mut();
                let node = &mut nodes[id];
                match (&node.grad, node.backward.take()) {
                    (Some(g), Some(f)) => (g.clone(), f),
                    (_, b) => {
                        node.backward = b;
                        continue;
                    }
                }
            };
            let contributions = f(&g);
            let mut nodes = self.nodes.borrow_mut();
            for (pid, gc) in contributions {
                debug_assert!(pid < id, "backward edge must point to an earlier node");
                let p = &mut nodes[pid];
                debug_assert_eq!(
                    p.data.shape(),
                    gc.shape(),
                    "gradient shape mismatch for node {pid}"
                );
                match &mut p.grad {
                    Some(acc) => {
                        // In-place: the accumulator was adopted from the
                        // first contribution and is uniquely owned, so the
                        // copy-on-write `data_mut` never actually copies.
                        let accd = acc.data_mut();
                        for (a, &b) in accd.iter_mut().zip(gc.data()) {
                            *a += b;
                        }
                    }
                    None => p.grad = Some(gc),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::Fwd;
    use crate::{DenseLinMap, InferSession, ParamBinder, ParamStore};

    fn grads_close(analytic: f32, numeric: f32) -> bool {
        let denom = analytic.abs().max(numeric.abs()).max(1.0);
        (analytic - numeric).abs() / denom < 1e-2
    }

    /// Numerical gradient check of `f` at `x0` against the tape's gradient.
    fn gradcheck(f: impl Fn(&Tape, Var) -> Var, x0: Tensor) {
        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = f(&tape, x);
        tape.backward(loss);
        let g = tape.grad(x).expect("no gradient");
        let eps = 1e-3f32;
        for i in 0..x0.numel() {
            let eval = |delta: f32| {
                let mut xp = x0.clone();
                xp.data_mut()[i] += delta;
                let t = Tape::new();
                let v = t.leaf(xp);
                let l = f(&t, v);
                t.value(l).item()
            };
            let num = (eval(eps) - eval(-eps)) / (2.0 * eps);
            assert!(
                grads_close(g.data()[i], num),
                "grad[{i}]: analytic {} vs numeric {num}",
                g.data()[i]
            );
        }
    }

    fn test_input() -> Tensor {
        Tensor::from_vec([2, 3], vec![0.5, -1.2, 2.0, 0.1, -0.4, 1.5])
    }

    #[test]
    fn grad_of_unary_chain() {
        gradcheck(
            |t, x| {
                let y = t.sigmoid(x);
                let z = t.mul_scalar(y, 3.0);
                let w = t.tanh(z);
                t.sum_all(w)
            },
            test_input(),
        );
    }

    #[test]
    fn grad_of_exp_ln_sqrt() {
        gradcheck(
            |t, x| {
                let p = t.add_scalar(x, 3.0); // keep positive for ln/sqrt
                let a = t.ln(p);
                let b = t.sqrt(p);
                let c = t.add(a, b);
                let d = t.exp(c);
                t.mean_all(d)
            },
            test_input(),
        );
    }

    #[test]
    fn grad_of_matmul() {
        let w = Tensor::from_vec([3, 2], vec![0.3, -0.1, 0.2, 0.7, -0.5, 0.4]);
        gradcheck(
            |t, x| {
                let wv = t.constant(w.clone());
                let y = t.matmul(x, wv);
                let s = t.square(y);
                t.sum_all(s)
            },
            test_input(),
        );
        // And gradient w.r.t. the weight.
        let x0 = test_input();
        gradcheck(
            |t, w| {
                let xv = t.constant(x0.clone());
                let y = t.matmul(xv, w);
                t.sum_all(y)
            },
            w,
        );
    }

    #[test]
    fn grad_of_broadcast_add_mul() {
        gradcheck(
            |t, x| {
                let b = t.constant(Tensor::from_vec([3], vec![1.0, -2.0, 0.5]));
                let y = t.add(x, b);
                let z = t.mul(y, y);
                t.sum_all(z)
            },
            test_input(),
        );
        // Gradient w.r.t. the broadcast (smaller) operand.
        gradcheck(
            |t, b| {
                let x = t.constant(test_input());
                let y = t.mul(x, b);
                t.sum_all(y)
            },
            Tensor::from_vec([3], vec![1.0, -2.0, 0.5]),
        );
    }

    #[test]
    fn grad_of_div() {
        gradcheck(
            |t, x| {
                let denom = t.constant(Tensor::from_vec([3], vec![2.0, 4.0, 0.5]));
                let y = t.div(x, denom);
                t.sum_all(y)
            },
            test_input(),
        );
        gradcheck(
            |t, d| {
                let x = t.constant(test_input());
                let y = t.div(x, d);
                t.sum_all(y)
            },
            Tensor::from_vec([3], vec![2.0, 4.0, 0.5]),
        );
    }

    #[test]
    fn grad_of_reductions() {
        gradcheck(
            |t, x| {
                let s = t.sum_axis(x, 1, false);
                let m = t.square(s);
                t.mean_all(m)
            },
            test_input(),
        );
        gradcheck(
            |t, x| {
                let s = t.mean_axis(x, 0, true);
                let m = t.square(s);
                t.sum_all(m)
            },
            test_input(),
        );
    }

    #[test]
    fn grad_of_softmax() {
        gradcheck(
            |t, x| {
                let s = t.softmax_lastdim(x);
                let w = t.constant(Tensor::from_vec([2, 3], vec![1., 2., 3., -1., 0., 1.]));
                let y = t.mul(s, w);
                t.sum_all(y)
            },
            test_input(),
        );
        gradcheck(
            |t, x| {
                let s = t.log_softmax_lastdim(x);
                let w = t.constant(Tensor::from_vec([2, 3], vec![0., 1., 0., 1., 0., 0.]));
                let y = t.mul(s, w);
                t.sum_all(y)
            },
            test_input(),
        );
    }

    #[test]
    fn grad_of_shaping_ops() {
        gradcheck(
            |t, x| {
                let r = t.reshape(x, [3, 2]);
                let p = t.permute(r, &[1, 0]);
                let s = t.slice(p, 1, 1, 3);
                let sq = t.square(s);
                t.sum_all(sq)
            },
            test_input(),
        );
    }

    #[test]
    fn grad_of_concat_and_select() {
        gradcheck(
            |t, x| {
                let a = t.slice(x, 0, 0, 1);
                let b = t.slice(x, 0, 1, 2);
                let c = t.concat(&[a, b, a], 0);
                let sel = t.index_select0(c, &[0, 0, 2]);
                let sq = t.square(sel);
                t.sum_all(sq)
            },
            test_input(),
        );
    }

    #[test]
    fn grad_of_max2_routes_to_larger() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec([2], vec![1.0, 5.0]));
        let b = tape.leaf(Tensor::from_vec([2], vec![3.0, 2.0]));
        let m = tape.max2(a, b);
        let loss = tape.sum_all(m);
        tape.backward(loss);
        assert_eq!(tape.grad(a).unwrap().data(), &[0.0, 1.0]);
        assert_eq!(tape.grad(b).unwrap().data(), &[1.0, 0.0]);
        assert_eq!(tape.value(m).data(), &[3.0, 5.0]);
    }

    #[test]
    fn grad_accumulates_on_reuse() {
        // y = x + x should give gradient 2.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0));
        let y = tape.add(x, x);
        tape.backward(y);
        assert_eq!(tape.grad(x).unwrap().item(), 2.0);
    }

    #[test]
    fn mse_and_mae_losses() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec([2], vec![1.0, 3.0]));
        let target = Tensor::from_vec([2], vec![0.0, 1.0]);
        let mse = tape.mse_loss(x, &target);
        assert!((tape.value(mse).item() - 2.5).abs() < 1e-6); // (1 + 4)/2
        let tape2 = Tape::new();
        let x2 = tape2.leaf(Tensor::from_vec([2], vec![1.0, 3.0]));
        let mae = tape2.mae_loss(x2, &target);
        assert!((tape2.value(mae).item() - 1.5).abs() < 1e-6); // (1 + 2)/2
        tape.backward(mse);
        let g = tape.grad(x).unwrap();
        assert!((g.data()[0] - 1.0).abs() < 1e-6); // 2*(1-0)/2
        assert!((g.data()[1] - 2.0).abs() < 1e-6); // 2*(3-1)/2
    }

    #[test]
    fn grad_of_conv1d() {
        let w0 = Tensor::from_vec([2, 1, 2], vec![0.5, -0.3, 0.2, 0.8]);
        gradcheck(
            |t, x| {
                let xr = t.reshape(x, [1, 1, 6]);
                let w = t.constant(w0.clone());
                let y = t.conv1d(xr, w, None, 2);
                let s = t.square(y);
                t.sum_all(s)
            },
            Tensor::from_vec([6], vec![0.5, -1.2, 2.0, 0.1, -0.4, 1.5]),
        );
    }

    #[test]
    #[should_panic(expected = "requires a scalar loss")]
    fn backward_rejects_non_scalar() {
        let tape = Tape::new();
        let x = tape.leaf(test_input());
        tape.backward(x);
    }

    fn backward_count(tape: &Tape) -> usize {
        tape.nodes.borrow().iter().filter(|n| n.backward.is_some()).count()
    }

    /// Runs every op `Fwd` exposes on its tape.
    fn run_every_op(fwd: &mut Fwd) {
        let x = vec![0.5, -1.2, 2.0, 0.1, -0.4, 1.5, 0.3, 0.9, -0.7, 1.1, -0.2, 0.6];
        let x = fwd.constant(Tensor::from_vec([4, 3], x));
        let b = fwd.constant(Tensor::from_vec([3], vec![0.1, -0.2, 0.3]));
        let [y, wv, wg] = [[4, 3], [3, 3], [3, 3]].map(|d| fwd.constant(Tensor::full(d, 0.3)));
        let cw = fwd.constant(Tensor::full([3, 3, 2], 0.1));
        let map: Arc<dyn LinMap> = Arc::new(DenseLinMap::new(Tensor::full([4, 4], 0.25)));
        let pos = fwd.add_scalar(x, 3.0);
        let x3 = fwd.reshape(x, [2, 2, 3]);
        let xt = fwd.permute(x3, &[0, 2, 1]);
        for v in [
            fwd.add(x, b),
            fwd.sub(x, y),
            fwd.mul(x, y),
            fwd.div(x, pos),
            fwd.max2(x, y),
            fwd.matmul(x, wv),
            fwd.bmm(x3, xt),
            fwd.bmm_nt(x3, x3),
            fwd.linmap(map.clone(), x),
            fwd.addmm(x, wv, b),
            fwd.gated_gcn(map, x, (wv, b), (wg, b)),
            fwd.gru_rh(x, y),
            fwd.gru_out(x, y, pos),
            fwd.conv1d_ntc(x3, cw, Some(b), 2),
            fwd.conv1d(xt, cw, None, 1),
            fwd.relu(x),
            fwd.sigmoid(x),
            fwd.tanh(x),
            fwd.exp(x),
            fwd.ln(pos),
            fwd.sqrt(pos),
            fwd.square(x),
            fwd.abs(x),
            fwd.mul_scalar(x, 0.5),
            fwd.neg(x),
            fwd.leaky_relu(x, 0.1),
            fwd.max_scalar(x, 0.0),
            fwd.min_scalar(x, 0.0),
            fwd.sum_all(x),
            fwd.mean_all(x),
            fwd.sum_axis(x, 1, false),
            fwd.mean_axis(x, 0, true),
            fwd.slice(x, 0, 1, 3),
            fwd.concat(&[x, y], 0),
            fwd.index_select0(x, &[0, 0, 2]),
            fwd.index_select0_cat(x, &Tensor::ones([1, 3]), &[4, 0, 4]),
            fwd.broadcast_to(b, [4, 3]),
            fwd.softmax_lastdim(x),
            fwd.log_softmax_lastdim(x),
            fwd.dropout(x, &Tensor::ones([4, 3]), 0.5),
            fwd.mse_loss(x, &Tensor::zeros([4, 3])),
            fwd.mae_loss(x, &Tensor::zeros([4, 3])),
        ] {
            assert!(fwd.value(v).data().iter().all(|e| e.is_finite()));
        }
    }

    #[test]
    fn infer_tape_records_no_backward() {
        let store = ParamStore::new();
        // A recording tape boxes a backward for the ops, so the check bites.
        let tape = Tape::new();
        run_every_op(&mut Fwd::new(&store, &mut ParamBinder::new(&tape)));
        assert!(backward_count(&tape) > 0);
        let mut session = InferSession::new(&store);
        run_every_op(&mut Fwd::infer(&store, &mut session));
        assert!(!session.tape().is_empty());
        assert_eq!(backward_count(session.tape()), 0);
    }

    #[test]
    fn infer_gated_gcn_saves_no_activations() {
        // (m, n) = (4, 40): a saved `v` and `s` would be the only buffers of
        // their size class, and a fresh session's cache starts empty, so a
        // saved pair would land there when the op drops it.
        let mut store = ParamStore::new();
        let z = store.register("z", Tensor::full([4, 3], 0.5));
        let wv = store.register("wv", Tensor::full([3, 40], 0.1));
        let wg = store.register("wg", Tensor::full([3, 40], -0.1));
        let b = store.register("b", Tensor::zeros([40]));
        let map: Arc<dyn LinMap> = Arc::new(DenseLinMap::new(Tensor::full([4, 4], 0.25)));
        let mut session = InferSession::new(&store);
        let mut fwd = Fwd::infer(&store, &mut session);
        let [z, wv, wg, b] = [z, wv, wg, b].map(|id| fwd.p(id));
        let out = fwd.gated_gcn(map, z, (wv, b), (wg, b));
        assert_eq!(fwd.shape_of(out).dims(), &[4, 40]);
        assert_eq!(alloc::session_cached_in_class_of(4 * 40), 0);
    }

    #[test]
    #[should_panic(expected = "Infer mode")]
    fn backward_panics_on_an_infer_tape() {
        let store = ParamStore::new();
        let mut session = InferSession::new(&store);
        let fwd = Fwd::infer(&store, &mut session);
        let x = fwd.constant(Tensor::ones([2]));
        let loss = fwd.sum_all(x);
        fwd.backward(loss);
    }

    #[test]
    fn dropout_zeroes_and_rescales() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]));
        let mask = Tensor::from_vec([4], vec![1.0, 0.0, 1.0, 0.0]);
        let y = tape.dropout(x, &mask, 0.5);
        assert_eq!(tape.value(y).data(), &[2.0, 0.0, 6.0, 0.0]);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(x).unwrap().data(), &[2.0, 0.0, 2.0, 0.0]);
    }
}
