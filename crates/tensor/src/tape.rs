//! Reverse-mode automatic differentiation on a per-forward-pass tape.
//!
//! A [`Tape`] is an arena of nodes built during one forward pass. Each op
//! records a backward closure that, given the output gradient, returns
//! gradient contributions for its parents (cheap: tensor clones share
//! storage). Call [`Tape::backward`] on a scalar loss, then read gradients
//! with [`Tape::grad`]. Parameters live outside the tape in a
//! [`crate::params::ParamStore`] and are re-registered as leaves each pass,
//! so the tape can simply be dropped between iterations.

use crate::alloc;
use crate::kernels;
use crate::linmap::LinMap;
use crate::shape::Shape;
use crate::telemetry;
use crate::tensor::Tensor;
use std::cell::RefCell;
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
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, data: Tensor, backward: Option<BackwardFn>) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { data, grad: None, backward });
        Var(nodes.len() - 1)
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
        self.nodes.borrow()[v.0].data.clone()
    }

    /// The shape of a node.
    pub fn shape_of(&self, v: Var) -> Shape {
        self.nodes.borrow()[v.0].data.shape().clone()
    }

    /// The accumulated gradient of a node after [`Tape::backward`], if any.
    pub fn grad(&self, v: Var) -> Option<Tensor> {
        self.nodes.borrow()[v.0].grad.clone()
    }

    // ---------------------------------------------------------------- binary

    /// Elementwise addition with broadcasting.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        let out = ta.zip_broadcast(&tb, |x, y| x + y);
        let (sa, sb) = (ta.shape().clone(), tb.shape().clone());
        self.push(
            out,
            Some(Box::new(move |g| {
                vec![(a.0, Tensor::reduce_to(g, &sa)), (b.0, Tensor::reduce_to(g, &sb))]
            })),
        )
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        let out = ta.zip_broadcast(&tb, |x, y| x - y);
        let (sa, sb) = (ta.shape().clone(), tb.shape().clone());
        self.push(
            out,
            Some(Box::new(move |g| {
                vec![
                    (a.0, Tensor::reduce_to(g, &sa)),
                    (b.0, Tensor::reduce_to(&g.map(|x| -x), &sb)),
                ]
            })),
        )
    }

    /// Elementwise (Hadamard) product with broadcasting.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        let out = ta.zip_broadcast(&tb, |x, y| x * y);
        let (sa, sb) = (ta.shape().clone(), tb.shape().clone());
        self.push(
            out,
            Some(Box::new(move |g| {
                vec![
                    (a.0, Tensor::reduce_to(&g.zip_broadcast(&tb, |gv, bv| gv * bv), &sa)),
                    (b.0, Tensor::reduce_to(&g.zip_broadcast(&ta, |gv, av| gv * av), &sb)),
                ]
            })),
        )
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        let out = ta.zip_broadcast(&tb, |x, y| x / y);
        let (sa, sb) = (ta.shape().clone(), tb.shape().clone());
        self.push(
            out,
            Some(Box::new(move |g| {
                let ga = g.zip_broadcast(&tb, |gv, bv| gv / bv);
                let gb = g
                    .zip_broadcast(&ta, |gv, av| gv * av)
                    .zip_broadcast(&tb, |x, bv| -x / (bv * bv));
                vec![(a.0, Tensor::reduce_to(&ga, &sa)), (b.0, Tensor::reduce_to(&gb, &sb))]
            })),
        )
    }

    /// Elementwise maximum; gradient flows to whichever input was larger
    /// (split evenly on exact ties).
    pub fn max2(&self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "max2 requires equal shapes");
        let out = ta.zip(&tb, f32::max);
        let (ta2, tb2) = (ta.clone(), tb.clone());
        self.push(
            out,
            Some(Box::new(move |g| {
                let mut ga = Tensor::zeros(ta2.shape().clone());
                let mut gb = Tensor::zeros(tb2.shape().clone());
                {
                    let (gad, gbd) = (ga.data_mut(), gb.data_mut());
                    // gbd borrows after gad ends; split scope to satisfy borrowck.
                    for (i, ((&av, &bv), &gv)) in
                        ta2.data().iter().zip(tb2.data().iter()).zip(g.data().iter()).enumerate()
                    {
                        if av > bv {
                            gad[i] = gv;
                        } else if bv > av {
                            gbd[i] = gv;
                        } else {
                            gad[i] = 0.5 * gv;
                            gbd[i] = 0.5 * gv;
                        }
                    }
                }
                vec![(a.0, ga), (b.0, gb)]
            })),
        )
    }

    /// Matrix product of two 2-D nodes.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        let out = kernels::matmul(&ta, &tb);
        self.push(
            out,
            Some(Box::new(move |g| {
                // dL/dA = G Bᵀ ; dL/dB = Aᵀ G — transpose-view routes, no
                // materialized Bᵀ/Aᵀ (bitwise identical to the copy routes).
                let ga = kernels::matmul_nt(g, &tb);
                let gb = kernels::matmul_tn(&ta, g);
                vec![(a.0, ga), (b.0, gb)]
            })),
        )
    }

    /// Batched matrix product of two 3-D nodes: (B,m,k)×(B,k,n).
    pub fn bmm(&self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        let out = kernels::bmm(&ta, &tb);
        self.push(
            out,
            Some(Box::new(move |g| {
                let ga = kernels::bmm_nt(g, &tb);
                let gb = kernels::bmm_tn(&ta, g);
                vec![(a.0, ga), (b.0, gb)]
            })),
        )
    }

    /// Batched `a · bᵀ` of two 3-D nodes: (B,m,k)×(B,n,k) → (B,m,n) —
    /// attention's `Q·Kᵀ` without materializing the transposed keys.
    /// Bit-identical to `bmm(a, permute(b, &[0, 2, 1]))` in forward and
    /// backward.
    pub fn bmm_nt(&self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        let out = kernels::bmm_nt(&ta, &tb);
        self.push(
            out,
            Some(Box::new(move |g| {
                // out = A Bᵀ: dL/dA = G B ; dL/dB = Gᵀ A.
                let ga = kernels::bmm(g, &tb);
                let gb = kernels::bmm_tn(g, &ta);
                vec![(a.0, ga), (b.0, gb)]
            })),
        )
    }

    /// Applies a constant linear map (e.g. a sparse adjacency matrix) to the
    /// leading axis of `x`. Gradient uses the map's transpose.
    pub fn linmap(&self, map: Arc<dyn LinMap>, x: Var) -> Var {
        let tx = self.value(x);
        let out = map.apply(&tx);
        self.push(out, Some(Box::new(move |g| vec![(x.0, map.apply_transpose(g))])))
    }

    /// Fused affine `x·W + b` for 2-D `x` with a broadcast bias row;
    /// bit-identical to `add(matmul(x, w), b)` in forward and backward (see
    /// [`kernels::addmm`]). Used by `nn::Linear`: one tape node instead of
    /// two, no broadcast intermediate.
    pub fn addmm(&self, x: Var, w: Var, b: Var) -> Var {
        let (tx, tw, tb) = (self.value(x), self.value(w), self.value(b));
        let out = kernels::addmm(&tx, &tw, &tb);
        self.push(
            out,
            Some(Box::new(move |g| {
                let (gx, gw, gb) = kernels::addmm_backward(&tx, &tw, g);
                vec![(x.0, gx), (w.0, gw), (b.0, gb)]
            })),
        )
    }

    /// Fused GRU reset gate `rh = sigmoid(ar) ⊙ h`; bit-identical to
    /// `mul(sigmoid(ar), h)` (see [`kernels::gru_rh`]). Used by
    /// `nn::GruCell`.
    pub fn gru_rh(&self, ar: Var, h: Var) -> Var {
        let (tar, th) = (self.value(ar), self.value(h));
        let (rh, r) = kernels::gru_rh(&tar, &th);
        self.push(
            rh,
            Some(Box::new(move |g| {
                let (gar, gh) = kernels::gru_rh_backward(&r, &th, g);
                vec![(ar.0, gar), (h.0, gh)]
            })),
        )
    }

    /// Fused GRU output gate
    /// `h' = (1 - sigmoid(az)) ⊙ tanh(s) + sigmoid(az) ⊙ h`; bit-identical
    /// to the composed five-node chain (see [`kernels::gru_out`]). Used by
    /// `nn::GruCell`.
    pub fn gru_out(&self, az: Var, s: Var, h: Var) -> Var {
        let (taz, ts, th) = (self.value(az), self.value(s), self.value(h));
        let (out, z, n) = kernels::gru_out(&taz, &ts, &th);
        self.push(
            out,
            Some(Box::new(move |g| {
                let (gaz, gs, gh) = kernels::gru_out_backward(&z, &n, &th, g);
                vec![(az.0, gaz), (s.0, gs), (h.0, gh)]
            })),
        )
    }

    /// Dilated causal 1-D convolution over channels-last (N, T, C_in)
    /// input; see [`kernels::conv1d_ntc`]. One node that saves only the
    /// input, weight and bias: the backward rebuilds the tap unfold.
    pub fn conv1d_ntc(&self, input: Var, weight: Var, bias: Option<Var>, dilation: usize) -> Var {
        let ti = self.value(input);
        let tw = self.value(weight);
        let tb = bias.map(|b| self.value(b));
        let out = kernels::conv1d_ntc(&ti, &tw, tb.as_ref(), dilation);
        self.push(
            out,
            Some(Box::new(move |g| {
                let (gi, gw, gb) = kernels::conv1d_ntc_backward(&ti, &tw, g, dilation);
                let mut grads = vec![(input.0, gi), (weight.0, gw)];
                if let Some(b) = bias {
                    grads.push((b.0, gb));
                }
                grads
            })),
        )
    }

    /// Dilated causal 1-D convolution over channels-first (N, C_in, T)
    /// input; see [`kernels::conv1d_dilated`].
    pub fn conv1d(&self, input: Var, weight: Var, bias: Option<Var>, dilation: usize) -> Var {
        let ti = self.value(input);
        let tw = self.value(weight);
        let tb = bias.map(|b| self.value(b));
        let out = kernels::conv1d_dilated(&ti, &tw, tb.as_ref(), dilation);
        self.push(
            out,
            Some(Box::new(move |g| {
                let (gi, gw, gb) = kernels::conv1d_dilated_backward(&ti, &tw, g, dilation);
                let mut grads = vec![(input.0, gi), (weight.0, gw)];
                if let Some(b) = bias {
                    grads.push((b.0, gb));
                }
                grads
            })),
        )
    }

    // ----------------------------------------------------------- elementwise

    fn unary(&self, x: Var, f: impl Fn(f32) -> f32, df: impl Fn(f32, f32) -> f32 + 'static) -> Var {
        let out = self.value(x).map(f);
        self.unary_out(x, out, df)
    }

    /// Pushes `out = f(x)`, already computed, with the elementwise
    /// derivative `df(x, out)`.
    fn unary_out(&self, x: Var, out: Tensor, df: impl Fn(f32, f32) -> f32 + 'static) -> Var {
        let tx = self.value(x);
        let saved_out = out.clone();
        self.push(
            out,
            Some(Box::new(move |g| {
                let mut buf = alloc::buf_with_capacity(tx.numel());
                buf.extend(
                    tx.data()
                        .iter()
                        .zip(saved_out.data().iter())
                        .zip(g.data().iter())
                        .map(|((&xi, &yi), &gi)| gi * df(xi, yi)),
                );
                vec![(x.0, Tensor::from_vec(tx.shape().clone(), buf))]
            })),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&self, x: Var) -> Var {
        self.unary(x, |v| v.max(0.0), |v, _| if v > 0.0 { 1.0 } else { 0.0 })
    }

    /// Logistic sigmoid (the shared polynomial [`crate::sigmoid`]).
    pub fn sigmoid(&self, x: Var) -> Var {
        let out = kernels::sigmoid(&self.value(x));
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
        let tx = self.value(x);
        let out = Tensor::scalar(tx.sum());
        let shape = tx.shape().clone();
        self.push(
            out,
            Some(Box::new(move |g| {
                let gv = g.item();
                vec![(x.0, Tensor::full(shape.clone(), gv))]
            })),
        )
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&self, x: Var) -> Var {
        let n = self.value(x).numel() as f32;
        let s = self.sum_all(x);
        self.mul_scalar(s, 1.0 / n)
    }

    /// Sum along `axis` with `keepdim`.
    pub fn sum_axis(&self, x: Var, axis: usize, keepdim: bool) -> Var {
        let tx = self.value(x);
        let out = tx.sum_axis(axis, keepdim);
        let in_shape = tx.shape().clone();
        self.push(
            out,
            Some(Box::new(move |g| {
                let gk = if keepdim { g.clone() } else { g.reshape(in_shape.keep_axis(axis)) };
                vec![(x.0, gk.broadcast_to(&in_shape))]
            })),
        )
    }

    /// Mean along `axis` with `keepdim`.
    pub fn mean_axis(&self, x: Var, axis: usize, keepdim: bool) -> Var {
        let d = self.value(x).dim(axis) as f32;
        let s = self.sum_axis(x, axis, keepdim);
        self.mul_scalar(s, 1.0 / d)
    }

    // --------------------------------------------------------------- shaping

    /// Reshape (element count preserved).
    pub fn reshape(&self, x: Var, shape: impl Into<Shape>) -> Var {
        let tx = self.value(x);
        let in_shape = tx.shape().clone();
        let out = tx.reshape(shape.into());
        self.push(out, Some(Box::new(move |g| vec![(x.0, g.reshape(in_shape.clone()))])))
    }

    /// Dimension permutation.
    pub fn permute(&self, x: Var, perm: &[usize]) -> Var {
        let tx = self.value(x);
        let out = tx.permute(perm);
        // Inverse permutation for the gradient.
        let mut inv = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        self.push(out, Some(Box::new(move |g| vec![(x.0, g.permute(&inv))])))
    }

    /// Slice `[start, end)` along `axis`; gradient scatters back with zeros
    /// elsewhere.
    pub fn slice(&self, x: Var, axis: usize, start: usize, end: usize) -> Var {
        let tx = self.value(x);
        let out = tx.slice(axis, start, end);
        let in_shape = tx.shape().clone();
        self.push(
            out,
            Some(Box::new(move |g| {
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
            })),
        )
    }

    /// Concatenation along `axis`.
    pub fn concat(&self, xs: &[Var], axis: usize) -> Var {
        let ts: Vec<Tensor> = xs.iter().map(|&v| self.value(v)).collect();
        let refs: Vec<&Tensor> = ts.iter().collect();
        let out = Tensor::concat(&refs, axis);
        let ids: Vec<usize> = xs.iter().map(|v| v.0).collect();
        let lens: Vec<usize> = ts.iter().map(|t| t.dim(axis)).collect();
        self.push(
            out,
            Some(Box::new(move |g| {
                let mut grads = Vec::with_capacity(ids.len());
                let mut start = 0usize;
                for (i, &id) in ids.iter().enumerate() {
                    let end = start + lens[i];
                    grads.push((id, g.slice(axis, start, end)));
                    start = end;
                }
                grads
            })),
        )
    }

    /// Selects rows of `x` along axis 0 (duplicates allowed); gradient
    /// scatter-adds back.
    pub fn index_select0(&self, x: Var, indices: &[usize]) -> Var {
        let tx = self.value(x);
        let out = tx.index_select0(indices);
        let in_shape = tx.shape().clone();
        let idx = indices.to_vec();
        self.push(
            out,
            Some(Box::new(move |g| {
                let mut gx = Tensor::zeros(in_shape.clone());
                let inner: usize = in_shape.dims()[1..].iter().product();
                {
                    let gd = gx.data_mut();
                    for (row, &i) in idx.iter().enumerate() {
                        let src = &g.data()[row * inner..(row + 1) * inner];
                        for (dst, &s) in gd[i * inner..(i + 1) * inner].iter_mut().zip(src) {
                            *dst += s;
                        }
                    }
                }
                vec![(x.0, gx)]
            })),
        )
    }

    /// Broadcasts `x` to a larger shape; gradient reduces back.
    pub fn broadcast_to(&self, x: Var, shape: impl Into<Shape>) -> Var {
        let tx = self.value(x);
        let in_shape = tx.shape().clone();
        let out = tx.broadcast_to(&shape.into());
        self.push(out, Some(Box::new(move |g| vec![(x.0, Tensor::reduce_to(g, &in_shape))])))
    }

    // ------------------------------------------------------- softmax & co.

    /// Softmax over the last dimension.
    pub fn softmax_lastdim(&self, x: Var) -> Var {
        let tx = self.value(x);
        let out = kernels::softmax_lastdim(&tx);
        let y = out.clone();
        self.push(
            out,
            Some(Box::new(move |g| {
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
            })),
        )
    }

    /// Log-softmax over the last dimension.
    pub fn log_softmax_lastdim(&self, x: Var) -> Var {
        let tx = self.value(x);
        let out = kernels::log_softmax_lastdim(&tx);
        let y = out.clone();
        self.push(
            out,
            Some(Box::new(move |g| {
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
            })),
        )
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
    /// gradient with 1. Panics if `loss` is not a scalar.
    pub fn backward(&self, loss: Var) {
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
