//! Neural-network building blocks on top of the autograd tape.
//!
//! Layers own [`crate::params::ParamId`]s into a shared
//! [`crate::params::ParamStore`] and run inside a per-pass [`Fwd`] context.
//! `Fwd` is an execution-mode seam with two backends:
//!
//! * **Train** ([`Fwd::new`]) — ops record onto a [`Tape`] through a
//!   [`crate::params::ParamBinder`], exactly as before the split; call
//!   [`Fwd::tape`] for losses and `backward`.
//! * **Infer** ([`Fwd::infer`]) — ops evaluate eagerly in an
//!   [`InferSession`]: no backward closures, no grad slots, parameters bound
//!   once per session, intermediate buffers recycled through the session
//!   allocation cache.
//!
//! Layers and models written against the `Fwd` op set run unchanged in both
//! modes, and every op computes bit-identical values in both (the Infer ops
//! mirror the tape's forward lines verbatim). Composites defined here
//! (`neg`, `mean_all`, `mean_axis`) expand to the same primitive sequence
//! the tape's own composites record, preserving that contract.

mod attention;
mod conv;
mod gru;
mod init;
mod linear;
mod norm;

pub use attention::{MultiHeadAttention, TransformerEncoderLayer};
pub use conv::Conv1d;
pub use gru::GruCell;
pub use init::{glorot_uniform, he_uniform, randn, uniform};
pub use linear::{Activation, Linear, Mlp};
pub use norm::LayerNorm;

use crate::infer::InferSession;
use crate::linmap::LinMap;
use crate::params::{ParamBinder, ParamId, ParamStore};
use crate::shape::Shape;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use std::sync::Arc;

enum Exec<'a, 't> {
    Train { binder: &'a mut ParamBinder<'t> },
    Infer { session: &'a mut InferSession },
}

/// Per-forward-pass context: the parameter store plus an execution backend
/// (see the module docs for the Train / Infer contract).
pub struct Fwd<'a, 't> {
    /// The model's parameters.
    pub store: &'a ParamStore,
    exec: Exec<'a, 't>,
}

/// Generates `Fwd` methods that dispatch one op to the active backend. The
/// op must exist on both `Tape` and `InferSession` under the same name and
/// argument list — that pairing is the bitwise Train/Infer contract.
macro_rules! fwd_ops {
    ($($(#[$doc:meta])* fn $name:ident($($arg:ident : $ty:ty),*) -> $ret:ty;)*) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self, $($arg: $ty),*) -> $ret {
                match &mut self.exec {
                    Exec::Train { binder } => binder.tape().$name($($arg),*),
                    Exec::Infer { session } => session.$name($($arg),*),
                }
            }
        )*
    };
}

impl<'a, 't> Fwd<'a, 't> {
    /// Creates a Train-mode context recording onto `binder`'s tape.
    pub fn new(store: &'a ParamStore, binder: &'a mut ParamBinder<'t>) -> Self {
        Fwd { store, exec: Exec::Train { binder } }
    }

    /// Creates an Infer-mode context evaluating eagerly in `session`. The
    /// session must have been created from (or rebound to) `store`.
    pub fn infer(store: &'a ParamStore, session: &'a mut InferSession) -> Self {
        Fwd { store, exec: Exec::Infer { session } }
    }

    /// The [`Var`] bound to parameter `id`: a tape leaf (registered on first
    /// use) in Train mode, a constant-time index in Infer mode.
    pub fn p(&mut self, id: ParamId) -> Var {
        match &mut self.exec {
            Exec::Train { binder } => binder.var(self.store, id),
            Exec::Infer { session } => session.p(id),
        }
    }

    /// The underlying tape.
    ///
    /// # Panics
    /// In Infer mode — there is no tape. Only training paths (losses,
    /// `backward`, gradient collection) may call this.
    pub fn tape(&self) -> &'t Tape {
        match &self.exec {
            Exec::Train { binder } => binder.tape(),
            Exec::Infer { .. } => panic!("Fwd::tape() called in Infer mode"),
        }
    }

    /// True when ops record onto a tape (Train mode).
    pub fn is_train(&self) -> bool {
        matches!(self.exec, Exec::Train { .. })
    }

    fwd_ops! {
        /// Registers a non-differentiable constant.
        fn constant(t: Tensor) -> Var;
        /// Elementwise sum with broadcasting.
        fn add(a: Var, b: Var) -> Var;
        /// Elementwise difference with broadcasting.
        fn sub(a: Var, b: Var) -> Var;
        /// Elementwise product with broadcasting.
        fn mul(a: Var, b: Var) -> Var;
        /// Elementwise quotient with broadcasting.
        fn div(a: Var, b: Var) -> Var;
        /// Elementwise maximum of two equal-shaped nodes.
        fn max2(a: Var, b: Var) -> Var;
        /// Matrix product `(m, k) × (k, n)`.
        fn matmul(a: Var, b: Var) -> Var;
        /// Batched matrix product `(b, m, k) × (b, k, n)`.
        fn bmm(a: Var, b: Var) -> Var;
        /// Batched `a · bᵀ` product `(b, m, k) × (b, n, k)` — reads the
        /// second operand through a transpose view (no materialized copy).
        fn bmm_nt(a: Var, b: Var) -> Var;
        /// Applies a constant linear operator (e.g. a graph adjacency).
        fn linmap(map: Arc<dyn LinMap>, x: Var) -> Var;
        /// Fused `x @ w + b` (row-broadcast bias).
        fn addmm(x: Var, w: Var, b: Var) -> Var;
        /// Fused gated GCN layer `(A z W_v + b_v) ⊙ σ(A z W_g + b_g)` with
        /// `value = (W_v, b_v)` and `gate = (W_g, b_g)` (see
        /// [`Linear::bind`]); bitwise equal to `linmap`, two `addmm`,
        /// `sigmoid` and `mul`.
        fn gated_gcn(map: Arc<dyn LinMap>, z: Var, value: (Var, Var), gate: (Var, Var)) -> Var;
        /// Fused GRU reset-gate stage: `sigmoid(ar) * h`.
        fn gru_rh(ar: Var, h: Var) -> Var;
        /// Fused GRU output stage: `(1 - z) * n + z * h`.
        fn gru_out(az: Var, s: Var, h: Var) -> Var;
        /// Dilated causal 1-d convolution over channels-last `(B, T, C)`.
        fn conv1d_ntc(input: Var, weight: Var, bias: Option<Var>, dilation: usize) -> Var;
        /// Rectified linear unit.
        fn relu(x: Var) -> Var;
        /// Logistic sigmoid.
        fn sigmoid(x: Var) -> Var;
        /// Hyperbolic tangent.
        fn tanh(x: Var) -> Var;
        /// Elementwise exponential.
        fn exp(x: Var) -> Var;
        /// Elementwise natural logarithm.
        fn ln(x: Var) -> Var;
        /// Elementwise square root.
        fn sqrt(x: Var) -> Var;
        /// Elementwise square.
        fn square(x: Var) -> Var;
        /// Elementwise absolute value.
        fn abs(x: Var) -> Var;
        /// Adds a scalar to every element.
        fn add_scalar(x: Var, c: f32) -> Var;
        /// Multiplies every element by a scalar.
        fn mul_scalar(x: Var, c: f32) -> Var;
        /// Leaky ReLU with slope `alpha` below zero.
        fn leaky_relu(x: Var, alpha: f32) -> Var;
        /// Elementwise maximum against a scalar bound.
        fn max_scalar(x: Var, c: f32) -> Var;
        /// Elementwise minimum against a scalar bound.
        fn min_scalar(x: Var, c: f32) -> Var;
        /// Sum of all elements (scalar result).
        fn sum_all(x: Var) -> Var;
        /// Sum along `axis` with `keepdim`.
        fn sum_axis(x: Var, axis: usize, keepdim: bool) -> Var;
        /// Reshape (element count preserved).
        fn reshape(x: Var, shape: impl Into<Shape>) -> Var;
        /// Permutes axes.
        fn permute(x: Var, perm: &[usize]) -> Var;
        /// Contiguous `[start, end)` range along `axis`.
        fn slice(x: Var, axis: usize, start: usize, end: usize) -> Var;
        /// Concatenation along an existing axis.
        fn concat(xs: &[Var], axis: usize) -> Var;
        /// Gathers rows of axis 0 by index (duplicates allowed).
        fn index_select0(x: Var, indices: &[usize]) -> Var;
        /// Broadcasts to a larger shape (numpy rules).
        fn broadcast_to(x: Var, shape: impl Into<Shape>) -> Var;
        /// Softmax over the last axis.
        fn softmax_lastdim(x: Var) -> Var;
        /// Log-softmax over the last axis.
        fn log_softmax_lastdim(x: Var) -> Var;
    }

    /// Current value of a node.
    pub fn value(&self, v: Var) -> Tensor {
        match &self.exec {
            Exec::Train { binder } => binder.tape().value(v),
            Exec::Infer { session } => session.value(v),
        }
    }

    /// The shape of a node.
    pub fn shape_of(&self, v: Var) -> Shape {
        match &self.exec {
            Exec::Train { binder } => binder.tape().shape_of(v),
            Exec::Infer { session } => session.shape_of(v),
        }
    }

    // Composites over the primitives above: both modes expand to the same
    // primitive sequence the tape's own composites record, so the bitwise
    // contract extends to them.

    /// Negation.
    pub fn neg(&mut self, x: Var) -> Var {
        self.mul_scalar(x, -1.0)
    }

    /// Mean of all elements (scalar result).
    pub fn mean_all(&mut self, x: Var) -> Var {
        let n = self.shape_of(x).numel() as f32;
        let s = self.sum_all(x);
        self.mul_scalar(s, 1.0 / n)
    }

    /// Mean along `axis` with `keepdim`.
    pub fn mean_axis(&mut self, x: Var, axis: usize, keepdim: bool) -> Var {
        let d = self.shape_of(x).dim(axis) as f32;
        let s = self.sum_axis(x, axis, keepdim);
        self.mul_scalar(s, 1.0 / d)
    }
}
