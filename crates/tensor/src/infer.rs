//! Tape-free eager execution for inference.
//!
//! An [`InferSession`] is the Infer-mode backend of [`crate::nn::Fwd`]: a
//! flat arena of computed values with **no** backward closures, gradient
//! slots, or per-pass leaf registration. All parameters of a
//! [`ParamStore`] are bound once at construction (cheap `Arc` clones) as
//! the first `store.len()` arena entries, so [`crate::params::ParamId`]s map
//! to [`Var`]s by index — no hashing per parameter use. Between predictions,
//! [`InferSession::reset`] truncates the arena back to the parameters,
//! dropping the intermediates into the thread-local session allocation cache
//! ([`alloc::session_begin`]) that the next prediction draws from; a
//! bind-once / predict-many loop therefore reaches steady state with
//! essentially zero fresh allocations.
//!
//! ## Contract
//!
//! * Every op computes **exactly** the value its [`crate::Tape`] counterpart
//!   records on the forward pass — same kernels, same closures, same order —
//!   so Infer-mode outputs are bitwise identical to Train-mode values (see
//!   `tests/infer_equivalence.rs`).
//! * Parameter values are captured at [`InferSession::new`] /
//!   [`InferSession::rebind`]. After an optimizer step, rebind (or recreate)
//!   the session before predicting again.
//! * A [`Var`] from a session is only valid for that session, and only until
//!   the next [`InferSession::reset`].

use crate::alloc;
use crate::kernels;
use crate::linmap::LinMap;
use crate::params::{ParamId, ParamStore};
use crate::shape::Shape;
use crate::tape::Var;
use crate::telemetry;
use crate::tensor::Tensor;
use std::marker::PhantomData;
use std::sync::Arc;

/// Eager evaluation arena for tape-free inference; see the module docs.
pub struct InferSession {
    vals: Vec<Tensor>,
    n_params: usize,
    // The session allocation cache is thread-local; keep begin/end paired on
    // one thread by making the session neither Send nor Sync.
    _not_send: PhantomData<*const ()>,
}

impl InferSession {
    /// Creates a session with every parameter of `store` bound eagerly, and
    /// installs the thread-local session allocation cache.
    pub fn new(store: &ParamStore) -> Self {
        telemetry::count("infer.session.new", 1);
        alloc::session_begin();
        let vals: Vec<Tensor> = (0..store.len()).map(|i| store.get(ParamId(i))).collect();
        let n_params = vals.len();
        InferSession { vals, n_params, _not_send: PhantomData }
    }

    /// Drops all intermediates, keeping the parameter bindings. Their buffers
    /// land in the session allocation cache, ready for the next prediction.
    pub fn reset(&mut self) {
        telemetry::count("infer.session.reset", 1);
        self.vals.truncate(self.n_params);
    }

    /// Re-captures parameter values from `store` (same layout as at
    /// construction) after an optimizer update, and resets the session.
    pub fn rebind(&mut self, store: &ParamStore) {
        assert_eq!(store.len(), self.n_params, "parameter store layout changed");
        telemetry::count("infer.session.rebind", 1);
        self.reset();
        for i in 0..self.n_params {
            self.vals[i] = store.get(ParamId(i));
        }
    }

    /// Bytes of parameter storage bound in this session, summed at each
    /// parameter's own dtype — half a quantized model's f32 footprint. This
    /// is the per-replica weight cost of serving; intermediates are counted
    /// separately by [`InferSession::arena_bytes`].
    pub fn param_bytes(&self) -> usize {
        self.vals[..self.n_params].iter().map(Tensor::storage_bytes).sum()
    }

    /// Bytes of intermediate (non-parameter) tensors currently alive in the
    /// arena. Right after a forward pass this is the prediction's working
    /// set; [`InferSession::reset`] returns it to the session cache.
    pub fn arena_bytes(&self) -> usize {
        self.vals[self.n_params..].iter().map(Tensor::storage_bytes).sum()
    }

    /// The bound [`Var`] of parameter `id` — a constant-time index mapping.
    pub fn p(&self, id: ParamId) -> Var {
        assert!(id.0 < self.n_params, "parameter bound after session creation");
        Var(id.0)
    }

    fn push(&mut self, t: Tensor) -> Var {
        self.vals.push(t);
        Var(self.vals.len() - 1)
    }

    fn val(&self, v: Var) -> &Tensor {
        &self.vals[v.0]
    }

    // Every op below mirrors the forward line of its `Tape` counterpart
    // verbatim; keep them in sync so the bitwise Train/Infer contract holds.

    pub(crate) fn constant(&mut self, t: Tensor) -> Var {
        self.push(t)
    }

    pub(crate) fn value(&self, v: Var) -> Tensor {
        self.vals[v.0].clone()
    }

    pub(crate) fn shape_of(&self, v: Var) -> Shape {
        self.vals[v.0].shape().clone()
    }

    pub(crate) fn add(&mut self, a: Var, b: Var) -> Var {
        let out = self.val(a).zip_broadcast(self.val(b), |x, y| x + y);
        self.push(out)
    }

    pub(crate) fn sub(&mut self, a: Var, b: Var) -> Var {
        let out = self.val(a).zip_broadcast(self.val(b), |x, y| x - y);
        self.push(out)
    }

    pub(crate) fn mul(&mut self, a: Var, b: Var) -> Var {
        let out = self.val(a).zip_broadcast(self.val(b), |x, y| x * y);
        self.push(out)
    }

    pub(crate) fn div(&mut self, a: Var, b: Var) -> Var {
        let out = self.val(a).zip_broadcast(self.val(b), |x, y| x / y);
        self.push(out)
    }

    pub(crate) fn max2(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.val(a), self.val(b));
        assert_eq!(ta.shape(), tb.shape(), "max2 requires equal shapes");
        let out = ta.zip(tb, f32::max);
        self.push(out)
    }

    pub(crate) fn matmul(&mut self, a: Var, b: Var) -> Var {
        let out = kernels::matmul(self.val(a), self.val(b));
        self.push(out)
    }

    pub(crate) fn bmm(&mut self, a: Var, b: Var) -> Var {
        let out = kernels::bmm(self.val(a), self.val(b));
        self.push(out)
    }

    pub(crate) fn bmm_nt(&mut self, a: Var, b: Var) -> Var {
        let out = kernels::bmm_nt(self.val(a), self.val(b));
        self.push(out)
    }

    pub(crate) fn linmap(&mut self, map: Arc<dyn LinMap>, x: Var) -> Var {
        let out = map.apply(self.val(x));
        self.push(out)
    }

    pub(crate) fn addmm(&mut self, x: Var, w: Var, b: Var) -> Var {
        let out = kernels::addmm(self.val(x), self.val(w), self.val(b));
        self.push(out)
    }

    pub(crate) fn gated_gcn(
        &mut self,
        map: Arc<dyn LinMap>,
        z: Var,
        value: (Var, Var),
        gate: (Var, Var),
    ) -> Var {
        let out = {
            let agg = map.apply(self.val(z));
            let (wv, bv) = (self.val(value.0), self.val(value.1));
            let (wg, bg) = (self.val(gate.0), self.val(gate.1));
            kernels::gated_gcn(&agg, wv, bv, wg, bg, false).0
        };
        self.push(out)
    }

    pub(crate) fn gru_rh(&mut self, ar: Var, h: Var) -> Var {
        let (rh, _r) = kernels::gru_rh(self.val(ar), self.val(h));
        self.push(rh)
    }

    pub(crate) fn gru_out(&mut self, az: Var, s: Var, h: Var) -> Var {
        let (out, _z, _n) = kernels::gru_out(self.val(az), self.val(s), self.val(h));
        self.push(out)
    }

    pub(crate) fn conv1d_ntc(
        &mut self,
        input: Var,
        weight: Var,
        bias: Option<Var>,
        dilation: usize,
    ) -> Var {
        let out = {
            let tb = bias.map(|b| self.val(b));
            kernels::conv1d_ntc(self.val(input), self.val(weight), tb, dilation)
        };
        self.push(out)
    }

    fn unary(&mut self, x: Var, f: impl Fn(f32) -> f32) -> Var {
        let out = self.val(x).map(f);
        self.push(out)
    }

    pub(crate) fn relu(&mut self, x: Var) -> Var {
        self.unary(x, |v| v.max(0.0))
    }

    pub(crate) fn sigmoid(&mut self, x: Var) -> Var {
        let out = kernels::sigmoid(self.val(x));
        self.push(out)
    }

    pub(crate) fn tanh(&mut self, x: Var) -> Var {
        self.unary(x, f32::tanh)
    }

    pub(crate) fn exp(&mut self, x: Var) -> Var {
        self.unary(x, f32::exp)
    }

    pub(crate) fn ln(&mut self, x: Var) -> Var {
        self.unary(x, f32::ln)
    }

    pub(crate) fn sqrt(&mut self, x: Var) -> Var {
        self.unary(x, f32::sqrt)
    }

    pub(crate) fn square(&mut self, x: Var) -> Var {
        self.unary(x, |v| v * v)
    }

    pub(crate) fn abs(&mut self, x: Var) -> Var {
        self.unary(x, f32::abs)
    }

    pub(crate) fn add_scalar(&mut self, x: Var, c: f32) -> Var {
        self.unary(x, move |v| v + c)
    }

    pub(crate) fn mul_scalar(&mut self, x: Var, c: f32) -> Var {
        self.unary(x, move |v| v * c)
    }

    pub(crate) fn leaky_relu(&mut self, x: Var, alpha: f32) -> Var {
        self.unary(x, move |v| if v > 0.0 { v } else { alpha * v })
    }

    pub(crate) fn max_scalar(&mut self, x: Var, c: f32) -> Var {
        self.unary(x, move |v| v.max(c))
    }

    pub(crate) fn min_scalar(&mut self, x: Var, c: f32) -> Var {
        self.unary(x, move |v| v.min(c))
    }

    pub(crate) fn sum_all(&mut self, x: Var) -> Var {
        let out = Tensor::scalar(self.val(x).sum());
        self.push(out)
    }

    pub(crate) fn sum_axis(&mut self, x: Var, axis: usize, keepdim: bool) -> Var {
        let out = self.val(x).sum_axis(axis, keepdim);
        self.push(out)
    }

    pub(crate) fn reshape(&mut self, x: Var, shape: impl Into<Shape>) -> Var {
        let out = self.val(x).reshape(shape.into());
        self.push(out)
    }

    pub(crate) fn permute(&mut self, x: Var, perm: &[usize]) -> Var {
        let out = self.val(x).permute(perm);
        self.push(out)
    }

    pub(crate) fn slice(&mut self, x: Var, axis: usize, start: usize, end: usize) -> Var {
        let out = self.val(x).slice(axis, start, end);
        self.push(out)
    }

    pub(crate) fn concat(&mut self, xs: &[Var], axis: usize) -> Var {
        let out = {
            let ts: Vec<&Tensor> = xs.iter().map(|&v| self.val(v)).collect();
            Tensor::concat(&ts, axis)
        };
        self.push(out)
    }

    pub(crate) fn index_select0(&mut self, x: Var, indices: &[usize]) -> Var {
        let out = self.val(x).index_select0(indices);
        self.push(out)
    }

    pub(crate) fn broadcast_to(&mut self, x: Var, shape: impl Into<Shape>) -> Var {
        let out = self.val(x).broadcast_to(&shape.into());
        self.push(out)
    }

    pub(crate) fn softmax_lastdim(&mut self, x: Var) -> Var {
        let out = kernels::softmax_lastdim(self.val(x));
        self.push(out)
    }

    pub(crate) fn log_softmax_lastdim(&mut self, x: Var) -> Var {
        let out = kernels::log_softmax_lastdim(self.val(x));
        self.push(out)
    }
}

impl Drop for InferSession {
    fn drop(&mut self) {
        // End the session cache first: the arena tensors (dropped after this
        // body) then recycle straight into the global pool, exactly like a
        // dropped tape's nodes.
        alloc::session_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_bind_by_index_and_reset_keeps_them() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec([2], vec![1.0, 2.0]));
        let b = store.register("b", Tensor::from_vec([2], vec![3.0, 4.0]));
        let mut s = InferSession::new(&store);
        assert_eq!(s.p(w), Var(0));
        assert_eq!(s.p(b), Var(1));
        let y = s.add(s.p(w), s.p(b));
        assert_eq!(s.value(y).data(), &[4.0, 6.0]);
        s.reset();
        assert_eq!(s.value(s.p(b)).data(), &[3.0, 4.0]);
        let y2 = s.mul(s.p(w), s.p(b));
        assert_eq!(s.value(y2).data(), &[3.0, 8.0]);
    }

    #[test]
    fn rebind_picks_up_updated_weights() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec([2], vec![1.0, 2.0]));
        let mut s = InferSession::new(&store);
        store.data_mut(w)[0] = 10.0;
        assert_eq!(s.value(s.p(w)).data()[0], 1.0, "session captures values at bind time");
        s.rebind(&store);
        assert_eq!(s.value(s.p(w)).data()[0], 10.0);
    }

    #[test]
    #[should_panic(expected = "bound after session creation")]
    fn rejects_params_registered_after_creation() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::zeros([2]));
        let s = InferSession::new(&store);
        let late = store.register("late", Tensor::zeros([2]));
        let _ = s.p(late);
    }
}
