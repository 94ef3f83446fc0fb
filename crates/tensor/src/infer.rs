//! Forward-only execution for inference.
//!
//! An [`InferSession`] is the Infer-mode backend of [`crate::nn::Fwd`]: a
//! [`Tape`] that records no backward, so its ops box no closures, keep no
//! gradient slots and build none of the data only a backward reads. All
//! parameters of a [`ParamStore`] are bound once at construction (cheap
//! `Arc` clones) as the tape's first `store.len()` nodes, so
//! [`crate::params::ParamId`]s map to [`Var`]s by index — no hashing per
//! parameter use. Between predictions, [`InferSession::reset`] truncates the
//! tape back to the parameters, dropping the intermediates into the
//! thread-local session allocation cache ([`alloc::session_begin`]) that
//! the next prediction draws from; a bind-once / predict-many loop therefore
//! reaches steady state with essentially zero fresh allocations.
//!
//! ## Contract
//!
//! * Every op is the [`Tape`] op itself, so Infer-mode outputs are bitwise
//!   identical to Train-mode values by construction (regression-guarded by
//!   `tests/infer_equivalence.rs`).
//! * Parameter values are captured at [`InferSession::new`] /
//!   [`InferSession::rebind`]. After an optimizer step, rebind (or recreate)
//!   the session before predicting again.
//! * A [`Var`] from a session is only valid for that session, and only until
//!   the next [`InferSession::reset`].

use crate::alloc;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use crate::telemetry;
use std::marker::PhantomData;

/// Forward-only tape with bind-once parameters; see the module docs.
pub struct InferSession {
    tape: Tape,
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
        let tape = Tape::forward_only();
        for i in 0..store.len() {
            tape.constant(store.get(ParamId(i)));
        }
        InferSession { tape, n_params: store.len(), _not_send: PhantomData }
    }

    /// Drops all intermediates, keeping the parameter bindings. Their buffers
    /// land in the session allocation cache, ready for the next prediction.
    pub fn reset(&mut self) {
        telemetry::count("infer.session.reset", 1);
        self.tape.truncate(self.n_params);
    }

    /// Re-captures parameter values from `store` (same layout as at
    /// construction) after an optimizer update, and resets the session.
    pub fn rebind(&mut self, store: &ParamStore) {
        assert_eq!(store.len(), self.n_params, "parameter store layout changed");
        telemetry::count("infer.session.rebind", 1);
        self.reset();
        for i in 0..self.n_params {
            self.tape.set_value(Var(i), store.get(ParamId(i)));
        }
    }

    /// Bytes of parameter storage bound in this session, summed at each
    /// parameter's own dtype — half a quantized model's f32 footprint. This
    /// is the per-replica weight cost of serving; intermediates are counted
    /// separately by [`InferSession::arena_bytes`].
    pub fn param_bytes(&self) -> usize {
        self.tape.storage_bytes(0..self.n_params)
    }

    /// Bytes of intermediate (non-parameter) tensors currently alive in the
    /// arena. Right after a forward pass this is the prediction's working
    /// set; [`InferSession::reset`] returns it to the session cache.
    pub fn arena_bytes(&self) -> usize {
        self.tape.storage_bytes(self.n_params..self.tape.len())
    }

    /// The bound [`Var`] of parameter `id` — a constant-time index mapping.
    pub fn p(&self, id: ParamId) -> Var {
        assert!(id.0 < self.n_params, "parameter bound after session creation");
        Var(id.0)
    }

    /// The forward-only tape the session's ops run on.
    pub(crate) fn tape(&self) -> &Tape {
        &self.tape
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
    use crate::nn::Fwd;
    use crate::tensor::Tensor;

    #[test]
    fn params_bind_by_index_and_reset_keeps_them() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec([2], vec![1.0, 2.0]));
        let b = store.register("b", Tensor::from_vec([2], vec![3.0, 4.0]));
        let mut s = InferSession::new(&store);
        assert_eq!(s.p(w), Var(0));
        assert_eq!(s.p(b), Var(1));
        let (wv, bv) = (s.p(w), s.p(b));
        let fwd = Fwd::infer(&store, &mut s);
        let y = fwd.add(wv, bv);
        assert_eq!(fwd.value(y).data(), &[4.0, 6.0]);
        s.reset();
        let fwd = Fwd::infer(&store, &mut s);
        assert_eq!(fwd.value(bv).data(), &[3.0, 4.0]);
        let y2 = fwd.mul(wv, bv);
        assert_eq!(fwd.value(y2).data(), &[3.0, 8.0]);
    }

    #[test]
    fn rebind_picks_up_updated_weights() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec([2], vec![1.0, 2.0]));
        let mut s = InferSession::new(&store);
        let wv = s.p(w);
        store.data_mut(w)[0] = 10.0;
        let seen = Fwd::infer(&store, &mut s).value(wv);
        assert_eq!(seen.data()[0], 1.0, "session captures values at bind time");
        s.rebind(&store);
        assert_eq!(Fwd::infer(&store, &mut s).value(wv).data()[0], 10.0);
    }

    #[test]
    #[should_panic(expected = "bound after session creation")]
    fn rejects_params_registered_after_creation() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::zeros([2]));
        let mut s = InferSession::new(&store);
        let late = store.register("late", Tensor::zeros([2]));
        let _ = Fwd::infer(&store, &mut s).p(late);
    }
}
