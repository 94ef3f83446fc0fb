//! Neural-network building blocks on top of the autograd tape.
//!
//! Layers own [`crate::params::ParamId`]s into a shared
//! [`crate::params::ParamStore`] and run inside a per-pass [`Fwd`] context.
//! `Fwd` dereferences to the [`Tape`] its ops run on, in one of two
//! execution modes:
//!
//! * **Train** ([`Fwd::new`]) — the tape records each op's backward, and
//!   parameters become leaves through a [`crate::params::ParamBinder`];
//!   call [`Fwd::tape`] for losses and `backward`.
//! * **Infer** ([`Fwd::infer`]) — the tape is an [`InferSession`]'s, which
//!   records no backward: no closures, no grad slots, parameters bound once
//!   per session, intermediate buffers recycled through the session
//!   allocation cache.
//!
//! Layers and models written against `Fwd` run unchanged in both modes, and
//! every op computes bit-identical values in both, because both modes run
//! the one `Tape` op.

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
use crate::params::{ParamBinder, ParamId, ParamStore};
use crate::tape::{Tape, Var};
use std::ops::Deref;

enum Exec<'a, 't> {
    Train { binder: &'a mut ParamBinder<'t> },
    Infer { session: &'a InferSession },
}

/// Per-forward-pass context: the parameter store plus an execution mode
/// (see the module docs for the Train / Infer contract). Ops are the
/// [`Tape`]'s, reached through `Deref`.
pub struct Fwd<'a, 't> {
    /// The model's parameters.
    pub store: &'a ParamStore,
    exec: Exec<'a, 't>,
}

impl<'a, 't> Fwd<'a, 't> {
    /// Creates a Train-mode context recording onto `binder`'s tape.
    pub fn new(store: &'a ParamStore, binder: &'a mut ParamBinder<'t>) -> Self {
        Fwd { store, exec: Exec::Train { binder } }
    }

    /// Creates an Infer-mode context running on `session`'s forward-only
    /// tape. The session must have been created from (or rebound to)
    /// `store`.
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
    /// In Infer mode — its tape records no backward. Only training paths
    /// (losses, `backward`, gradient collection) may call this.
    pub fn tape(&self) -> &'t Tape {
        match &self.exec {
            Exec::Train { binder } => binder.tape(),
            Exec::Infer { .. } => panic!("Fwd::tape() called in Infer mode"),
        }
    }
}

impl Deref for Fwd<'_, '_> {
    type Target = Tape;

    fn deref(&self) -> &Tape {
        match &self.exec {
            Exec::Train { binder } => binder.tape(),
            Exec::Infer { session } => session.tape(),
        }
    }
}
