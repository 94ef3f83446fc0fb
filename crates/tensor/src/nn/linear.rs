//! Fully-connected layers: [`Linear`] (affine map over the last axis) and a
//! small [`Mlp`] helper.

use super::{init, Fwd};
use crate::params::{ParamId, ParamStore};
use crate::tape::Var;
use crate::tensor::Tensor;
use rand::Rng;

/// Affine map `y = x W + b` applied to the last axis of `x`.
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new linear layer's parameters under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.register(
            format!("{name}.w"),
            init::glorot_uniform([in_dim, out_dim], in_dim, out_dim, rng),
        );
        let b = Some(store.register(format!("{name}.b"), Tensor::zeros([out_dim])));
        Linear { w, b, in_dim, out_dim }
    }

    /// Same as [`Linear::new`] but without a bias term.
    pub fn new_no_bias(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.register(
            format!("{name}.w"),
            init::glorot_uniform([in_dim, out_dim], in_dim, out_dim, rng),
        );
        Linear { w, b: None, in_dim, out_dim }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The bound `(weight, bias)` [`Var`]s of a biased layer, for fused ops
    /// that apply the affine map themselves ([`Fwd::gated_gcn`]). Binds in
    /// the order [`Linear::forward`] does.
    ///
    /// # Panics
    /// If the layer has no bias.
    pub fn bind(&self, fwd: &mut Fwd) -> (Var, Var) {
        let w = fwd.p(self.w);
        let b = self.b.expect("Linear::bind needs a biased layer");
        (w, fwd.p(b))
    }

    /// Applies the layer to `x` of shape `(..., in_dim)`.
    pub fn forward(&self, fwd: &mut Fwd, x: Var) -> Var {
        let in_shape = fwd.shape_of(x);
        let r = in_shape.rank();
        assert!(r >= 1, "Linear input must have at least one dim");
        assert_eq!(
            in_shape.dim(r - 1),
            self.in_dim,
            "Linear expected last dim {}, got {}",
            self.in_dim,
            in_shape
        );
        let rows = in_shape.numel() / self.in_dim;
        let x2 = fwd.reshape(x, [rows, self.in_dim]);
        let w = fwd.p(self.w);
        // The fused affine is bit-identical to matmul + add (see
        // `tests/fused_equivalence.rs`).
        let y = match self.b {
            Some(b) => {
                let bv = fwd.p(b);
                fwd.addmm(x2, w, bv)
            }
            None => fwd.matmul(x2, w),
        };
        let mut out_dims = in_shape.dims().to_vec();
        out_dims[r - 1] = self.out_dim;
        fwd.reshape(y, out_dims)
    }
}

/// Activation functions selectable in [`Mlp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// No activation.
    Identity,
}

impl Activation {
    /// Applies the activation in the active execution mode.
    pub fn apply(&self, fwd: &mut Fwd, x: Var) -> Var {
        match self {
            Activation::Relu => fwd.relu(x),
            Activation::Sigmoid => fwd.sigmoid(x),
            Activation::Tanh => fwd.tanh(x),
            Activation::Identity => x,
        }
    }
}

/// A stack of [`Linear`] layers with a shared hidden activation; the output
/// layer is linear (optionally activated by the caller).
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[64, 32, 1]` builds
    /// two layers 64→32→1.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        sizes: &[usize],
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(sizes.len() >= 2, "Mlp needs at least input and output sizes");
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Applies the MLP to `x` of shape `(..., sizes[0])`.
    pub fn forward(&self, fwd: &mut Fwd, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(fwd, h);
            if i != last {
                h = self.activation.apply(fwd, h);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use crate::params::ParamBinder;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 4, 3, &mut rng);
        assert_eq!(store.len(), 2);
        let tape = Tape::new();
        let mut binder = ParamBinder::new(&tape);
        let mut fwd = Fwd::new(&store, &mut binder);
        let x = tape.constant(Tensor::zeros([2, 5, 4]));
        let y = layer.forward(&mut fwd, x);
        assert_eq!(tape.shape_of(y).dims(), &[2, 5, 3]);
        // With zero input the output equals the bias (zeros).
        assert!(tape.value(y).allclose(&Tensor::zeros([2, 5, 3]), 0.0));
    }

    #[test]
    #[should_panic(expected = "expected last dim")]
    fn linear_rejects_wrong_input_dim() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 4, 3, &mut rng);
        let tape = Tape::new();
        let mut binder = ParamBinder::new(&tape);
        let mut fwd = Fwd::new(&store, &mut binder);
        let x = tape.constant(Tensor::zeros([2, 5]));
        let _ = layer.forward(&mut fwd, x);
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "xor", &[2, 8, 1], Activation::Tanh, &mut rng);
        let xs = Tensor::from_vec([4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Tensor::from_vec([4, 1], vec![0., 1., 1., 0.]);
        let mut opt = Adam::new(0.05);
        let mut final_loss = f32::INFINITY;
        for _ in 0..400 {
            let tape = Tape::new();
            let mut binder = ParamBinder::new(&tape);
            let mut fwd = Fwd::new(&store, &mut binder);
            let x = tape.constant(xs.clone());
            let h = mlp.forward(&mut fwd, x);
            let p = tape.sigmoid(h);
            let loss = tape.mse_loss(p, &ys);
            tape.backward(loss);
            final_loss = tape.value(loss).item();
            let grads = binder.grads();
            opt.step(&mut store, &grads);
        }
        assert!(final_loss < 0.02, "XOR loss did not converge: {final_loss}");
    }
}
