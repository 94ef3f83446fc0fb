//! Dilated causal 1-D convolution layer — the temporal correlation module of
//! the paper's ST blocks (Eq. 5) uses stacks of these with dilation 2^j.

use super::{init, Fwd};
use crate::params::{ParamId, ParamStore};
use crate::tape::Var;
use crate::tensor::Tensor;
use rand::Rng;

/// Dilated causal 1-D convolution over channels-last `(N, T, C_in)` inputs,
/// the `(N, T, H)` layout the model keeps its activations in.
pub struct Conv1d {
    w: ParamId,
    b: ParamId,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    dilation: usize,
}

impl Conv1d {
    /// Registers a new convolution's parameters under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        dilation: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(kernel >= 1 && dilation >= 1);
        let fan_in = in_channels * kernel;
        let w = store.register(
            format!("{name}.w"),
            init::he_uniform([out_channels, in_channels, kernel], fan_in, rng),
        );
        let b = store.register(format!("{name}.b"), Tensor::zeros([out_channels]));
        Conv1d { w, b, in_channels, out_channels, kernel, dilation }
    }

    /// Dilation rate.
    pub fn dilation(&self) -> usize {
        self.dilation
    }

    /// Receptive field length (`(kernel - 1) * dilation + 1`).
    pub fn receptive_field(&self) -> usize {
        (self.kernel - 1) * self.dilation + 1
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Applies the convolution to `x` of shape `(N, T, C_in)`, producing
    /// `(N, T, C_out)` (same length, causal left padding).
    pub fn forward(&self, fwd: &mut Fwd, x: Var) -> Var {
        let shape = fwd.shape_of(x);
        assert_eq!(shape.rank(), 3, "Conv1d input must be (N, T, C_in)");
        assert_eq!(shape.dim(2), self.in_channels, "Conv1d channel mismatch: {shape}");
        let w = fwd.p(self.w);
        let b = fwd.p(self.b);
        fwd.conv1d_ntc(x, w, Some(b), self.dilation)
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
    fn shapes_and_receptive_field() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "c", 3, 5, 2, 4, &mut rng);
        assert_eq!(conv.receptive_field(), 5);
        let tape = Tape::new();
        let mut binder = ParamBinder::new(&tape);
        let mut fwd = Fwd::new(&store, &mut binder);
        let x = tape.constant(Tensor::zeros([2, 12, 3]));
        let y = conv.forward(&mut fwd, x);
        assert_eq!(tape.shape_of(y).dims(), &[2, 12, 5]);
    }

    #[test]
    fn learns_a_moving_difference() {
        // Target: y[t] = x[t] - x[t-1] (a K=2 causal filter).
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "c", 1, 1, 2, 1, &mut rng);
        let t = 16;
        let x: Vec<f32> = (0..t).map(|i| ((i as f32) * 0.7).sin()).collect();
        let mut y = vec![0.0f32; t];
        for i in 1..t {
            y[i] = x[i] - x[i - 1];
        }
        y[0] = x[0];
        let xs = Tensor::from_vec([1, t, 1], x);
        let ys = Tensor::from_vec([1, t, 1], y);
        let mut opt = Adam::new(0.05);
        let mut loss_v = f32::INFINITY;
        for _ in 0..300 {
            let tape = Tape::new();
            let mut binder = ParamBinder::new(&tape);
            let mut fwd = Fwd::new(&store, &mut binder);
            let xv = tape.constant(xs.clone());
            let p = conv.forward(&mut fwd, xv);
            let loss = tape.mse_loss(p, &ys);
            tape.backward(loss);
            loss_v = tape.value(loss).item();
            let grads = binder.grads();
            opt.step(&mut store, &grads);
        }
        assert!(loss_v < 1e-3, "conv failed to learn difference filter: {loss_v}");
    }
}
