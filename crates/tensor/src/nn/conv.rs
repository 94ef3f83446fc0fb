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

    /// The input steps that the outputs at steps `outs` read: each `t` in
    /// `outs` shifted back by every tap, `t − (K − 1 − kk)·dilation`, where
    /// that is not before step 0. Sorted, without repeats.
    pub fn input_steps(&self, outs: &[usize]) -> Vec<usize> {
        let mut steps: Vec<usize> = outs
            .iter()
            .flat_map(|&t| (0..self.kernel).filter_map(move |kk| t.checked_sub(self.shift(kk))))
            .collect();
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// Tap `kk`'s causal shift `(K − 1 − kk)·dilation`.
    fn shift(&self, kk: usize) -> usize {
        (self.kernel - 1 - kk) * self.dilation
    }

    /// The convolution of a `t_len`-step series at the output steps `outs`
    /// only. `x` is `(N, L, C_in)` and holds the series at the `L` ascending
    /// steps `have`, which must include [`Conv1d::input_steps`]`(outs)`;
    /// the result is `(N, |outs|, C_out)`. With every step in and out it is
    /// [`Conv1d::forward`].
    ///
    /// Otherwise each output row's taps are gathered (`index_select0`, a
    /// zero row for taps before step 0) into the unfold row the full conv
    /// builds, and the rows multiply the `(K·C_in, C_out)` permuted weight
    /// in one `addmm`. Every product takes the one packed path, which
    /// computes each row alone, so every output row is bitwise the full
    /// conv's; and where the rows left out carry
    /// zero gradient, so is every gradient: the dropped terms were exact
    /// zeros in ascending sums. An input row's tap gradients add in output
    /// order here, in tap order in the full conv — the same sum for the
    /// two-tap kernels the models use, a reassociated one beyond that.
    pub fn forward_steps(
        &self,
        fwd: &mut Fwd,
        x: Var,
        have: &[usize],
        outs: &[usize],
        t_len: usize,
    ) -> Var {
        let shape = fwd.shape_of(x);
        assert_eq!(shape.rank(), 3, "Conv1d input must be (N, L, C_in)");
        assert_eq!(shape.dim(1), have.len(), "Conv1d input holds {} steps", have.len());
        if have.len() == t_len && outs.len() == t_len {
            return self.forward(fwd, x);
        }
        let (n, cin) = (shape.dim(0), self.in_channels);
        assert_eq!(shape.dim(2), cin, "Conv1d channel mismatch: {shape}");
        let pad = n * have.len();
        let mut idx = Vec::with_capacity(n * outs.len() * self.kernel);
        for b in 0..n {
            for &t in outs {
                idx.extend((0..self.kernel).map(|kk| match t.checked_sub(self.shift(kk)) {
                    Some(s) => {
                        let pos = have.binary_search(&s).expect("Conv1d input lacks a tap step");
                        b * have.len() + pos
                    }
                    None => pad,
                }));
            }
        }
        let mut rows = fwd.reshape(x, [pad, cin]);
        if idx.contains(&pad) {
            let zero = fwd.constant(Tensor::zeros([1, cin]));
            rows = fwd.concat(&[rows, zero], 0);
        }
        let taps = fwd.index_select0(rows, &idx);
        let taps = fwd.reshape(taps, [n * outs.len(), self.kernel * cin]);
        let w = fwd.p(self.w);
        let b = fwd.p(self.b);
        let wp = fwd.permute(w, &[2, 1, 0]);
        let wp = fwd.reshape(wp, [self.kernel * cin, self.out_channels]);
        let y = fwd.addmm(taps, wp, b);
        fwd.reshape(y, [n, outs.len(), self.out_channels])
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

    #[test]
    fn forward_steps_bitwise_matches_forward_rows() {
        // 100 series of 12 steps, two output steps kept: the pruned product
        // must match the full conv's rows, in value and in every gradient.
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "c", 4, 4, 2, 3, &mut rng);
        let (n, t) = (100, 12);
        let outs = [2usize, 11];
        assert_eq!(conv.input_steps(&outs), vec![2, 8, 11]);
        let x0 = crate::nn::randn([n, t, 4], 1.0, &mut rng);
        let all: Vec<usize> = (0..t).collect();
        let run = |pruned: bool| {
            let tape = Tape::new();
            let mut binder = ParamBinder::new(&tape);
            let mut fwd = Fwd::new(&store, &mut binder);
            let x = tape.leaf(x0.clone());
            let y = if pruned {
                conv.forward_steps(&mut fwd, x, &all, &outs, t)
            } else {
                let y = conv.forward(&mut fwd, x);
                let rows = tape.reshape(y, [n * t, 4]);
                let idx: Vec<usize> = (0..n).flat_map(|b| outs.map(|s| b * t + s)).collect();
                tape.index_select0(rows, &idx)
            };
            let loss = tape.sum_all(tape.square(y));
            tape.backward(loss);
            let mut bits = vec![tape.value(loss).item().to_bits()];
            let grads = binder.grads().into_iter().map(|(_, g)| g);
            for g in grads.chain(tape.grad(x)) {
                bits.extend(g.data().iter().map(|v| v.to_bits()));
            }
            bits
        };
        assert_eq!(run(true), run(false));
    }
}
