//! Gated recurrent unit cell — the temporal module of the INCREASE baseline.

use super::{init, Fwd};
use crate::params::{ParamId, ParamStore};
use crate::tape::Var;
use crate::tensor::Tensor;
use rand::Rng;

/// A single GRU cell. Sequences are processed by calling
/// [`GruCell::step`] per time step or [`GruCell::forward_seq`].
pub struct GruCell {
    // Gates packed per matrix: reset (r), update (z), candidate (n).
    wxr: ParamId,
    whr: ParamId,
    br: ParamId,
    wxz: ParamId,
    whz: ParamId,
    bz: ParamId,
    wxn: ParamId,
    whn: ParamId,
    bn: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Registers a GRU cell's parameters under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        fn mat(
            store: &mut ParamStore,
            name: &str,
            n: &str,
            rows: usize,
            cols: usize,
            rng: &mut impl Rng,
        ) -> ParamId {
            store.register(
                format!("{name}.{n}"),
                init::glorot_uniform([rows, cols], rows, cols, rng),
            )
        }
        let wxr = mat(store, name, "wxr", input_dim, hidden_dim, rng);
        let whr = mat(store, name, "whr", hidden_dim, hidden_dim, rng);
        let wxz = mat(store, name, "wxz", input_dim, hidden_dim, rng);
        let whz = mat(store, name, "whz", hidden_dim, hidden_dim, rng);
        let wxn = mat(store, name, "wxn", input_dim, hidden_dim, rng);
        let whn = mat(store, name, "whn", hidden_dim, hidden_dim, rng);
        let br = store.register(format!("{name}.br"), Tensor::zeros([hidden_dim]));
        let bz = store.register(format!("{name}.bz"), Tensor::zeros([hidden_dim]));
        let bn = store.register(format!("{name}.bn"), Tensor::zeros([hidden_dim]));
        GruCell { wxr, whr, br, wxz, whz, bz, wxn, whn, bn, input_dim, hidden_dim }
    }

    /// Hidden state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// One recurrence step. `x`: (B, input_dim), `h`: (B, hidden_dim).
    /// Returns the next hidden state (B, hidden_dim).
    ///
    /// The pointwise gate arithmetic runs through the fused tape ops
    /// [`crate::Tape::gru_rh`] and [`crate::Tape::gru_out`]; the gate affines
    /// stay composed because folding the bias into them would change
    /// floating-point addition order. The result is bit-identical to
    /// [`GruCell::step_reference`].
    pub fn step(&self, fwd: &mut Fwd, x: Var, h: Var) -> Var {
        let ar = self.affine(fwd, self.wxr, self.whr, self.br, x, h);
        let az = self.affine(fwd, self.wxz, self.whz, self.bz, x, h);
        // rh = sigmoid(ar) ⊙ h, fused
        let rh = fwd.gru_rh(ar, h);
        // candidate pre-activation stays composed (see the doc comment)
        let s = {
            let wxv = fwd.p(self.wxn);
            let whv = fwd.p(self.whn);
            let bv = fwd.p(self.bn);
            let xa = fwd.matmul(x, wxv);
            let ha = fwd.matmul(rh, whv);
            let s = fwd.add(xa, ha);
            fwd.add(s, bv)
        };
        // h' = (1 - sigmoid(az)) ⊙ tanh(s) + sigmoid(az) ⊙ h, fused
        fwd.gru_out(az, s, h)
    }

    /// Pre-activation `x·Wx + h·Wh + b`. Shared verbatim by [`GruCell::step`]
    /// and [`GruCell::step_reference`] so the fused step cannot drift from
    /// the composed one.
    fn affine(&self, fwd: &mut Fwd, wx: ParamId, wh: ParamId, b: ParamId, x: Var, h: Var) -> Var {
        let wxv = fwd.p(wx);
        let whv = fwd.p(wh);
        let bv = fwd.p(b);
        let xa = fwd.matmul(x, wxv);
        let ha = fwd.matmul(h, whv);
        let s = fwd.add(xa, ha);
        fwd.add(s, bv)
    }

    /// Reference step built entirely from composed primitives: the oracle the
    /// fused [`GruCell::step`] is tested bitwise against. Never used at run
    /// time.
    #[doc(hidden)]
    pub fn step_reference(&self, fwd: &mut Fwd, x: Var, h: Var) -> Var {
        let r = {
            let a = self.affine(fwd, self.wxr, self.whr, self.br, x, h);
            fwd.sigmoid(a)
        };
        let z = {
            let a = self.affine(fwd, self.wxz, self.whz, self.bz, x, h);
            fwd.sigmoid(a)
        };
        // candidate uses the reset-gated hidden state
        let rh = fwd.mul(r, h);
        let n = {
            let wxv = fwd.p(self.wxn);
            let whv = fwd.p(self.whn);
            let bv = fwd.p(self.bn);
            let xa = fwd.matmul(x, wxv);
            let ha = fwd.matmul(rh, whv);
            let s = fwd.add(xa, ha);
            let s = fwd.add(s, bv);
            fwd.tanh(s)
        };
        // h' = (1 - z) * n + z * h
        let one_t = Tensor::ones(fwd.shape_of(z));
        let one = fwd.constant(one_t);
        let omz = fwd.sub(one, z);
        let a = fwd.mul(omz, n);
        let b = fwd.mul(z, h);
        fwd.add(a, b)
    }

    /// Runs the cell over a sequence `x` of shape (B, T, input_dim) starting
    /// from a zero hidden state; returns the final hidden state (B, hidden).
    pub fn forward_seq(&self, fwd: &mut Fwd, x: Var) -> Var {
        let shape = fwd.shape_of(x);
        assert_eq!(shape.rank(), 3, "GRU input must be (B, T, D)");
        let (b, t_len, d) = (shape.dim(0), shape.dim(1), shape.dim(2));
        assert_eq!(d, self.input_dim, "GRU input dim mismatch");
        let mut h = fwd.constant(Tensor::zeros([b, self.hidden_dim]));
        for t_i in 0..t_len {
            let xt = fwd.slice(x, 1, t_i, t_i + 1);
            let xt = fwd.reshape(xt, [b, d]);
            h = self.step(fwd, xt, h);
        }
        h
    }

    /// Like [`GruCell::forward_seq`] but returns all hidden states stacked as
    /// (B, T, hidden).
    pub fn forward_seq_all(&self, fwd: &mut Fwd, x: Var) -> Var {
        let shape = fwd.shape_of(x);
        let (b, t_len, d) = (shape.dim(0), shape.dim(1), shape.dim(2));
        assert_eq!(d, self.input_dim, "GRU input dim mismatch");
        let mut h = fwd.constant(Tensor::zeros([b, self.hidden_dim]));
        let mut outs = Vec::with_capacity(t_len);
        for t_i in 0..t_len {
            let xt = fwd.slice(x, 1, t_i, t_i + 1);
            let xt = fwd.reshape(xt, [b, d]);
            h = self.step(fwd, xt, h);
            outs.push(fwd.reshape(h, [b, 1, self.hidden_dim]));
        }
        fwd.concat(&outs, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::Linear;
    use crate::optim::{Adam, Optimizer};
    use crate::params::ParamBinder;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "g", 3, 6, &mut rng);
        let tape = Tape::new();
        let mut binder = ParamBinder::new(&tape);
        let mut fwd = Fwd::new(&store, &mut binder);
        let x = tape.constant(Tensor::zeros([4, 5, 3]));
        let h = gru.forward_seq(&mut fwd, x);
        assert_eq!(tape.shape_of(h).dims(), &[4, 6]);
        let all = gru.forward_seq_all(&mut fwd, x);
        assert_eq!(tape.shape_of(all).dims(), &[4, 5, 6]);
    }

    #[test]
    fn learns_to_remember_first_input() {
        // Task: output the first element of the sequence — requires memory.
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "g", 1, 8, &mut rng);
        let head = Linear::new(&mut store, "head", 8, 1, &mut rng);
        let b = 8;
        let t_len = 5;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..b {
            let first = (i as f32) / (b as f32) - 0.5;
            xs.push(first);
            for j in 1..t_len {
                xs.push(((i * 7 + j * 3) % 10) as f32 / 10.0 - 0.5);
            }
            ys.push(first);
        }
        let x = Tensor::from_vec([b, t_len, 1], xs);
        let y = Tensor::from_vec([b, 1], ys);
        let mut opt = Adam::new(0.02);
        let mut loss_v = f32::INFINITY;
        for _ in 0..300 {
            let tape = Tape::new();
            let mut binder = ParamBinder::new(&tape);
            let mut fwd = Fwd::new(&store, &mut binder);
            let xv = tape.constant(x.clone());
            let h = gru.forward_seq(&mut fwd, xv);
            let p = head.forward(&mut fwd, h);
            let loss = tape.mse_loss(p, &y);
            tape.backward(loss);
            loss_v = tape.value(loss).item();
            let grads = binder.grads();
            opt.step(&mut store, &grads);
        }
        assert!(loss_v < 5e-3, "GRU failed to memorize first input: {loss_v}");
    }
}
