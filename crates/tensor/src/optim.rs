//! First-order optimizers: SGD (with momentum) and Adam, plus global-norm
//! gradient clipping. The paper trains all models with Adam at lr 0.01.
//!
//! Optimizer state (momentum / Adam moments) lives in dense `Vec<f32>`
//! buffers indexed by [`ParamId`], grown lazily on first use — no hashing on
//! the hot path — and parameters are updated in place through
//! [`ParamStore::data_mut`] in a single fused pass per parameter. The
//! arithmetic (expressions and evaluation order) is unchanged from the
//! original map-based implementation, so results are bit-identical (see
//! `DESIGN.md`, "Memory model").

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts calls to [`clip_grad_norm`] that observed a non-finite global norm
/// (NaN or ±inf gradients) and therefore skipped scaling.
static NON_FINITE_GRAD_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Number of times [`clip_grad_norm`] encountered a non-finite gradient norm
/// since process start. A monitoring hook: training loops can poll this to
/// detect divergence instead of silently continuing with NaN weights.
pub fn non_finite_grad_events() -> u64 {
    NON_FINITE_GRAD_EVENTS.load(Ordering::Relaxed)
}

/// Clips gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
///
/// If the norm is non-finite (some gradient contains NaN or ±inf), scaling
/// by `max_norm / norm` would either poison every parameter with NaN or
/// zero the step entirely, so the gradients are returned **unscaled** and
/// the event is counted (see [`non_finite_grad_events`]). Debug builds also
/// log the event to stderr.
pub fn clip_grad_norm(grads: &mut [(ParamId, Tensor)], max_norm: f32) -> f32 {
    let total: f32 = grads.iter().map(|(_, g)| g.sq_norm()).sum::<f32>().sqrt();
    if !total.is_finite() {
        NON_FINITE_GRAD_EVENTS.fetch_add(1, Ordering::Relaxed);
        if cfg!(debug_assertions) {
            eprintln!("clip_grad_norm: non-finite gradient norm {total}; clipping skipped");
        }
        return total;
    }
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for (_, g) in grads.iter_mut() {
            for v in g.data_mut() {
                *v *= scale;
            }
        }
    }
    total
}

/// Returns the dense state slot for `pid`, growing the table and
/// zero-initializing the slot on first use.
fn state_slot(state: &mut Vec<Vec<f32>>, pid: ParamId, n: usize) -> &mut [f32] {
    if state.len() <= pid.0 {
        state.resize_with(pid.0 + 1, Vec::new);
    }
    let slot = &mut state[pid.0];
    if slot.is_empty() {
        *slot = vec![0.0; n];
    }
    debug_assert_eq!(slot.len(), n);
    slot
}

/// A gradient-based parameter updater.
pub trait Optimizer {
    /// Applies one update step given `(param, grad)` pairs.
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]);
    /// Current learning rate.
    fn lr(&self) -> f32;
    /// Sets the learning rate (for schedules).
    fn set_lr(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional momentum and weight decay.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// Adds classical momentum.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Adds L2 weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        for (pid, grad) in grads {
            let n = grad.numel();
            let pdata = store.data_mut(*pid);
            debug_assert_eq!(pdata.len(), n);
            if self.momentum > 0.0 {
                let vdata = state_slot(&mut self.velocity, *pid, n);
                for ((p, v), &gi) in pdata.iter_mut().zip(vdata.iter_mut()).zip(grad.data()) {
                    let g = gi + self.weight_decay * *p;
                    *v = self.momentum * *v + g;
                    *p -= self.lr * *v;
                }
            } else {
                for (p, &gi) in pdata.iter_mut().zip(grad.data()) {
                    let g = gi + self.weight_decay * *p;
                    *p -= self.lr * g;
                }
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba, 2015) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with the given learning rate and default betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Overrides the exponential decay rates.
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// Adds L2 weight decay (coupled, as in the original Adam).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshot of the optimizer's mutable state (moments + step count) for
    /// checkpointing. Hyper-parameters (lr, betas, eps, weight decay) are
    /// configuration, not state — the restoring side re-creates them.
    pub fn state(&self) -> AdamState {
        AdamState { t: self.t, m: self.m.clone(), v: self.v.clone() }
    }

    /// Restores state captured by [`Adam::state`], after validating it
    /// against the parameter store it will update. A subsequent training
    /// step continues bit-identically to the run that took the snapshot.
    pub fn load_state(&mut self, state: AdamState, store: &ParamStore) -> Result<(), String> {
        state.validate(store)?;
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
        Ok(())
    }
}

/// Serializable Adam state: first/second moments (dense, [`ParamId`]-indexed;
/// empty slots mean "not yet touched") plus the bias-correction step count.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AdamState {
    /// Steps taken (drives bias correction).
    pub t: u64,
    /// First-moment estimates per parameter.
    pub m: Vec<Vec<f32>>,
    /// Second-moment estimates per parameter.
    pub v: Vec<Vec<f32>>,
}

impl AdamState {
    /// Checks that the moment tables are consistent with `store`: no slot
    /// beyond the store's parameter count, every non-empty slot sized like
    /// its parameter, and all values finite.
    pub fn validate(&self, store: &ParamStore) -> Result<(), String> {
        for (label, table) in [("m", &self.m), ("v", &self.v)] {
            if table.len() > store.len() {
                return Err(format!(
                    "adam {label}-table covers {} parameters but the store has {}",
                    table.len(),
                    store.len()
                ));
            }
            for (i, slot) in table.iter().enumerate() {
                if slot.is_empty() {
                    continue;
                }
                let expected = store.get(crate::params::ParamId(i)).numel();
                if slot.len() != expected {
                    return Err(format!(
                        "adam {label}[{i}] has {} scalars, parameter '{}' has {expected}",
                        slot.len(),
                        store.name(crate::params::ParamId(i))
                    ));
                }
                if slot.iter().any(|x| !x.is_finite()) {
                    return Err(format!("adam {label}[{i}] contains non-finite values"));
                }
            }
        }
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (pid, grad) in grads {
            let n = grad.numel();
            let pdata = store.data_mut(*pid);
            debug_assert_eq!(pdata.len(), n);
            let mdata = state_slot(&mut self.m, *pid, n);
            let vdata = state_slot(&mut self.v, *pid, n);
            for (((p, m), v), &gi) in
                pdata.iter_mut().zip(mdata.iter_mut()).zip(vdata.iter_mut()).zip(grad.data())
            {
                let g = gi + self.weight_decay * *p;
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *p -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamBinder;
    use crate::tape::Tape;

    /// One optimization step on f(w) = (w - 3)^2 must move w toward 3.
    fn quadratic_step(opt: &mut dyn Optimizer, store: &mut ParamStore, w: ParamId) -> f32 {
        let tape = Tape::new();
        let mut binder = ParamBinder::new(&tape);
        let wv = binder.var(store, w);
        let c = tape.constant(Tensor::scalar(3.0));
        let d = tape.sub(wv, c);
        let loss = tape.square(d);
        tape.backward(loss);
        let grads = binder.grads();
        opt.step(store, &grads);
        tape.value(loss).item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(0.0));
        let mut opt = Sgd::new(0.1);
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            last = quadratic_step(&mut opt, &mut store, w);
        }
        assert!(last < 1e-6, "loss {last}");
        assert!((store.get(w).item() - 3.0).abs() < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(10.0));
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        for _ in 0..200 {
            quadratic_step(&mut opt, &mut store, w);
        }
        assert!((store.get(w).item() - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(-5.0));
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            quadratic_step(&mut opt, &mut store, w);
        }
        assert!((store.get(w).item() - 3.0).abs() < 1e-2, "w = {}", store.get(w).item());
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(1.0));
        // Zero gradient + weight decay should shrink |w|.
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        let grads = vec![(w, Tensor::scalar(0.0))];
        opt.step(&mut store, &grads);
        assert!((store.get(w).item() - 0.95).abs() < 1e-6);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut grads = vec![
            (ParamId(0), Tensor::from_vec([2], vec![3.0, 0.0])),
            (ParamId(1), Tensor::from_vec([1], vec![4.0])),
        ];
        let norm = clip_grad_norm(&mut grads, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let new_norm: f32 = grads.iter().map(|(_, g)| g.sq_norm()).sum::<f32>().sqrt();
        assert!((new_norm - 1.0).abs() < 1e-5);
        // Under the limit: untouched.
        let mut small = vec![(ParamId(0), Tensor::from_vec([1], vec![0.5]))];
        clip_grad_norm(&mut small, 1.0);
        assert_eq!(small[0].1.data(), &[0.5]);
    }

    #[test]
    fn adam_state_roundtrip_resumes_bit_identically() {
        // Train A for 10 steps. Train B for 5 steps, snapshot, restore into a
        // fresh optimizer, run 5 more — parameters must match A bit-for-bit.
        let run = |split: Option<usize>| {
            let mut store = ParamStore::new();
            let w = store.register("w", Tensor::scalar(-5.0));
            let mut opt = Adam::new(0.1);
            for step in 0..10 {
                if split == Some(step) {
                    let state = opt.state();
                    let mut fresh = Adam::new(0.1);
                    fresh.load_state(state, &store).expect("valid state");
                    opt = fresh;
                }
                quadratic_step(&mut opt, &mut store, w);
            }
            store.get(w).item()
        };
        let uninterrupted = run(None);
        let resumed = run(Some(5));
        assert_eq!(uninterrupted.to_bits(), resumed.to_bits());
    }

    #[test]
    fn adam_state_validation_rejects_garbage() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::from_vec([2], vec![0.0, 0.0]));
        let mut opt = Adam::new(0.1);

        // Too many slots.
        let bad = AdamState { t: 1, m: vec![vec![0.0; 2], vec![0.0; 2]], v: Vec::new() };
        assert!(opt.load_state(bad, &store).is_err());
        // Wrong slot size.
        let bad = AdamState { t: 1, m: vec![vec![0.0; 3]], v: Vec::new() };
        assert!(opt.load_state(bad, &store).is_err());
        // Non-finite moments.
        let bad = AdamState { t: 1, m: vec![vec![0.0, f32::NAN]], v: Vec::new() };
        assert!(opt.load_state(bad, &store).is_err());
        // A valid state loads.
        let ok = AdamState { t: 3, m: vec![vec![0.1, 0.2]], v: vec![vec![0.3, 0.4]] };
        opt.load_state(ok, &store).expect("consistent state");
        assert_eq!(opt.steps(), 3);
    }

    #[test]
    fn clip_grad_norm_skips_non_finite() {
        let before = non_finite_grad_events();
        let mut grads = vec![
            (ParamId(0), Tensor::from_vec([2], vec![f32::NAN, 1.0])),
            (ParamId(1), Tensor::from_vec([1], vec![4.0])),
        ];
        let norm = clip_grad_norm(&mut grads, 1.0);
        assert!(norm.is_nan(), "norm should report the non-finite value, got {norm}");
        // Gradients are returned unscaled — in particular the finite one.
        assert_eq!(grads[1].1.data(), &[4.0]);
        assert!(non_finite_grad_events() > before, "event must be counted");

        let mut inf = vec![(ParamId(0), Tensor::from_vec([1], vec![f32::INFINITY]))];
        let norm = clip_grad_norm(&mut inf, 1.0);
        assert!(norm.is_infinite());
        assert!(inf[0].1.data()[0].is_infinite());
    }
}
