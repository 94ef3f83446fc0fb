//! Bit-identity and gradient correctness for the fused training-step
//! kernels (`addmm`, the GRU-gate tape ops and the gated GCN node).
//!
//! The contract under test is the one `DESIGN.md` ("Memory model") promises:
//! the fused layers produce **bitwise identical** results to the composed
//! primitives they replace — same forward values, same gradients — and a
//! multi-step training trajectory is bitwise identical for any worker-thread
//! count. The fused tape ops are additionally checked against numeric
//! finite-difference gradients.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use stsm_tensor::nn::{uniform, Fwd, GruCell, Linear};
use stsm_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use stsm_tensor::simd;
use stsm_tensor::{
    pool, DType, DenseLinMap, InferSession, LinMap, ParamBinder, ParamId, ParamStore, Tape, Tensor,
    Var,
};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Forward + backward through a Linear layer, either through
/// `Linear::forward` (fused `addmm`) or through `matmul` + `add` on the same
/// parameters; returns output and grad bits.
fn linear_pass(fused: bool) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let layer = Linear::new(&mut store, "fc", 5, 3, &mut rng);
    let ids: Vec<_> = store.iter().map(|(id, _, _)| id).collect();
    let x = uniform([4, 5], -1.0, 1.0, &mut rng);
    let tape = Tape::new();
    let mut binder = ParamBinder::new(&tape);
    let mut fwd = Fwd::new(&store, &mut binder);
    let xv = tape.constant(x);
    let y = if fused {
        layer.forward(&mut fwd, xv)
    } else {
        let w = fwd.p(ids[0]);
        let y = fwd.matmul(xv, w);
        let b = fwd.p(ids[1]);
        fwd.add(y, b)
    };
    let loss = tape.sum_all(y);
    tape.backward(loss);
    let out = bits(&tape.value(y));
    let grads = binder.grads().iter().map(|(_, g)| bits(g)).collect();
    (out, grads)
}

#[test]
fn linear_fused_addmm_bitwise_matches_composed() {
    assert_eq!(linear_pass(true), linear_pass(false));
}

/// Forward + backward through a GRU over a short sequence, stepping with the
/// fused `GruCell::step` or the composed `GruCell::step_reference`.
fn gru_pass(fused: bool) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(13);
    let mut store = ParamStore::new();
    let gru = GruCell::new(&mut store, "g", 3, 6, &mut rng);
    let x = uniform([4, 5, 3], -1.0, 1.0, &mut rng);
    let tape = Tape::new();
    let mut binder = ParamBinder::new(&tape);
    let mut fwd = Fwd::new(&store, &mut binder);
    let xv = tape.constant(x);
    let mut h: Var = fwd.constant(Tensor::zeros([4, 6]));
    for t in 0..5 {
        let xt = fwd.slice(xv, 1, t, t + 1);
        let xt = fwd.reshape(xt, [4, 3]);
        h = if fused { gru.step(&mut fwd, xt, h) } else { gru.step_reference(&mut fwd, xt, h) };
    }
    let loss = tape.sum_all(h);
    tape.backward(loss);
    let out = bits(&tape.value(h));
    let grads = binder.grads().iter().map(|(_, g)| bits(g)).collect();
    (out, grads)
}

#[test]
fn gru_fused_gates_bitwise_match_composed() {
    assert_eq!(gru_pass(true), gru_pass(false));
}

/// Central-difference gradient check for a scalar-valued function of flat
/// input vectors. `f` maps the flattened inputs to the loss; `analytic` is
/// the tape gradient for input `which`.
fn gradcheck(f: &dyn Fn(&[Vec<f32>]) -> f32, inputs: &[Vec<f32>], which: usize, analytic: &Tensor) {
    let eps = 1e-2f32;
    for i in 0..inputs[which].len() {
        let mut plus = inputs.to_vec();
        plus[which][i] += eps;
        let mut minus = inputs.to_vec();
        minus[which][i] -= eps;
        let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
        let a = analytic.data()[i];
        assert!(
            (a - numeric).abs() <= 1e-2 * (1.0f32).max(a.abs()),
            "input {which} element {i}: analytic {a} vs numeric {numeric}"
        );
    }
}

#[test]
fn addmm_gradcheck() {
    let mut rng = StdRng::seed_from_u64(29);
    let x = uniform([2, 3], -1.0, 1.0, &mut rng);
    let w = uniform([3, 4], -1.0, 1.0, &mut rng);
    let b = uniform([4], -1.0, 1.0, &mut rng);
    let c = uniform([2, 4], -1.0, 1.0, &mut rng);
    let inputs = vec![x.data().to_vec(), w.data().to_vec(), b.data().to_vec()];
    let f = {
        let c = c.clone();
        move |ins: &[Vec<f32>]| {
            let tape = Tape::new();
            let xv = tape.constant(Tensor::from_vec([2, 3], ins[0].clone()));
            let wv = tape.constant(Tensor::from_vec([3, 4], ins[1].clone()));
            let bv = tape.constant(Tensor::from_vec([4], ins[2].clone()));
            let y = tape.addmm(xv, wv, bv);
            let cv = tape.constant(c.clone());
            let p = tape.mul(y, cv);
            tape.value(tape.sum_all(p)).item()
        }
    };
    // Analytic gradients from the fused op.
    let tape = Tape::new();
    let xv = tape.leaf(x);
    let wv = tape.leaf(w);
    let bv = tape.leaf(b);
    let y = tape.addmm(xv, wv, bv);
    let cv = tape.constant(c);
    let p = tape.mul(y, cv);
    let loss = tape.sum_all(p);
    tape.backward(loss);
    gradcheck(&f, &inputs, 0, &tape.grad(xv).unwrap());
    gradcheck(&f, &inputs, 1, &tape.grad(wv).unwrap());
    gradcheck(&f, &inputs, 2, &tape.grad(bv).unwrap());
}

#[test]
fn gru_gate_ops_gradcheck() {
    let mut rng = StdRng::seed_from_u64(31);
    let shapes = [2usize, 4];
    let ar = uniform(shapes, -1.0, 1.0, &mut rng);
    let az = uniform(shapes, -1.0, 1.0, &mut rng);
    let s = uniform(shapes, -1.0, 1.0, &mut rng);
    let h = uniform(shapes, -1.0, 1.0, &mut rng);
    let c = uniform(shapes, -1.0, 1.0, &mut rng);

    // gru_rh(ar, h) = sigmoid(ar) ⊙ h
    let inputs = vec![ar.data().to_vec(), h.data().to_vec()];
    let f = {
        let c = c.clone();
        move |ins: &[Vec<f32>]| {
            let tape = Tape::new();
            let arv = tape.constant(Tensor::from_vec([2, 4], ins[0].clone()));
            let hv = tape.constant(Tensor::from_vec([2, 4], ins[1].clone()));
            let y = tape.gru_rh(arv, hv);
            let cv = tape.constant(c.clone());
            tape.value(tape.sum_all(tape.mul(y, cv))).item()
        }
    };
    let tape = Tape::new();
    let arv = tape.leaf(ar.clone());
    let hv = tape.leaf(h.clone());
    let y = tape.gru_rh(arv, hv);
    let cv = tape.constant(c.clone());
    let loss = tape.sum_all(tape.mul(y, cv));
    tape.backward(loss);
    gradcheck(&f, &inputs, 0, &tape.grad(arv).unwrap());
    gradcheck(&f, &inputs, 1, &tape.grad(hv).unwrap());

    // gru_out(az, s, h) = (1 - sigmoid(az)) ⊙ tanh(s) + sigmoid(az) ⊙ h
    let inputs = vec![az.data().to_vec(), s.data().to_vec(), h.data().to_vec()];
    let f = {
        let c = c.clone();
        move |ins: &[Vec<f32>]| {
            let tape = Tape::new();
            let azv = tape.constant(Tensor::from_vec([2, 4], ins[0].clone()));
            let sv = tape.constant(Tensor::from_vec([2, 4], ins[1].clone()));
            let hv = tape.constant(Tensor::from_vec([2, 4], ins[2].clone()));
            let y = tape.gru_out(azv, sv, hv);
            let cv = tape.constant(c.clone());
            tape.value(tape.sum_all(tape.mul(y, cv))).item()
        }
    };
    let tape = Tape::new();
    let azv = tape.leaf(az);
    let sv = tape.leaf(s);
    let hv = tape.leaf(h);
    let y = tape.gru_out(azv, sv, hv);
    let cv = tape.constant(c);
    let loss = tape.sum_all(tape.mul(y, cv));
    tape.backward(loss);
    gradcheck(&f, &inputs, 0, &tape.grad(azv).unwrap());
    gradcheck(&f, &inputs, 1, &tape.grad(sv).unwrap());
    gradcheck(&f, &inputs, 2, &tape.grad(hv).unwrap());
}

/// Six Adam steps on a GRU + Linear head regression task; returns the loss
/// trajectory as raw f32 bit patterns.
fn train_trajectory(threads: usize) -> Vec<u32> {
    pool::with_max_threads(threads, || {
        let mut rng = StdRng::seed_from_u64(99);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "g", 2, 8, &mut rng);
        let head = Linear::new(&mut store, "head", 8, 1, &mut rng);
        let x = uniform([6, 4, 2], -1.0, 1.0, &mut rng);
        let y = uniform([6, 1], -1.0, 1.0, &mut rng);
        let mut opt = Adam::new(0.01);
        let mut losses = Vec::with_capacity(6);
        for _ in 0..6 {
            let (loss_v, mut grads) = {
                let tape = Tape::new();
                let mut binder = ParamBinder::new(&tape);
                let mut fwd = Fwd::new(&store, &mut binder);
                let xv = tape.constant(x.clone());
                let hidden = gru.forward_seq(&mut fwd, xv);
                let p = head.forward(&mut fwd, hidden);
                let loss = tape.mse_loss(p, &y);
                tape.backward(loss);
                (tape.value(loss).item(), binder.grads())
            };
            clip_grad_norm(&mut grads, 5.0);
            opt.step(&mut store, &grads);
            losses.push(loss_v.to_bits());
        }
        losses
    })
}

#[test]
fn training_trajectory_bitwise_identical_across_threads() {
    let reference = train_trajectory(1);
    assert_eq!(reference.len(), 6);
    assert_eq!(train_trajectory(3), reference, "trajectory diverged for threads=3");
}

// ------------------------------------------------------- gated GCN node

/// One gated GCN layer's inputs: a graph of `n` nodes over `t` steps, `k`
/// input and `h` output features. The biases are drawn at random (a layer
/// initializes them to zero, which would hide a dropped bias).
struct GcnCase {
    store: ParamStore,
    value: Linear,
    gate: Linear,
    map: Arc<dyn LinMap>,
    z: Tensor,
    /// Weights of the scalar loss `Σ out ⊙ c`, so the output gradient is
    /// not uniform.
    c: Tensor,
}

fn gcn_case(n: usize, t: usize, k: usize, h: usize, seed: u64) -> GcnCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let value = Linear::new(&mut store, "gcn.v", k, h, &mut rng);
    let gate = Linear::new(&mut store, "gcn.g", k, h, &mut rng);
    // Registration order: W_v, b_v, W_g, b_g.
    for bias in [ParamId(1), ParamId(3)] {
        store.set(bias, uniform([h], -0.5, 0.5, &mut rng));
    }
    // A sparse-ish row-normalized adjacency with self loops.
    let mut adj = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            if i == j || (i * 7 + j * 3) % 5 == 0 {
                adj[i * n + j] = 1.0 / (1.0 + (i + j) as f32 % 3.0);
            }
        }
    }
    let map: Arc<dyn LinMap> = Arc::new(DenseLinMap::new(Tensor::from_vec([n, n], adj)));
    let z = uniform([n, t, k], -1.0, 1.0, &mut rng);
    let c = uniform([n, t, h], -1.0, 1.0, &mut rng);
    GcnCase { store, value, gate, map, z, c }
}

/// The composed chain the fused node replaces.
fn gcn_composed(fwd: &mut Fwd, case: &GcnCase, z: Var) -> Var {
    let agg = fwd.linmap(Arc::clone(&case.map), z);
    let v = case.value.forward(fwd, agg);
    let g = case.gate.forward(fwd, agg);
    let gs = fwd.sigmoid(g);
    fwd.mul(v, gs)
}

fn gcn_fused(fwd: &mut Fwd, case: &GcnCase, z: Var) -> Var {
    let value = case.value.bind(fwd);
    let gate = case.gate.bind(fwd);
    fwd.gated_gcn(Arc::clone(&case.map), z, value, gate)
}

/// Train-mode forward + backward of one layer: output bits, then the
/// gradient bits of z and of every parameter (W_v, b_v, W_g, b_g).
fn gcn_train(case: &GcnCase, fused: bool) -> Vec<Vec<u32>> {
    let tape = Tape::new();
    let mut binder = ParamBinder::new(&tape);
    let mut fwd = Fwd::new(&case.store, &mut binder);
    let z = tape.leaf(case.z.clone());
    let out = if fused { gcn_fused(&mut fwd, case, z) } else { gcn_composed(&mut fwd, case, z) };
    let cv = tape.constant(case.c.clone());
    let loss = tape.sum_all(tape.mul(out, cv));
    tape.backward(loss);
    let mut res = vec![bits(&tape.value(out)), bits(&tape.grad(z).expect("z gradient"))];
    let grads = binder.grads();
    assert_eq!(grads.len(), 4, "every layer parameter must receive a gradient");
    res.extend(grads.iter().map(|(_, g)| bits(g)));
    res
}

/// Infer-mode forward of one layer over `store` (f32 or quantized).
fn gcn_infer(case: &GcnCase, store: &ParamStore, fused: bool) -> Vec<u32> {
    let mut session = InferSession::new(store);
    let mut fwd = Fwd::infer(store, &mut session);
    let z = fwd.constant(case.z.clone());
    let out = if fused { gcn_fused(&mut fwd, case, z) } else { gcn_composed(&mut fwd, case, z) };
    bits(&fwd.value(out))
}

/// `(n, t, k, h)` shapes from tiny graphs (under 2^13 MACs per weight) to
/// ones past 2^15, with `h` below, at, between and above multiples of the
/// 16-column panel.
const GCN_SHAPES: [(usize, usize, usize, usize); 8] = [
    (4, 3, 8, 8),
    (5, 2, 16, 16),
    (9, 7, 8, 8),
    (40, 20, 8, 8),
    (12, 12, 16, 16),
    (10, 9, 24, 24),
    (7, 8, 32, 32),
    (11, 13, 12, 20),
];

#[test]
fn gated_gcn_node_bitwise_matches_composed_chain() {
    for (i, shape) in GCN_SHAPES.iter().enumerate() {
        let &(n, t, k, h) = shape;
        let case = gcn_case(n, t, k, h, 40 + i as u64);
        for lvl in simd::supported_levels() {
            let run = |threads: usize, fused: bool| {
                pool::with_max_threads(threads, || {
                    simd::with_level(lvl, || gcn_train(&case, fused))
                })
            };
            let reference = run(1, false);
            for threads in [1, 3] {
                let got = run(threads, true);
                for (j, what) in ["out", "dz", "dW_v", "db_v", "dW_g", "db_g"].iter().enumerate() {
                    assert_eq!(
                        got[j], reference[j],
                        "{what} differs at {shape:?}, {lvl:?}, {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn gated_gcn_infer_bitwise_matches_train_and_composed() {
    for (i, shape) in GCN_SHAPES.iter().enumerate() {
        let &(n, t, k, h) = shape;
        let case = gcn_case(n, t, k, h, 60 + i as u64);
        for lvl in simd::supported_levels() {
            let (train, fused, composed) = simd::with_level(lvl, || {
                (
                    gcn_train(&case, true).swap_remove(0),
                    gcn_infer(&case, &case.store, true),
                    gcn_infer(&case, &case.store, false),
                )
            });
            assert_eq!(fused, train, "Infer vs Train at {shape:?}, {lvl:?}");
            assert_eq!(fused, composed, "fused vs composed Infer at {shape:?}, {lvl:?}");
        }
    }
}

#[test]
fn gated_gcn_half_weights_bitwise_match_composed_infer() {
    // One more shape between 2^13 and 2^15 MACs per weight.
    let mut shapes = GCN_SHAPES.to_vec();
    shapes.push((8, 8, 16, 16));
    for (i, shape) in shapes.iter().enumerate() {
        let &(n, t, k, h) = shape;
        let case = gcn_case(n, t, k, h, 80 + i as u64);
        for dt in [DType::F16, DType::Bf16] {
            let q = case.store.to_dtype(dt);
            for lvl in simd::supported_levels() {
                let (fused, composed) = simd::with_level(lvl, || {
                    (gcn_infer(&case, &q, true), gcn_infer(&case, &q, false))
                });
                assert_eq!(fused, composed, "{dt} weights at {shape:?}, {lvl:?}");
            }
        }
    }
}

#[test]
fn gated_gcn_gradcheck() {
    let (n, t, k, h) = (3, 2, 3, 4);
    let case = gcn_case(n, t, k, h, 97);
    let [wv, bv, wg, bg] = [0, 1, 2, 3].map(|i| case.store.get(ParamId(i)));
    let inputs = vec![
        case.z.data().to_vec(),
        wv.data().to_vec(),
        bv.data().to_vec(),
        wg.data().to_vec(),
        bg.data().to_vec(),
    ];
    let dims: [Vec<usize>; 5] = [vec![n, t, k], vec![k, h], vec![h], vec![k, h], vec![h]];
    let node = |tape: &Tape, vars: &[Var]| {
        let out =
            tape.gated_gcn(Arc::clone(&case.map), vars[0], (vars[1], vars[2]), (vars[3], vars[4]));
        let cv = tape.constant(case.c.clone());
        tape.sum_all(tape.mul(out, cv))
    };
    let f = |ins: &[Vec<f32>]| {
        let tape = Tape::new();
        let vars: Vec<Var> = ins
            .iter()
            .zip(&dims)
            .map(|(d, s)| tape.constant(Tensor::from_vec(s.clone(), d.clone())))
            .collect();
        let loss = node(&tape, &vars);
        tape.value(loss).item()
    };
    let tape = Tape::new();
    let vars: Vec<Var> = inputs
        .iter()
        .zip(&dims)
        .map(|(d, s)| tape.leaf(Tensor::from_vec(s.clone(), d.clone())))
        .collect();
    let loss = node(&tape, &vars);
    tape.backward(loss);
    for (which, &v) in vars.iter().enumerate() {
        gradcheck(&f, &inputs, which, &tape.grad(v).expect("gradient"));
    }
}
