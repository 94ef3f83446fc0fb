//! Bitwise Train/Infer equivalence for every nn layer.
//!
//! The contract under test is the one `DESIGN.md` ("Execution modes")
//! promises: for the same parameters and inputs, an Infer-mode forward
//! ([`Fwd::infer`]) produces **bit-identical** values to the Train-mode
//! forward (`tape.value(out)`), whether the session is fresh or reused
//! (reset) across many forwards.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stsm_tensor::nn::{
    uniform, Activation, Conv1d, Fwd, GruCell, LayerNorm, Linear, Mlp, MultiHeadAttention,
    TransformerEncoderLayer,
};
use stsm_tensor::{InferSession, ParamBinder, ParamStore, Tape, Tensor, Var};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `forward` once in Train mode and once in Infer mode over the same
/// store and inputs, asserting the outputs are bit-identical.
fn train_vs_infer(
    store: &ParamStore,
    forward: impl Fn(&mut Fwd, &[Var]) -> Var,
    inputs: &[Tensor],
) {
    let train_out = {
        let tape = Tape::new();
        let mut binder = ParamBinder::new(&tape);
        let mut fwd = Fwd::new(store, &mut binder);
        let vars: Vec<Var> = inputs.iter().map(|t| fwd.constant(t.clone())).collect();
        let y = forward(&mut fwd, &vars);
        tape.value(y)
    };
    let infer_out = {
        let mut session = InferSession::new(store);
        let mut fwd = Fwd::infer(store, &mut session);
        let vars: Vec<Var> = inputs.iter().map(|t| fwd.constant(t.clone())).collect();
        let y = forward(&mut fwd, &vars);
        fwd.value(y)
    };
    assert_eq!(train_out.shape(), infer_out.shape(), "Train/Infer shape divergence");
    assert_eq!(bits(&train_out), bits(&infer_out), "Train/Infer value divergence");
}

#[test]
fn linear_matches() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let layer = Linear::new(&mut store, "fc", 5, 3, &mut rng);
    let x = uniform([4, 5], -1.0, 1.0, &mut rng);
    train_vs_infer(&store, |fwd, v| layer.forward(fwd, v[0]), &[x]);
}

#[test]
fn linear_3d_matches() {
    // Exercises the reshape-addmm-reshape fast path for rank-3 inputs.
    let mut rng = StdRng::seed_from_u64(8);
    let mut store = ParamStore::new();
    let layer = Linear::new(&mut store, "fc", 5, 3, &mut rng);
    let x = uniform([2, 4, 5], -1.0, 1.0, &mut rng);
    train_vs_infer(&store, |fwd, v| layer.forward(fwd, v[0]), &[x]);
}

#[test]
fn mlp_matches() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut store = ParamStore::new();
    let mlp = Mlp::new(&mut store, "mlp", &[6, 10, 4], Activation::Relu, &mut rng);
    let x = uniform([3, 6], -1.0, 1.0, &mut rng);
    train_vs_infer(&store, |fwd, v| mlp.forward(fwd, v[0]), &[x]);
}

#[test]
fn gru_matches() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut store = ParamStore::new();
    let gru = GruCell::new(&mut store, "g", 3, 6, &mut rng);
    let x = uniform([4, 5, 3], -1.0, 1.0, &mut rng);
    train_vs_infer(&store, |fwd, v| gru.forward_seq(fwd, v[0]), std::slice::from_ref(&x));
    train_vs_infer(&store, |fwd, v| gru.forward_seq_all(fwd, v[0]), &[x]);
}

#[test]
fn conv1d_matches() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut store = ParamStore::new();
    let conv = Conv1d::new(&mut store, "c", 2, 4, 3, 2, &mut rng);
    let x = uniform([3, 8, 2], -1.0, 1.0, &mut rng);
    train_vs_infer(&store, |fwd, v| conv.forward(fwd, v[0]), &[x]);
}

#[test]
fn layer_norm_matches() {
    let mut rng = StdRng::seed_from_u64(19);
    let mut store = ParamStore::new();
    let ln = LayerNorm::new(&mut store, "ln", 6);
    let x = uniform([4, 3, 6], -1.0, 1.0, &mut rng);
    train_vs_infer(&store, |fwd, v| ln.forward(fwd, v[0]), &[x]);
}

#[test]
fn attention_matches() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut store = ParamStore::new();
    let mha = MultiHeadAttention::new(&mut store, "a", 8, 2, &mut rng);
    let x = uniform([3, 5, 8], -1.0, 1.0, &mut rng);
    train_vs_infer(&store, |fwd, v| mha.forward(fwd, v[0]), &[x]);
}

#[test]
fn transformer_encoder_layer_matches() {
    let mut rng = StdRng::seed_from_u64(29);
    let mut store = ParamStore::new();
    let enc = TransformerEncoderLayer::new(&mut store, "enc", 8, 2, 16, &mut rng);
    let x = uniform([2, 4, 8], -1.0, 1.0, &mut rng);
    train_vs_infer(&store, |fwd, v| enc.forward(fwd, v[0]), &[x]);
}

#[test]
fn elementwise_composites_match() {
    // Composite ops written once over Fwd primitives must expand identically
    // in both modes: neg / mean_all / mean_axis plus the scalar-bound clamp
    // building blocks.
    let mut rng = StdRng::seed_from_u64(31);
    let store = ParamStore::new();
    let x = uniform([4, 6], -2.0, 2.0, &mut rng);
    train_vs_infer(
        &store,
        |fwd, v| {
            let a = fwd.neg(v[0]);
            let b = fwd.max_scalar(a, -0.5);
            let c = fwd.min_scalar(b, 0.5);
            let d = fwd.mean_axis(c, 1, false);
            let e = fwd.softmax_lastdim(d);
            let m = fwd.mean_all(e);
            let s = fwd.add(e, m);
            fwd.leaky_relu(s, 0.1)
        },
        &[x],
    );
}

#[test]
fn session_reuse_matches_fresh_sessions() {
    // A reused (reset) session over many windows must give the exact same
    // outputs as a fresh session per window.
    let mut rng = StdRng::seed_from_u64(37);
    let mut store = ParamStore::new();
    let gru = GruCell::new(&mut store, "g", 2, 5, &mut rng);
    let head = Linear::new(&mut store, "head", 5, 3, &mut rng);
    let windows: Vec<Tensor> = (0..4).map(|_| uniform([3, 6, 2], -1.0, 1.0, &mut rng)).collect();
    let run = |fwd: &mut Fwd, x: &Tensor| {
        let xv = fwd.constant(x.clone());
        let h = gru.forward_seq(fwd, xv);
        let y = head.forward(fwd, h);
        fwd.value(y)
    };
    let fresh: Vec<Vec<u32>> = windows
        .iter()
        .map(|x| {
            let mut session = InferSession::new(&store);
            let mut fwd = Fwd::infer(&store, &mut session);
            bits(&run(&mut fwd, x))
        })
        .collect();
    let mut session = InferSession::new(&store);
    for (x, expected) in windows.iter().zip(&fresh) {
        session.reset();
        let mut fwd = Fwd::infer(&store, &mut session);
        assert_eq!(&bits(&run(&mut fwd, x)), expected, "reused session diverged");
    }
}

#[test]
#[should_panic(expected = "Infer mode")]
fn tape_access_panics_in_infer_mode() {
    let store = ParamStore::new();
    let mut session = InferSession::new(&store);
    let fwd = Fwd::infer(&store, &mut session);
    let _ = fwd.tape();
}
