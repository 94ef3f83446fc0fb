//! Property-based tests of the autograd engine: every differentiable op is
//! checked against central finite differences on random inputs, and
//! broadcasting/backward shape algebra is exercised with random shapes.

use proptest::prelude::*;
use stsm_tensor::{Shape, Tape, Tensor, Var};

/// Central-difference gradient check for `f` at `x0`.
fn gradcheck(f: impl Fn(&Tape, Var) -> Var, x0: &Tensor, tol: f32) -> Result<(), String> {
    let tape = Tape::new();
    let x = tape.leaf(x0.clone());
    let loss = f(&tape, x);
    tape.backward(loss);
    let g = tape.grad(x).ok_or("no gradient")?;
    let eps = 1e-2f32;
    for i in 0..x0.numel() {
        let eval = |delta: f32| {
            let mut xp = x0.clone();
            xp.data_mut()[i] += delta;
            let t = Tape::new();
            let v = t.leaf(xp);
            let l = f(&t, v);
            t.value(l).item()
        };
        let num = (eval(eps) - eval(-eps)) / (2.0 * eps);
        let ana = g.data()[i];
        let denom = ana.abs().max(num.abs()).max(1.0);
        if (ana - num).abs() / denom > tol {
            return Err(format!("grad[{i}]: analytic {ana} vs numeric {num}"));
        }
    }
    Ok(())
}

fn small_tensor() -> impl Strategy<Value = Tensor> {
    (1usize..4, 1usize..4).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-2.0f32..2.0, r * c)
            .prop_map(move |data| Tensor::from_vec([r, c], data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unary_chains_differentiate(x in small_tensor()) {
        gradcheck(
            |t, v| {
                let a = t.sigmoid(v);
                let b = t.tanh(a);
                let c = t.mul_scalar(b, 1.7);
                t.sum_all(c)
            },
            &x,
            5e-2,
        ).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn softmax_differentiates(x in small_tensor()) {
        gradcheck(
            |t, v| {
                let s = t.softmax_lastdim(v);
                let sq = t.square(s);
                t.sum_all(sq)
            },
            &x,
            5e-2,
        ).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn matmul_differentiates(x in small_tensor()) {
        let cols = x.dim(1);
        let w = Tensor::from_vec([cols, 2], (0..cols * 2).map(|i| 0.3 * (i as f32) - 0.5).collect());
        gradcheck(
            |t, v| {
                let wv = t.constant(w.clone());
                let y = t.matmul(v, wv);
                let y = t.square(y);
                t.sum_all(y)
            },
            &x,
            5e-2,
        ).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn broadcast_add_reduces_correctly(
        rows in 1usize..5,
        cols in 1usize..5,
        bias in proptest::collection::vec(-2.0f32..2.0, 1..5),
    ) {
        // grad of sum(x + b) w.r.t. b (broadcast over rows) is `rows` per entry.
        let b0 = Tensor::from_vec([bias.len()], bias.clone());
        let x = Tensor::ones([rows, bias.len()]);
        let _ = cols;
        let tape = Tape::new();
        let bv = tape.leaf(b0);
        let xv = tape.constant(x);
        let y = tape.add(xv, bv);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let g = tape.grad(bv).unwrap();
        for &v in g.data() {
            prop_assert!((v - rows as f32).abs() < 1e-5);
        }
    }

    #[test]
    fn value_preserved_by_shape_roundtrip(x in small_tensor()) {
        let tape = Tape::new();
        let v = tape.leaf(x.clone());
        let r = tape.reshape(v, [x.numel()]);
        let back = tape.reshape(r, x.shape().dims().to_vec());
        prop_assert_eq!(tape.value(back), x.clone());
        // Permute twice with the inverse gives the original.
        let p = tape.permute(v, &[1, 0]);
        let pp = tape.permute(p, &[1, 0]);
        prop_assert_eq!(tape.value(pp), x);
    }

    #[test]
    fn sum_axis_agrees_with_sum_all(x in small_tensor()) {
        let tape = Tape::new();
        let v = tape.constant(x.clone());
        let s0 = tape.sum_axis(v, 0, false);
        let s01 = tape.sum_axis(s0, 0, false);
        let total = tape.sum_all(v);
        let a = tape.value(s01).item();
        let b = tape.value(total).item();
        prop_assert!((a - b).abs() <= 1e-3 * b.abs().max(1.0));
    }

    #[test]
    fn gradient_accumulation_is_linear(x in small_tensor()) {
        // d/dx sum(x) + sum(x) == 2 * d/dx sum(x)
        let tape = Tape::new();
        let v = tape.leaf(x.clone());
        let s1 = tape.sum_all(v);
        let s2 = tape.sum_all(v);
        let s = tape.add(s1, s2);
        tape.backward(s);
        let g = tape.grad(v).unwrap();
        for &gv in g.data() {
            prop_assert!((gv - 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn broadcast_shapes_compose(a in 1usize..4, b in 1usize..4, c in 1usize..4) {
        let s1 = Shape::new(&[a, 1, c]);
        let s2 = Shape::new(&[b, 1]);
        let merged = s1.broadcast_with(&s2);
        prop_assert_eq!(merged, Some(Shape::new(&[a, b, c])));
    }
}

#[test]
fn conv1d_gradcheck_dilations() {
    for dilation in [1usize, 2, 3] {
        let x = Tensor::from_vec([8], (0..8).map(|i| ((i as f32) * 0.9).sin()).collect());
        let w = Tensor::from_vec([1, 1, 2], vec![0.4, -0.7]);
        gradcheck(
            |t, v| {
                let xr = t.reshape(v, [1, 1, 8]);
                let wv = t.constant(w.clone());
                let y = t.conv1d(xr, wv, None, dilation);
                let y = t.square(y);
                t.sum_all(y)
            },
            &x,
            5e-2,
        )
        .unwrap_or_else(|e| panic!("dilation {dilation}: {e}"));
    }
}

/// The gather the readout pass builds its conv taps and GCN rows with:
/// `index_select0` over a row matrix with an appended zero row (the pad
/// tap), indices repeating and hitting the pad row more than once. The
/// scatter-add backward must sum every repeat.
#[test]
fn index_select0_gradcheck_repeats_and_pad_row() {
    let x = Tensor::from_vec([4, 3], (0..12).map(|i| ((i as f32) * 0.7).cos()).collect());
    let idx = [2usize, 0, 4, 2, 3, 4, 1, 2, 0];
    let scale =
        Tensor::from_vec([idx.len(), 3], (0..27).map(|i| 0.5 + (i % 5) as f32 * 0.3).collect());
    gradcheck(
        |t, v| {
            let pad = t.constant(Tensor::zeros([1, 3]));
            let rows = t.concat(&[v, pad], 0);
            let sel = t.index_select0(rows, &idx);
            let s = t.constant(scale.clone());
            let y = t.mul(sel, s);
            let y = t.square(y);
            t.sum_all(y)
        },
        &x,
        5e-2,
    )
    .unwrap();
}
