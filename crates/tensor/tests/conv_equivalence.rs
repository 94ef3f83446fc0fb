//! Contract of the dilated causal conv as one packed GEMM (DESIGN.md,
//! "Kernel architecture"), pinned by name in `scripts/check.sh`:
//!
//! * the channels-last core ([`conv1d_ntc`]) and its backward agree with the
//!   direct scalar loop within 1e-5 relative tolerance — on K ∈ {1, 2, 3},
//!   dilations 1, 2, 4 and ≥ T (an all-zero tap), C_in ≠ C_out, and sizes on
//!   both sides of the packed-GEMM threshold, at every SIMD level the host
//!   can run;
//! * the channels-first entries and the tape node are the same arithmetic;
//! * every result is bitwise identical for 1 and 3 pool threads;
//! * a half-precision weight/bias goes through the whole-operand upcast, so
//!   it equals the conv of the decoded f32 values bit for bit.
//!
//! The reference below is the direct (N, C_out) × C_in × K × T loop and its
//! per-sample backward that the GEMM form replaced; it stays here as the
//! definition the core is checked against.

use stsm_tensor::simd;
use stsm_tensor::{conv1d_dilated, conv1d_ntc, pool, DType, Tape, Tensor};

/// SplitMix64-based deterministic fill in roughly [-1, 1].
fn pseudo_random(n: usize, seed: u64) -> Vec<f32> {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            (x >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
        })
        .collect()
}

fn tensor3(dims: [usize; 3], seed: u64) -> Tensor {
    Tensor::from_vec(dims, pseudo_random(dims.iter().product(), seed))
}

/// Reference forward over channels-first (N, C_in, T) input: each output
/// row starts from the bias and adds every tap's contribution in
/// (c_in, kk, t) order.
fn reference_forward(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, dilation: usize) -> Tensor {
    let (n, cin, t) = (x.dim(0), x.dim(1), x.dim(2));
    let (cout, k) = (w.dim(0), w.dim(2));
    let (xd, wd) = (x.data(), w.data());
    let mut out = vec![0.0f32; n * cout * t];
    for b_i in 0..n {
        for co in 0..cout {
            let orow = &mut out[(b_i * cout + co) * t..(b_i * cout + co + 1) * t];
            if let Some(bias) = bias {
                orow.fill(bias.data()[co]);
            }
            for ci in 0..cin {
                let ibase = (b_i * cin + ci) * t;
                let wbase = (co * cin + ci) * k;
                for kk in 0..k {
                    let wv = wd[wbase + kk];
                    let shift = (k - 1 - kk) * dilation;
                    for tt in shift..t {
                        orow[tt] += wv * xd[ibase + tt - shift];
                    }
                }
            }
        }
    }
    Tensor::from_vec([n, cout, t], out)
}

/// Reference backward (channels-first): per-sample grad_weight/grad_bias
/// partials merged in ascending sample order.
fn reference_backward(
    x: &Tensor,
    w: &Tensor,
    g: &Tensor,
    dilation: usize,
) -> (Tensor, Tensor, Tensor) {
    let (n, cin, t) = (x.dim(0), x.dim(1), x.dim(2));
    let (cout, k) = (w.dim(0), w.dim(2));
    let (xd, wd, gd) = (x.data(), w.data(), g.data());
    let mut gi = vec![0.0f32; n * cin * t];
    let mut gw = vec![0.0f32; cout * cin * k];
    let mut gb = vec![0.0f32; cout];
    for b_i in 0..n {
        let mut pgw = vec![0.0f32; cout * cin * k];
        let mut pgb = vec![0.0f32; cout];
        let gi_rows = &mut gi[b_i * cin * t..(b_i + 1) * cin * t];
        for (co, gb_co) in pgb.iter_mut().enumerate() {
            let go = &gd[(b_i * cout + co) * t..(b_i * cout + co + 1) * t];
            *gb_co += go.iter().sum::<f32>();
            for ci in 0..cin {
                let ibase = (b_i * cin + ci) * t;
                let wbase = (co * cin + ci) * k;
                for kk in 0..k {
                    let shift = (k - 1 - kk) * dilation;
                    let wv = wd[wbase + kk];
                    let mut acc = 0.0f32;
                    for tt in shift..t {
                        acc += go[tt] * xd[ibase + tt - shift];
                        gi_rows[ci * t + tt - shift] += go[tt] * wv;
                    }
                    pgw[wbase + kk] += acc;
                }
            }
        }
        for (o, v) in gw.iter_mut().zip(&pgw) {
            *o += v;
        }
        for (o, v) in gb.iter_mut().zip(&pgb) {
            *o += v;
        }
    }
    (
        Tensor::from_vec([n, cin, t], gi),
        Tensor::from_vec([cout, cin, k], gw),
        Tensor::from_vec([cout], gb),
    )
}

fn assert_close(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape mismatch");
    for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
        let tol = 1e-5 * w.abs().max(1.0);
        assert!((g - w).abs() <= tol, "{what}: element {i} differs: {g} vs {w}");
    }
}

fn ntc(t: &Tensor) -> Tensor {
    t.permute(&[0, 2, 1])
}

/// `(n, c_in, c_out, t, k, dilation)`: C_in ≠ C_out throughout; the first
/// rows stay below the packed-GEMM threshold (2^15 multiply-adds), the
/// later ones cross it, the last is STSM's TCN shape on PEMS-08.
const CASES: [(usize, usize, usize, usize, usize, usize); 10] = [
    (2, 3, 4, 5, 1, 1),
    (2, 3, 4, 5, 2, 1),
    (3, 5, 2, 7, 3, 2),
    (1, 4, 3, 6, 2, 6),
    (2, 2, 5, 4, 3, 9),
    (30, 8, 12, 12, 3, 4),
    (40, 12, 9, 12, 2, 2),
    (25, 7, 16, 12, 2, 12),
    (33, 16, 8, 13, 3, 1),
    (400, 16, 16, 12, 2, 1),
];

#[test]
fn gemm_conv_matches_scalar_loop_on_odd_shapes_at_every_level() {
    for lvl in simd::supported_levels() {
        simd::with_level(lvl, || {
            for (i, &(n, cin, cout, t, k, d)) in CASES.iter().enumerate() {
                let seed = 10 * i as u64;
                let x = tensor3([n, cin, t], seed + 1);
                let w = tensor3([cout, cin, k], seed + 2);
                let b = Tensor::from_vec([cout], pseudo_random(cout, seed + 3));
                let g = tensor3([n, cout, t], seed + 4);
                let what = format!("n{n} cin{cin} cout{cout} t{t} k{k} d{d} @ {lvl:?}");
                let want = reference_forward(&x, &w, Some(&b), d);
                let got = conv1d_ntc(&ntc(&x), &w, Some(&b), d);
                assert_close(&ntc(&got), &want, &format!("forward {what}"));
                let (rgi, rgw, rgb) = reference_backward(&x, &w, &g, d);
                let tape = Tape::new();
                let (xv, wv, bv) = (tape.leaf(ntc(&x)), tape.leaf(w.clone()), tape.leaf(b.clone()));
                let y = tape.conv1d_ntc(xv, wv, Some(bv), d);
                let loss = tape.sum_all(tape.mul(y, tape.constant(ntc(&g))));
                tape.backward(loss);
                assert_close(&ntc(&tape.grad(xv).unwrap()), &rgi, &format!("grad_x {what}"));
                assert_close(&tape.grad(wv).unwrap(), &rgw, &format!("grad_w {what}"));
                assert_close(&tape.grad(bv).unwrap(), &rgb, &format!("grad_b {what}"));
            }
        });
    }
}

#[test]
fn a_tap_past_the_window_reads_zeros() {
    // Dilation ≥ T: the lagged tap never lands inside the window, so the
    // conv reduces to the current tap alone.
    let (n, cin, cout, t) = (3, 4, 5, 6);
    let x = tensor3([n, t, cin], 7);
    let w = tensor3([cout, cin, 2], 8);
    let current =
        Tensor::from_vec([cout, cin, 1], (0..cout * cin).map(|i| w.data()[i * 2 + 1]).collect());
    let got = conv1d_ntc(&x, &w, None, t);
    let want = conv1d_ntc(&x, &current, None, 1);
    assert_close(&got, &want, "dilation >= T");
}

#[test]
fn channels_first_entries_are_the_channels_last_arithmetic() {
    let (n, cin, cout, t, k, d) = (30, 8, 12, 12, 3, 2);
    let x = tensor3([n, cin, t], 21);
    let w = tensor3([cout, cin, k], 22);
    let b = Tensor::from_vec([cout], pseudo_random(cout, 23));
    let first = conv1d_dilated(&x, &w, Some(&b), d);
    let last = conv1d_ntc(&ntc(&x), &w, Some(&b), d);
    assert_eq!(first, ntc(&last), "conv1d_dilated must equal the permuted core");
    let grads = |channels_last: bool| {
        let tape = Tape::new();
        let xin = if channels_last { ntc(&x) } else { x.clone() };
        let (xv, wv, bv) = (tape.leaf(xin), tape.leaf(w.clone()), tape.leaf(b.clone()));
        let y = if channels_last {
            tape.conv1d_ntc(xv, wv, Some(bv), d)
        } else {
            tape.conv1d(xv, wv, Some(bv), d)
        };
        let loss = tape.sum_all(tape.square(y));
        tape.backward(loss);
        let gx = tape.grad(xv).unwrap();
        let gx = if channels_last { gx } else { ntc(&gx) };
        (gx, tape.grad(wv).unwrap(), tape.grad(bv).unwrap())
    };
    assert_eq!(grads(true), grads(false), "Tape::conv1d must equal the channels-last node");
}

#[test]
fn conv_bitwise_identical_for_one_and_three_threads() {
    for lvl in simd::supported_levels() {
        simd::with_level(lvl, || {
            for &(n, cin, cout, t, k, d) in &CASES {
                let x = tensor3([n, t, cin], 31);
                let w = tensor3([cout, cin, k], 32);
                let b = Tensor::from_vec([cout], pseudo_random(cout, 33));
                let run = || {
                    let tape = Tape::new();
                    let (xv, wv, bv) =
                        (tape.leaf(x.clone()), tape.leaf(w.clone()), tape.leaf(b.clone()));
                    let y = tape.conv1d_ntc(xv, wv, Some(bv), d);
                    let loss = tape.sum_all(tape.square(y));
                    tape.backward(loss);
                    let grads = [xv, wv, bv].map(|v| tape.grad(v).unwrap());
                    (tape.value(y), grads)
                };
                let one = pool::with_max_threads(1, run);
                let three = pool::with_max_threads(3, run);
                assert_eq!(one, three, "n{n} cin{cin} cout{cout} t{t} k{k} d{d} @ {lvl:?}");
            }
        });
    }
}

#[test]
fn half_weights_go_through_the_upcast() {
    for &(n, cin, cout, t, k, d) in &[CASES[2], CASES[9]] {
        let x = tensor3([n, t, cin], 41);
        let w = tensor3([cout, cin, k], 42);
        let b = Tensor::from_vec([cout], pseudo_random(cout, 43));
        for dt in [DType::F16, DType::Bf16] {
            let (qw, qb) = (w.to_dtype(dt), b.to_dtype(dt));
            let (dw, db) = (qw.to_dtype(DType::F32), qb.to_dtype(DType::F32));
            assert_eq!(
                conv1d_ntc(&x, &qw, Some(&qb), d),
                conv1d_ntc(&x, &dw, Some(&db), d),
                "{dt} weights, n{n} k{k}"
            );
        }
    }
}
