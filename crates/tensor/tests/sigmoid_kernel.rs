//! Contract of the shared polynomial `exp` and sigmoid (pinned by name in
//! `scripts/check.sh`): the scalar mirror and the AVX2 and AVX-512 bodies
//! are bitwise equal on a sweep of every 2¹²-th f32 bit pattern and on the
//! special values; `exp` stays within 1 ulp and σ within 3 ulp of an f64
//! reference; NaN, ±∞ and ±0 map as documented; and every caller (tape,
//! Infer session, fused GRU gates) returns the kernel's bits.

use stsm_tensor::nn::Fwd;
use stsm_tensor::simd::{self, SimdLevel};
use stsm_tensor::{sigmoid, InferSession, ParamStore, Tape, Tensor};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Every 2¹²-th bit pattern (all signs, exponents, NaN payloads) plus the
/// special values and a tail length that is odd, so the scalar remainder
/// runs after both the 8- and 16-lane bodies.
fn sweep() -> Vec<f32> {
    let mut xs: Vec<f32> = (0..1u64 << 20).map(|i| f32::from_bits((i << 12) as u32)).collect();
    xs.extend([
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7f80_0001), // signalling NaN
        f32::MIN_POSITIVE,
        f32::from_bits(1), // smallest subnormal
        -f32::from_bits(0x007f_ffff),
        88.0,
        88.5,
        -88.5,
        89.0,
        -89.0,
        100.0,
        -100.0,
        87.33,
        -87.33,
        f32::MAX,
        f32::MIN,
    ]);
    xs
}

fn run(level: SimdLevel, f: fn(&[f32], &mut [f32]), xs: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; xs.len()];
    simd::with_level(level, || f(xs, &mut out));
    out
}

#[test]
fn scalar_and_simd_are_bitwise_equal() {
    let xs = sweep();
    for f in [simd::exp_slice as fn(&[f32], &mut [f32]), simd::sigmoid_slice] {
        let scalar = bits(&run(SimdLevel::Scalar, f, &xs));
        for lvl in simd::supported_levels() {
            let got = bits(&run(lvl, f, &xs));
            let diff = got.iter().zip(&scalar).position(|(a, b)| a != b);
            assert_eq!(diff, None, "{lvl:?} differs at x = {:e}", diff.map_or(0.0, |i| xs[i]));
        }
    }
}

/// `|got - want|` in units of the f32 ulp at `want` (a normal float).
fn ulps(got: f32, want: f64) -> f64 {
    let w = want as f32;
    let ulp = f32::from_bits(w.to_bits() + 1) - w;
    (got as f64 - want).abs() / ulp as f64
}

/// Dense grid over `[lo, hi]` plus the sweep's values inside it.
fn range_points(lo: f32, hi: f32) -> Vec<f32> {
    let mut xs: Vec<f32> = (0..=200_000).map(|i| lo + (hi - lo) * (i as f32 / 200_000.0)).collect();
    xs.extend(sweep().into_iter().filter(|v| (lo..=hi).contains(v)));
    xs
}

#[test]
fn exp_within_one_ulp_on_the_normal_range() {
    let xs = range_points(-87.0, 88.0);
    for lvl in simd::supported_levels() {
        let got = run(lvl, simd::exp_slice, &xs);
        let worst = xs
            .iter()
            .zip(&got)
            .map(|(&x, &g)| (ulps(g, (x as f64).exp()), x))
            .fold((0.0f64, 0.0f32), |a, b| if b.0 > a.0 { b } else { a });
        assert!(worst.0 <= 1.0, "{lvl:?}: exp off by {} ulp at {}", worst.0, worst.1);
    }
}

#[test]
fn sigmoid_within_three_ulp() {
    let xs = range_points(-87.0, 88.0);
    for lvl in simd::supported_levels() {
        let got = run(lvl, simd::sigmoid_slice, &xs);
        for (&x, &g) in xs.iter().zip(&got) {
            let want = 1.0 / (1.0 + (-(x as f64)).exp());
            let e = ulps(g, want);
            assert!(e <= 3.0, "{lvl:?}: sigmoid({x}) = {g}, off by {e} ulp from {want}");
        }
    }
}

#[test]
fn special_values() {
    for lvl in simd::supported_levels() {
        let xs = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 200.0, -200.0];
        let s = run(lvl, simd::sigmoid_slice, &xs);
        assert!(s[0].is_nan() && s[1].is_nan(), "{lvl:?}: NaN must stay NaN");
        assert_eq!(bits(&s[2..]), bits(&[1.0, 0.0, 0.5, 0.5, 1.0, 0.0]), "{lvl:?}");
        let e = run(lvl, simd::exp_slice, &xs);
        assert!(e[0].is_nan() && e[1].is_nan(), "{lvl:?}: NaN must stay NaN");
        assert_eq!(bits(&e[2..]), bits(&[f32::INFINITY, 0.0, 1.0, 1.0, f32::INFINITY, 0.0]));
    }
}

#[test]
fn tape_infer_and_fused_gates_share_the_kernel() {
    let xs: Vec<f32> = (0..67).map(|i| (i as f32 - 33.0) * 0.37).collect();
    let x = Tensor::from_vec([67], xs);
    let want = bits(sigmoid(&x).data());

    let tape = Tape::new();
    let v = tape.leaf(x.clone());
    assert_eq!(bits(tape.value(tape.sigmoid(v)).data()), want, "tape");

    let store = ParamStore::new();
    let mut session = InferSession::new(&store);
    let fwd = Fwd::infer(&store, &mut session);
    let v = fwd.constant(x.clone());
    let y = fwd.sigmoid(v);
    assert_eq!(bits(fwd.value(y).data()), want, "infer");

    let h = Tensor::ones([67]);
    let tape = Tape::new();
    let (ar, hv) = (tape.leaf(x.clone()), tape.leaf(h.clone()));
    // rh = σ(ar) ⊙ 1 = σ(ar)
    assert_eq!(bits(tape.value(tape.gru_rh(ar, hv)).data()), want, "gru_rh");
    let (az, s) = (tape.leaf(x.clone()), tape.leaf(Tensor::zeros([67])));
    // h' = (1 - z)·tanh(0) + z·1 = z
    assert_eq!(bits(tape.value(tape.gru_out(az, s, hv)).data()), want, "gru_out");
}
