//! Exhaustive and property-based checks of the f32 ⇄ f16/bf16 convert
//! routines in `stsm_tensor::dtype`, plus scalar-vs-F16C dispatch
//! equivalence:
//!
//! * decode is *exact* and encode∘decode is the identity on every
//!   representable non-NaN value (full 65536-pattern sweep per dtype,
//!   covering ±0, subnormals and ±Inf);
//! * encode rounds to nearest, ties to even (proptest against an
//!   exhaustive-neighbor oracle), and is idempotent through a decode;
//! * the F16C vector conversions, which every vector SIMD level uses, agree
//!   bit-for-bit with the portable scalar mirror, including NaN payloads (so
//!   `STSM_SIMD=scalar` never changes results).

use proptest::prelude::*;
use stsm_tensor::dtype::{
    bf16_bits_to_f32, decode_slice, encode_slice, f16_bits_to_f32, f32_to_bf16_bits,
    f32_to_f16_bits,
};
use stsm_tensor::simd::{self, SimdLevel};
use stsm_tensor::DType;

fn decode(dt: DType, bits: u16) -> f32 {
    match dt {
        DType::F16 => f16_bits_to_f32(bits),
        DType::Bf16 => bf16_bits_to_f32(bits),
        DType::F32 => unreachable!(),
    }
}

fn encode(dt: DType, x: f32) -> u16 {
    match dt {
        DType::F16 => f32_to_f16_bits(x),
        DType::Bf16 => f32_to_bf16_bits(x),
        DType::F32 => unreachable!(),
    }
}

fn is_nan_bits(dt: DType, bits: u16) -> bool {
    match dt {
        DType::F16 => (bits >> 10) & 0x1f == 0x1f && bits & 0x3ff != 0,
        DType::Bf16 => (bits >> 7) & 0xff == 0xff && bits & 0x7f != 0,
        DType::F32 => unreachable!(),
    }
}

/// Every representable value round-trips exactly: decode is exact in f32, so
/// encoding the decoded value must reproduce the original bit pattern. NaN
/// patterns stay NaN (signaling payloads are quieted, so bits may differ).
#[test]
fn encode_decode_identity_on_all_representable_values() {
    for dt in [DType::F16, DType::Bf16] {
        for bits in 0..=u16::MAX {
            let x = decode(dt, bits);
            if is_nan_bits(dt, bits) {
                assert!(x.is_nan(), "{dt}: NaN bits {bits:#06x} decoded to non-NaN {x}");
                assert!(
                    is_nan_bits(dt, encode(dt, x)),
                    "{dt}: NaN bits {bits:#06x} did not re-encode to a NaN"
                );
            } else {
                assert!(!x.is_nan(), "{dt}: non-NaN bits {bits:#06x} decoded to NaN");
                assert_eq!(
                    encode(dt, x),
                    bits,
                    "{dt}: representable value {x} (bits {bits:#06x}) failed to round-trip"
                );
            }
        }
    }
}

/// Decoded magnitudes are monotone in the biased-bit ordering — a sanity
/// anchor for the neighbor-based rounding oracle below.
#[test]
fn decode_is_monotone_over_positive_patterns() {
    for dt in [DType::F16, DType::Bf16] {
        // Positive patterns up to (not including) +Inf.
        let inf = encode(dt, f32::INFINITY);
        let mut prev = decode(dt, 0);
        for bits in 1..inf {
            let x = decode(dt, bits);
            assert!(x > prev, "{dt}: decode not strictly increasing at bits {bits:#06x}");
            prev = x;
        }
    }
}

/// Round-to-nearest-even oracle: the encoded value must be at least as close
/// to `x` as either bit-adjacent representable value, and an exact tie must
/// land on the even (LSB 0) mantissa.
fn check_rne(dt: DType, x: f32) {
    let e = encode(dt, x);
    if is_nan_bits(dt, e) {
        panic!("{dt}: finite input {x} encoded to NaN bits {e:#06x}");
    }
    let d = decode(dt, e);
    if d.is_infinite() {
        // Overflow: x must be beyond the rounding threshold of the largest
        // finite value (checked separately in `overflow_boundaries`).
        let max_finite = decode(dt, e.wrapping_sub(1));
        assert!(
            (x.abs() - max_finite.abs()) >= 0.0,
            "{dt}: {x} overflowed to Inf below the max finite {max_finite}"
        );
        return;
    }
    let err = (d as f64 - x as f64).abs();
    // Bit-adjacent representable neighbors of the chosen value (same-sign
    // walk is enough: the nearest representable to any x shares its sign or
    // is a zero, both reachable by ±1 in sign-magnitude bit space).
    for nb in [e.wrapping_sub(1), e.wrapping_add(1)] {
        if is_nan_bits(dt, nb) {
            continue;
        }
        let dn = decode(dt, nb);
        if dn.is_nan() {
            continue;
        }
        let errn = (dn as f64 - x as f64).abs();
        assert!(
            err <= errn,
            "{dt}: {x} encoded to {d} (bits {e:#06x}) but neighbor {dn} is closer"
        );
        if err == errn && dn.is_finite() {
            assert_eq!(e & 1, 0, "{dt}: tie between {d} and {dn} for {x} not broken to even");
        }
    }
}

proptest! {
    /// RNE nearest/tie property over the full finite range of each dtype
    /// (scaled so f16 sees normals, subnormals and underflow-to-zero).
    #[test]
    fn encode_rounds_to_nearest_even(x in -70000.0f32..70000.0, scale in -30i32..30) {
        let v = x * (scale as f32).exp2();
        check_rne(DType::F16, v);
        check_rne(DType::Bf16, v);
    }

    /// Encoding is idempotent through a decode: quantizing an already
    /// quantized value changes nothing. Inputs cover the full f32 bit space
    /// (including NaNs, infinities and subnormals).
    #[test]
    fn encode_is_idempotent(raw in 0u64..(1u64 << 32)) {
        let x = f32::from_bits(raw as u32);
        for dt in [DType::F16, DType::Bf16] {
            let e = encode(dt, x);
            let e2 = encode(dt, decode(dt, e));
            if is_nan_bits(dt, e) {
                prop_assert!(is_nan_bits(dt, e2));
            } else {
                prop_assert_eq!(e, e2);
            }
        }
    }
}

/// Values exactly at and around the overflow/underflow boundaries, matching
/// `VCVTPS2PH` semantics.
#[test]
fn overflow_boundaries() {
    // f16 max finite = 65504; halfway to the next step (65520) rounds to Inf
    // under RNE (the "next" value is 2^16, and 65520 is the midpoint).
    assert_eq!(f32_to_f16_bits(65504.0), 0x7bff);
    assert_eq!(f32_to_f16_bits(65519.99), 0x7bff);
    assert_eq!(f32_to_f16_bits(65520.0), 0x7c00);
    assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
    assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
    // Below half the smallest f16 subnormal → ±0 (sign preserved).
    let half_min_sub = 2.0f32.powi(-25);
    assert_eq!(f32_to_f16_bits(half_min_sub), 0x0000); // tie → even (zero)
    assert_eq!(f32_to_f16_bits(-half_min_sub), 0x8000);
    assert_eq!(f32_to_f16_bits(half_min_sub * 1.5), 0x0001);
    // bf16 shares f32's exponent range: only values above the max-finite
    // rounding threshold overflow.
    assert_eq!(f32_to_bf16_bits(f32::MAX), 0x7f80); // rounds up to Inf
    assert_eq!(f32_to_bf16_bits(f32::INFINITY), 0x7f80);
    // bf16 max finite: exponent 0xfe, mantissa 0x7f.
    assert_eq!(bf16_bits_to_f32(0x7f7f), f32::from_bits(0x7f7f_0000));
    assert_eq!(f32_to_bf16_bits(f32::from_bits(0x7f7f_0000)), 0x7f7f);
}

/// The F16C vector path and the portable scalar mirror produce identical
/// bits for every f16 pattern (decode) and for a torture vector of encodes
/// (including NaN payloads, infinities, subnormals and remainder-length
/// tails that exercise the scalar cleanup loop).
#[test]
fn scalar_and_f16c_paths_agree_bitwise() {
    // Decode: all 65536 patterns at once, plus an odd tail length.
    let all_bits: Vec<u16> = (0..=u16::MAX).collect();
    for len in [all_bits.len(), 13] {
        let src = &all_bits[..len];
        let mut scalar_out = vec![0.0f32; len];
        simd::with_level(SimdLevel::Scalar, || decode_slice(DType::F16, src, &mut scalar_out));
        let scalar_bits: Vec<u32> = scalar_out.iter().map(|v| v.to_bits()).collect();
        for lvl in simd::supported_levels() {
            let mut simd_out = vec![0.0f32; len];
            simd::with_level(lvl, || decode_slice(DType::F16, src, &mut simd_out));
            let simd_bits: Vec<u32> = simd_out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(simd_bits, scalar_bits, "decode paths diverge (len {len}, {lvl:?})");
        }
    }
    // Encode: torture inputs spanning the interesting regions.
    let mut torture: Vec<f32> = vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        65504.0,
        65520.0,
        -65520.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0x7f80_0001), // signaling NaN payload
        f32::from_bits(0xffc0_1234), // negative quiet NaN payload
        f32::MIN_POSITIVE,
        2.0f32.powi(-24),
        2.0f32.powi(-25),
        2.0f32.powi(-14),
        1.0 + 2.0f32.powi(-11), // f16 rounding tie
    ];
    for i in 0..4096 {
        // Deterministic pseudo-random fill across magnitudes.
        let b = (i as u32).wrapping_mul(0x9e37_79b9) ^ 0x4123_4567;
        torture.push(f32::from_bits(b % 0x7f80_0000)); // finite positives
        torture.push(-(i as f32) * 0.37 + 1e-5);
    }
    for len in [torture.len(), 9] {
        let src = &torture[..len];
        let mut scalar_out = vec![0u16; len];
        simd::with_level(SimdLevel::Scalar, || encode_slice(DType::F16, src, &mut scalar_out));
        for lvl in simd::supported_levels() {
            let mut simd_out = vec![0u16; len];
            simd::with_level(lvl, || encode_slice(DType::F16, src, &mut simd_out));
            assert_eq!(simd_out, scalar_out, "encode paths diverge (len {len}, {lvl:?})");
        }
    }
}
