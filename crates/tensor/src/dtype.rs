//! Element dtypes for tensor storage and the f32 ⇄ f16/bf16 convert routines.
//!
//! The crate computes in `f32` everywhere — every kernel accumulates in f32
//! and every activation is f32 — but *storage* can be narrower: a trained
//! model's weights quantized to [`DType::F16`] or [`DType::Bf16`] occupy half
//! the bytes, which is what bounds serving density once sessions are pooled
//! (see `DESIGN.md`, "Precision & quantization"). This module is the single
//! source of truth for:
//!
//! * dtype metadata ([`DType::size_of`], [`DType::align_of`],
//!   [`DType::name`], [`DType::parse`] for the `STSM_INFER_DTYPE` override);
//! * scalar conversions — [`f16_bits_to_f32`]/[`bf16_bits_to_f32`] are exact
//!   (every half value is representable in f32), [`f32_to_f16_bits`]/
//!   [`f32_to_bf16_bits`] round to nearest, ties to even, exactly like the
//!   hardware `VCVTPS2PH` instruction (NaNs are quieted, overflow goes to
//!   ±Inf, subnormals are honored);
//! * bulk slice conversions ([`encode_slice`], [`decode_slice`]) that
//!   dispatch to AVX2 `F16C` vector conversion when the CPU has it and
//!   [`crate::simd::level`] permits (so `STSM_SIMD=scalar` and
//!   [`crate::simd::with_level`] force the portable mirror), falling back to
//!   the scalar routines otherwise. Both paths produce bit-identical output
//!   (`tests/dtype_convert.rs` proves it), so dispatch never changes results.

use crate::simd::{self, SimdLevel};
use std::fmt;

/// Element type of a tensor's storage buffer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DType {
    /// 32-bit IEEE-754 — the training and accumulation precision.
    F32,
    /// 16-bit IEEE-754 half (1-5-10) — storage-only inference precision.
    F16,
    /// bfloat16 (1-8-7): f32's exponent range, truncated mantissa.
    Bf16,
}

impl DType {
    /// Bytes one element occupies.
    pub const fn size_of(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 | DType::Bf16 => 2,
        }
    }

    /// Required alignment of the storage buffer.
    pub const fn align_of(self) -> usize {
        self.size_of()
    }

    /// True for the 16-bit storage dtypes.
    pub const fn is_half(self) -> bool {
        !matches!(self, DType::F32)
    }

    /// Canonical lowercase name, as accepted by [`DType::parse`].
    pub const fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::Bf16 => "bf16",
        }
    }

    /// Parses a dtype name (case-insensitive); the grammar of the
    /// `STSM_INFER_DTYPE` environment override.
    pub fn parse(s: &str) -> Option<DType> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f32" => Some(DType::F32),
            "f16" => Some(DType::F16),
            "bf16" => Some(DType::Bf16),
            _ => None,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Rounds `v >> shift` to nearest, ties to even.
#[inline]
fn round_shift_rne(v: u64, shift: u32) -> u64 {
    let floor = v >> shift;
    let rem = v & ((1u64 << shift) - 1);
    let half = 1u64 << (shift - 1);
    floor + u64::from(rem > half || (rem == half && (floor & 1) == 1))
}

/// Exact f16 → f32 conversion. Subnormals are honored; signaling NaNs are
/// quieted (matching `VCVTPH2PS`, so the scalar and F16C paths agree bitwise).
#[inline]
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = (bits as u32 & 0x8000) << 16;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let man = (bits & 0x3ff) as u32;
    let out = match exp {
        0 => {
            if man == 0 {
                sign // ±0
            } else {
                // Subnormal: man · 2⁻²⁴, exact in f32.
                let mag = man as f32 * f32::from_bits(0x3380_0000);
                return if sign != 0 { -mag } else { mag };
            }
        }
        0x1f => sign | 0x7f80_0000 | (man << 13) | if man != 0 { 0x0040_0000 } else { 0 },
        _ => sign | ((exp + 112) << 23) | (man << 13),
    };
    f32::from_bits(out)
}

/// f32 → f16 with round-to-nearest-even, matching `VCVTPS2PH` bit for bit:
/// overflow saturates to ±Inf, target subnormals are produced (no flush),
/// NaN payloads are truncated and quieted.
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        let payload = if man != 0 { ((man >> 13) as u16 & 0x3ff) | 0x200 } else { 0 };
        return sign | 0x7c00 | payload;
    }
    let exp16 = exp - 127 + 15;
    if exp16 >= 0x1f {
        return sign | 0x7c00; // above the f16 range → ±Inf
    }
    if exp16 <= 0 {
        if exp16 < -11 {
            return sign; // below half the smallest subnormal → ±0
        }
        // Target subnormal: round the full 24-bit significand at the
        // subnormal quantum; a carry into bit 10 lands on the smallest
        // normal, which is exactly the right encoding.
        let full = (man | 0x0080_0000) as u64;
        return sign | round_shift_rne(full, (14 - exp16) as u32) as u16;
    }
    // Normal: round exponent+mantissa as one integer so a mantissa carry
    // ripples into the exponent (and into Inf at the very top).
    let combined = ((exp16 as u64) << 23) | man as u64;
    sign | round_shift_rne(combined, 13) as u16
}

/// Exact bf16 → f32 conversion (pad the mantissa with zeros).
#[inline]
pub fn bf16_bits_to_f32(bits: u16) -> f32 {
    f32::from_bits((bits as u32) << 16)
}

/// f32 → bf16 with round-to-nearest-even. NaNs keep their sign and truncated
/// payload with the quiet bit forced (so they never collapse to Inf).
#[inline]
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let lsb = (bits >> 16) & 1;
    ((bits + 0x7fff + lsb) >> 16) as u16
}

/// Decodes one stored element of `dt` to f32 (exact).
#[inline]
pub fn decode_one(dt: DType, bits: u16) -> f32 {
    match dt {
        DType::F32 => panic!("decode_one: f32 is not a half dtype"),
        DType::F16 => f16_bits_to_f32(bits),
        DType::Bf16 => bf16_bits_to_f32(bits),
    }
}

/// True when `bits`, interpreted as one `dt` element, is finite.
#[inline]
pub fn bits_finite(dt: DType, bits: u16) -> bool {
    match dt {
        DType::F32 => panic!("bits_finite: f32 is not a half dtype"),
        DType::F16 => (bits >> 10) & 0x1f != 0x1f,
        DType::Bf16 => (bits >> 7) & 0xff != 0xff,
    }
}

/// True when the F16C vector conversions may be used: the dispatch level is
/// any vector level (env override and [`simd::with_level`] respected) and
/// the CPU actually has F16C.
#[inline]
fn use_f16c() -> bool {
    simd::level() != SimdLevel::Scalar && simd::f16c_available()
}

/// Quantizes `src` into `dst` element by element (RNE). Slices must have
/// equal lengths; `dt` must be a half dtype. Dispatches to F16C when
/// available, with bit-identical scalar fallback.
pub fn encode_slice(dt: DType, src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "encode_slice length mismatch");
    match dt {
        DType::F32 => panic!("encode_slice: f32 is not a half dtype"),
        DType::F16 => {
            #[cfg(target_arch = "x86_64")]
            if use_f16c() {
                // Safety: f16c_available() verified the CPU feature.
                unsafe { f16c::encode(src, dst) };
                return;
            }
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = f32_to_f16_bits(s);
            }
        }
        DType::Bf16 => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = f32_to_bf16_bits(s);
            }
        }
    }
}

/// Dequantizes `src` into `dst` (exact). Slices must have equal lengths;
/// `dt` must be a half dtype. Dispatches to F16C when available, with
/// bit-identical scalar fallback.
pub fn decode_slice(dt: DType, src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "decode_slice length mismatch");
    match dt {
        DType::F32 => panic!("decode_slice: f32 is not a half dtype"),
        DType::F16 => {
            #[cfg(target_arch = "x86_64")]
            if use_f16c() {
                // Safety: f16c_available() verified the CPU feature.
                unsafe { f16c::decode(src, dst) };
                return;
            }
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = f16_bits_to_f32(s);
            }
        }
        DType::Bf16 => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = bf16_bits_to_f32(s);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod f16c {
    use std::arch::x86_64::*;

    /// Vectorized f32 → f16 (RNE via `_MM_FROUND_TO_NEAREST_INT`).
    ///
    /// # Safety
    /// The CPU must support F16C.
    #[target_feature(enable = "f16c")]
    pub(super) unsafe fn encode(src: &[f32], dst: &mut [u16]) {
        let n = src.len();
        let chunks = n / 8;
        for c in 0..chunks {
            let v = _mm256_loadu_ps(src.as_ptr().add(c * 8));
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
            _mm_storeu_si128(dst.as_mut_ptr().add(c * 8) as *mut __m128i, h);
        }
        for i in chunks * 8..n {
            dst[i] = super::f32_to_f16_bits(src[i]);
        }
    }

    /// Vectorized f16 → f32 (exact).
    ///
    /// # Safety
    /// The CPU must support F16C.
    #[target_feature(enable = "f16c")]
    pub(super) unsafe fn decode(src: &[u16], dst: &mut [f32]) {
        let n = src.len();
        let chunks = n / 8;
        for c in 0..chunks {
            let h = _mm_loadu_si128(src.as_ptr().add(c * 8) as *const __m128i);
            _mm256_storeu_ps(dst.as_mut_ptr().add(c * 8), _mm256_cvtph_ps(h));
        }
        for i in chunks * 8..n {
            dst[i] = super::f16_bits_to_f32(src[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_vector_level_uses_f16c() {
        for lvl in simd::supported_levels() {
            let want = lvl != SimdLevel::Scalar && simd::f16c_available();
            assert_eq!(simd::with_level(lvl, use_f16c), want, "{lvl:?}");
        }
    }

    #[test]
    fn metadata() {
        assert_eq!(DType::F32.size_of(), 4);
        assert_eq!(DType::F16.size_of(), 2);
        assert_eq!(DType::Bf16.size_of(), 2);
        assert!(!DType::F32.is_half());
        assert!(DType::F16.is_half() && DType::Bf16.is_half());
        for dt in [DType::F32, DType::F16, DType::Bf16] {
            assert_eq!(DType::parse(dt.name()), Some(dt));
            assert_eq!(DType::parse(&dt.name().to_uppercase()), Some(dt));
        }
        assert_eq!(DType::parse(" bf16 "), Some(DType::Bf16));
        assert_eq!(DType::parse("f64"), None);
        assert_eq!(DType::parse(""), None);
    }

    #[test]
    fn f16_known_values() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // f16 max
        assert_eq!(f32_to_f16_bits(65519.0), 0x7bff); // below halfway → max
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00); // halfway, even is Inf
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-24)), 0x0001); // smallest subnormal
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-25)), 0x0000); // tie → even (zero)
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-25) * 1.5), 0x0001);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        assert_eq!(f16_bits_to_f32(0x3c00), 1.0);
        assert_eq!(f16_bits_to_f32(0x0001), 2.0f32.powi(-24));
        assert_eq!(f16_bits_to_f32(0x8001), -(2.0f32.powi(-24)));
    }

    #[test]
    fn f16_rne_ties_to_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 (even mantissa) and
        // 1 + 2^-10; RNE keeps the even one.
        let tie = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f32_to_f16_bits(tie), 0x3c00);
        // Just above the halfway point rounds up.
        assert_eq!(f32_to_f16_bits(tie + 2.0f32.powi(-22)), 0x3c01);
        // 1 + 3·2^-11 is halfway between 0x3c01 and 0x3c02; even is 0x3c02.
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 2.0f32.powi(-11)), 0x3c02);
    }

    #[test]
    fn bf16_known_values() {
        assert_eq!(f32_to_bf16_bits(1.0), 0x3f80);
        assert_eq!(f32_to_bf16_bits(-1.0), 0xbf80);
        assert_eq!(bf16_bits_to_f32(0x3f80), 1.0);
        assert_eq!(f32_to_bf16_bits(f32::INFINITY), 0x7f80);
        assert_eq!(f32_to_bf16_bits(f32::MAX), 0x7f80); // rounds up to Inf
        assert!(bf16_bits_to_f32(f32_to_bf16_bits(f32::NAN)).is_nan());
        // 1 + 2^-8 is halfway between 1.0 and the next bf16; even wins.
        assert_eq!(f32_to_bf16_bits(1.0 + 2.0f32.powi(-8)), 0x3f80);
        assert_eq!(f32_to_bf16_bits(1.0 + 3.0 * 2.0f32.powi(-8)), 0x3f82);
    }

    #[test]
    fn finiteness_by_bits() {
        assert!(bits_finite(DType::F16, 0x3c00));
        assert!(bits_finite(DType::F16, 0x0001));
        assert!(!bits_finite(DType::F16, 0x7c00));
        assert!(!bits_finite(DType::F16, 0x7e00));
        assert!(bits_finite(DType::Bf16, 0x3f80));
        assert!(!bits_finite(DType::Bf16, 0x7f80));
        assert!(!bits_finite(DType::Bf16, 0xffc0));
    }

    #[test]
    fn slice_roundtrip_small() {
        let vals = [0.0f32, -1.5, 3.25, 1000.0, -0.125, 7.0, 2.5, -8.0, 0.75, 42.0, -3.0];
        for dt in [DType::F16, DType::Bf16] {
            let mut bits = vec![0u16; vals.len()];
            encode_slice(dt, &vals, &mut bits);
            let mut back = vec![0.0f32; vals.len()];
            decode_slice(dt, &bits, &mut back);
            // Every one of these values is exactly representable in both
            // half formats, so the round-trip is exact.
            assert_eq!(&back, &vals, "{dt}");
        }
    }
}
