//! Runtime-dispatched SIMD micro-kernels for the packed matmul path, the
//! row-group kernel of the CSR spmm (`spmm_group`), and the polynomial
//! `exp`/sigmoid ([`exp_slice`], [`sigmoid_slice`]).
//!
//! The unit of work is an `MR × NR` register tile: up to `MR` rows of `A`
//! (read through arbitrary strides) against one packed `B` panel (`k × NR`
//! contiguous, zero-padded to `NR` columns), accumulated over the full `k`
//! extent in ascending order and written to the output once. Keeping the
//! entire accumulation for an output element inside a single tile call is
//! what makes the blocked kernel bit-deterministic for any thread count and
//! any strip/panel partitioning (see [`crate::gemm`]).
//!
//! Two implementations are provided and selected once per process:
//!
//! * **Avx2Fma** — explicit `std::arch` AVX2+FMA intrinsics, one `f32x8`
//!   accumulator per row, fused multiply-add.
//! * **Scalar** — a portable mirror of the same blocking with plain
//!   multiply-then-add, used when the CPU lacks AVX2/FMA or when
//!   `STSM_SIMD=off|0|false|scalar` forces it.
//!
//! The two tile paths may differ in the last ulp (FMA does not round the
//! intermediate product); each is individually deterministic, and both stay
//! within the `kernel_tiling_equivalence` tolerance of the naive reference.
//! The spmm group kernel and the polynomial `exp` use separate multiplies
//! and adds at both levels, so their two paths are bitwise equal.

use std::cell::Cell;
use std::sync::OnceLock;

/// Rows per micro-tile.
pub const MR: usize = 8;
/// Columns per micro-tile (one AVX2 `f32` vector).
pub const NR: usize = 8;

/// Which micro-kernel implementation the process dispatches to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// Portable scalar blocking (also the `STSM_SIMD=off` path).
    Scalar,
    /// AVX2 + FMA intrinsics (x86-64, runtime-detected).
    Avx2Fma,
}

thread_local! {
    /// Per-thread override used by tests to exercise both paths in-process;
    /// see [`with_level`].
    static LEVEL_OVERRIDE: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// The process-wide dispatch level: `STSM_SIMD=off|0|false|scalar` forces
/// [`SimdLevel::Scalar`]; otherwise the CPU is probed once for AVX2+FMA.
pub fn level() -> SimdLevel {
    if let Some(l) = LEVEL_OVERRIDE.with(|c| c.get()) {
        return l;
    }
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if let Ok(v) = std::env::var("STSM_SIMD") {
            if matches!(v.trim().to_ascii_lowercase().as_str(), "off" | "0" | "false" | "scalar") {
                return SimdLevel::Scalar;
            }
        }
        detect()
    })
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        SimdLevel::Avx2Fma
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdLevel {
    SimdLevel::Scalar
}

/// True when the CPU has the F16C half-precision conversion instructions.
/// Probed once; independent of [`level`] because F16C is a separate CPUID
/// bit from AVX2/FMA — callers gate vector conversions on *both* (so
/// `STSM_SIMD=scalar` and [`with_level`] still force the portable mirror).
pub fn f16c_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static F16C: OnceLock<bool> = OnceLock::new();
        *F16C.get_or_init(|| std::arch::is_x86_feature_detected!("f16c"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Runs `f` with this thread's micro-kernel dispatch forced to `level`,
/// restoring the previous override on exit (including on panic). Exists so
/// the equivalence tests can compare the SIMD and scalar paths in one
/// process without touching the environment. On non-x86 targets a forced
/// `Avx2Fma` silently falls back to the scalar tile.
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LEVEL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = LEVEL_OVERRIDE.with(|c| c.replace(Some(level)));
    let _restore = Restore(prev);
    f()
}

/// Arguments of one micro-tile: `rows × cols` outputs (`1 <= rows <= MR`,
/// `1 <= cols <= NR`) accumulated over `k`.
///
/// * `A` is read at `a_base + r * a_rs + kk * a_cs` — arbitrary strides, so
///   transposed or sliced views feed the kernel without materializing.
/// * `bp` is one packed panel: element `(kk, c)` lives at `kk * NR + c`,
///   columns beyond `cols` zero-padded (the tile computes all `NR` lanes
///   and stores only `cols`).
/// * The output is written (not accumulated into) at `o_base + r * o_rs + c`.
#[derive(Clone, Copy)]
pub struct TileArgs<'a> {
    /// Backing storage of the `A` operand.
    pub a: &'a [f32],
    /// Offset of the tile's `(0, 0)` element of `A`.
    pub a_base: usize,
    /// Row stride of `A`.
    pub a_rs: usize,
    /// Column (`k`) stride of `A`.
    pub a_cs: usize,
    /// One packed `B` panel (`k × NR`, zero-padded columns).
    pub bp: &'a [f32],
    /// Accumulation extent.
    pub k: usize,
    /// Offset of the tile's `(0, 0)` element in the output.
    pub o_base: usize,
    /// Output row stride.
    pub o_rs: usize,
    /// Output rows this tile produces (`1..=MR`).
    pub rows: usize,
    /// Output columns this tile produces (`1..=NR`).
    pub cols: usize,
}

impl TileArgs<'_> {
    #[inline]
    fn debug_check(&self, out_len: usize) {
        debug_assert!(self.rows >= 1 && self.rows <= MR);
        debug_assert!(self.cols >= 1 && self.cols <= NR);
        debug_assert!(self.k * NR <= self.bp.len());
        if self.k > 0 {
            let a_last = self.a_base + (self.rows - 1) * self.a_rs + (self.k - 1) * self.a_cs;
            debug_assert!(a_last < self.a.len(), "tile A access out of bounds");
        }
        let o_last = self.o_base + (self.rows - 1) * self.o_rs + self.cols - 1;
        debug_assert!(o_last < out_len, "tile out access out of bounds");
    }
}

/// Computes one micro-tile with the given dispatch level.
#[inline]
pub fn tile(level: SimdLevel, args: TileArgs<'_>, out: &mut [f32]) {
    args.debug_check(out.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => {
            // Safety: `level` is only Avx2Fma when the CPU reported AVX2+FMA
            // (or a test forced it on a machine that has them); bounds were
            // debug-checked above and are guaranteed by the gemm driver.
            unsafe { avx2::tile(args, out) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2Fma => scalar_tile(args, out),
        SimdLevel::Scalar => scalar_tile(args, out),
    }
}

/// Portable mirror of the AVX2 tile: same blocking, same ascending-`k`
/// accumulation order, plain multiply-then-add arithmetic.
fn scalar_tile(args: TileArgs<'_>, out: &mut [f32]) {
    let TileArgs { a, a_base, a_rs, a_cs, bp, k, o_base, o_rs, rows, cols } = args;
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let brow = &bp[kk * NR..kk * NR + NR];
        for (r, accr) in acc.iter_mut().enumerate().take(rows) {
            let av = a[a_base + r * a_rs + kk * a_cs];
            for c in 0..NR {
                accr[c] += av * brow[c];
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(rows) {
        out[o_base + r * o_rs..o_base + r * o_rs + cols].copy_from_slice(&accr[..cols]);
    }
}

/// One group of consecutive CSR rows in the row-grouped layout
/// ([`crate::CsrRowGroups`]): `rows` output rows (1..=4) over the ascending
/// union of their columns.
#[derive(Clone, Copy)]
pub(crate) struct RowGroup<'a> {
    /// Output rows of the group.
    pub rows: usize,
    /// Union columns, one `x` row each.
    pub cols: &'a [u32],
    /// Bit `r` set when row `r` stores that union column.
    pub masks: &'a [u8],
    /// Row `r`'s value of union entry `u` at `u · rows + r`.
    pub values: &'a [f32],
}

/// One group of the row-grouped CSR × dense product into the zeroed
/// `rows × feat` block `out`: each row accumulates `v · x[c, ·]` over the
/// union entries whose mask bit it owns, in ascending union order, as a
/// separate multiply then add from 0.0.
///
/// That is the plain row loop's sequence of IEEE operations for every
/// output element, so both levels are bitwise equal to it. The AVX2 body
/// loads each `x` block once per union entry for all rows of the group,
/// keeps `rows × block` accumulators in registers (32 columns for 1–2 rows,
/// 24 for 3–4), then runs 8-column blocks and a scalar tail. It uses `mul`
/// + `add`, not FMA: a fused multiply-add skips the product's rounding.
///
/// # Safety
/// Every union column `c` of `g` must address a full `x` row:
/// `(c + 1) · feat <= x.len()` (the AVX2 body loads without bounds checks).
#[inline]
pub(crate) unsafe fn spmm_group(
    level: SimdLevel,
    g: RowGroup<'_>,
    x: &[f32],
    feat: usize,
    out: &mut [f32],
) {
    debug_assert!((1..=4).contains(&g.rows));
    debug_assert_eq!(out.len(), g.rows * feat, "spmm group output length mismatch");
    debug_assert_eq!(g.values.len(), g.cols.len() * g.rows);
    debug_assert!(g.cols.iter().all(|&c| (c as usize + 1) * feat <= x.len()));
    match level {
        #[cfg(target_arch = "x86_64")]
        // Safety: `level` is only Avx2Fma when the CPU reported AVX2 (or a
        // test forced it on a machine that has it); the caller guarantees
        // every union column addresses a full `x` row.
        SimdLevel::Avx2Fma => unsafe { avx2::spmm_group(g, x, feat, out) },
        _ => spmm_group_tail(g, x, feat, 0, out),
    }
}

/// The masked walk over columns `[from, feat)`: one pass of
/// `out_row += v · x_row` per union entry and owning row.
fn spmm_group_tail(g: RowGroup<'_>, x: &[f32], feat: usize, from: usize, out: &mut [f32]) {
    let RowGroup { rows, cols, masks, values } = g;
    for ((&c, &m), vals) in cols.iter().zip(masks).zip(values.chunks_exact(rows)) {
        let c = c as usize;
        let xrow = &x[c * feat + from..(c + 1) * feat];
        for (r, &v) in vals.iter().enumerate() {
            if m & (1 << r) != 0 {
                for (o, &xv) in out[r * feat + from..(r + 1) * feat].iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        }
    }
}

// ------------------------------------------------------ exp and sigmoid
//
// One polynomial `exp` (Cephes `expf`: reduce by `n = round(t·log2e)` with a
// two-part ln 2, a degree-5 polynomial on |r| ≤ ln2/2, scale by 2ⁿ through
// the exponent bits) evaluated with the same multiplies and adds at both
// levels, so the scalar mirror and the AVX2 body are bitwise equal.

/// Above this `exp` returns +∞ (2ⁿ would leave the exponent range; true
/// overflow is at 88.72).
const EXP_HI: f32 = 88.37;
/// Below this `exp` returns 0.0 (the result would be subnormal).
const EXP_LO: f32 = -87.33;
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split so `n · LN2_HI` is exact for |n| ≤ 128.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
const EXP_P: [f32; 6] =
    [1.987_569_1e-4, 1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_5e-1, 0.5];

/// Scalar mirror of the vector `exp`: within 1 ulp of the exact value on
/// `[EXP_LO, EXP_HI]`; +∞ above, 0.0 below, NaN for NaN.
#[inline]
fn exp_scalar(t: f32) -> f32 {
    // Operand order of the vector max/min: a NaN `t` survives both clamps.
    let lo = if EXP_LO > t { EXP_LO } else { t };
    let c = if EXP_HI < lo { EXP_HI } else { lo };
    let n = (c * LOG2E).round_ties_even();
    let r = c - n * LN2_HI;
    let r = r - n * LN2_LO;
    let z = r * r;
    let mut y = EXP_P[0];
    for &p in &EXP_P[1..] {
        y = y * r + p;
    }
    let y = y * z + r + 1.0;
    let scale = f32::from_bits(((n as i32 + 127) as u32) << 23);
    let e = y * scale;
    if t > EXP_HI {
        f32::INFINITY
    } else if t < EXP_LO {
        0.0
    } else {
        e
    }
}

/// Scalar mirror of the vector sigmoid `1 / (1 + exp(-v))`.
#[inline]
fn sigmoid_scalar(v: f32) -> f32 {
    1.0 / (1.0 + exp_scalar(-v))
}

/// `out[i] = exp(x[i])` through the shared polynomial: within 1 ulp of the
/// exact value on `[-87.33, 88.37]`, +∞ above, 0.0 below, NaN for NaN;
/// bitwise equal at both levels.
pub fn exp_slice(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "exp length mismatch");
    match level() {
        #[cfg(target_arch = "x86_64")]
        // Safety: Avx2Fma implies AVX2 at runtime; lengths checked above.
        SimdLevel::Avx2Fma => unsafe { avx2::map8::<false>(x, out) },
        _ => out.iter_mut().zip(x).for_each(|(o, &v)| *o = exp_scalar(v)),
    }
}

/// `out[i] = 1 / (1 + exp(-x[i]))` through the shared polynomial `exp`:
/// within 3 ulp of the exact logistic function wherever it is a normal
/// float, σ(±0) = 0.5, σ(+∞) = 1, σ(−∞) = 0 exactly, NaN for NaN; bitwise
/// equal at both levels.
pub fn sigmoid_slice(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "sigmoid length mismatch");
    match level() {
        #[cfg(target_arch = "x86_64")]
        // Safety: Avx2Fma implies AVX2 at runtime; lengths checked above.
        SimdLevel::Avx2Fma => unsafe { avx2::map8::<true>(x, out) },
        _ => out.iter_mut().zip(x).for_each(|(o, &v)| *o = sigmoid_scalar(v)),
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        exp_scalar, sigmoid_scalar, spmm_group_tail, RowGroup, TileArgs, EXP_HI, EXP_LO, EXP_P,
        LN2_HI, LN2_LO, LOG2E, MR, NR,
    };
    use std::arch::x86_64::*;

    /// Generates a fixed-row-count AVX2 tile body. The row count is a
    /// constant so the accumulator array stays in registers and the
    /// per-`k` row loop fully unrolls.
    macro_rules! avx2_tile_rows {
        ($name:ident, $rows:expr) => {
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn $name(args: TileArgs<'_>, out: &mut [f32]) {
                const R: usize = $rows;
                let TileArgs { a, a_base, a_rs, a_cs, bp, k, o_base, o_rs, cols, .. } = args;
                let ap = a.as_ptr().add(a_base);
                let bptr = bp.as_ptr();
                let mut acc = [_mm256_setzero_ps(); R];
                for kk in 0..k {
                    let bv = _mm256_loadu_ps(bptr.add(kk * NR));
                    for r in 0..R {
                        let av = _mm256_set1_ps(*ap.add(r * a_rs + kk * a_cs));
                        acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
                    }
                }
                if cols == NR {
                    for r in 0..R {
                        _mm256_storeu_ps(out.as_mut_ptr().add(o_base + r * o_rs), acc[r]);
                    }
                } else {
                    let mut lane = [0.0f32; NR];
                    for r in 0..R {
                        _mm256_storeu_ps(lane.as_mut_ptr(), acc[r]);
                        out[o_base + r * o_rs..o_base + r * o_rs + cols]
                            .copy_from_slice(&lane[..cols]);
                    }
                }
            }
        };
    }

    avx2_tile_rows!(tile_r1, 1);
    avx2_tile_rows!(tile_r2, 2);
    avx2_tile_rows!(tile_r3, 3);
    avx2_tile_rows!(tile_r4, 4);
    avx2_tile_rows!(tile_r5, 5);
    avx2_tile_rows!(tile_r6, 6);
    avx2_tile_rows!(tile_r7, 7);
    avx2_tile_rows!(tile_r8, 8);

    /// AVX2 body of [`super::spmm_group`]: dispatches on the group's row
    /// count to a fixed-shape kernel.
    ///
    /// # Safety
    /// Requires AVX2 at runtime; every union column must address a full
    /// `x` row and `out` must hold `rows × feat` floats.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn spmm_group(g: RowGroup<'_>, x: &[f32], feat: usize, out: &mut [f32]) {
        match g.rows {
            1 => spmm_group_rows::<1, 4>(g, x, feat, out),
            2 => spmm_group_rows::<2, 4>(g, x, feat, out),
            3 => spmm_group_rows::<3, 3>(g, x, feat, out),
            _ => spmm_group_rows::<4, 3>(g, x, feat, out),
        }
    }

    /// `R` rows in `L`-vector column blocks, then single-vector blocks,
    /// then the scalar masked walk past the last vector.
    ///
    /// # Safety
    /// As [`spmm_group`]: AVX2 at runtime, union columns address full `x`
    /// rows.
    #[target_feature(enable = "avx2")]
    unsafe fn spmm_group_rows<const R: usize, const L: usize>(
        g: RowGroup<'_>,
        x: &[f32],
        feat: usize,
        out: &mut [f32],
    ) {
        assert!(out.len() >= R * feat && g.values.len() >= g.cols.len() * R);
        let mut j = 0;
        while j + 8 * L <= feat {
            spmm_block::<R, L>(g, x, feat, j, out);
            j += 8 * L;
        }
        while j + 8 <= feat {
            spmm_block::<R, 1>(g, x, feat, j, out);
            j += 8;
        }
        if j < feat {
            spmm_group_tail(g, x, feat, j, out);
        }
    }

    /// Columns `[j, j + 8L)` of all `R` rows: each union entry's `x` block
    /// is loaded once and added, as `mul` then `add`, to every row whose
    /// mask bit is set; the accumulators are stored once at the end.
    ///
    /// # Safety
    /// AVX2 at runtime; `j + 8L <= feat`, `out` holds `R × feat` floats and
    /// every union column addresses a full `x` row.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn spmm_block<const R: usize, const L: usize>(
        g: RowGroup<'_>,
        x: &[f32],
        feat: usize,
        j: usize,
        out: &mut [f32],
    ) {
        let full = (1u8 << R) - 1;
        let (xp, vp) = (x.as_ptr(), g.values.as_ptr());
        let mut acc = [[_mm256_setzero_ps(); L]; R];
        for (u, (&c, &m)) in g.cols.iter().zip(g.masks).enumerate() {
            let xb = xp.add(c as usize * feat + j);
            let mut xv = [_mm256_setzero_ps(); L];
            for (q, v) in xv.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(xb.add(8 * q));
            }
            let vals = vp.add(u * R);
            if m == full {
                for (r, a) in acc.iter_mut().enumerate() {
                    let vv = _mm256_set1_ps(*vals.add(r));
                    for q in 0..L {
                        a[q] = _mm256_add_ps(a[q], _mm256_mul_ps(vv, xv[q]));
                    }
                }
            } else {
                for (r, a) in acc.iter_mut().enumerate() {
                    if m & (1 << r) != 0 {
                        let vv = _mm256_set1_ps(*vals.add(r));
                        for q in 0..L {
                            a[q] = _mm256_add_ps(a[q], _mm256_mul_ps(vv, xv[q]));
                        }
                    }
                }
            }
        }
        let op = out.as_mut_ptr();
        for (r, a) in acc.iter().enumerate() {
            for (q, v) in a.iter().enumerate() {
                _mm256_storeu_ps(op.add(r * feat + j + 8 * q), *v);
            }
        }
    }

    /// `out = exp(x)`, or `out = sigmoid(x)` when `SIGMOID`: eight lanes at
    /// a time, the scalar mirror on the remainder.
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn map8<const SIGMOID: bool>(x: &[f32], out: &mut [f32]) {
        let n = x.len().min(out.len());
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(i));
            let y = if SIGMOID { sigmoid8(v) } else { exp8(v) };
            _mm256_storeu_ps(out.as_mut_ptr().add(i), y);
            i += 8;
        }
        for (o, &v) in out[i..n].iter_mut().zip(&x[i..n]) {
            *o = if SIGMOID { sigmoid_scalar(v) } else { exp_scalar(v) };
        }
    }

    /// Eight lanes of [`super::exp_scalar`], operation for operation.
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn exp8(t: __m256) -> __m256 {
        let set = _mm256_set1_ps;
        // max/min return their second operand when either is NaN.
        let c = _mm256_min_ps(set(EXP_HI), _mm256_max_ps(set(EXP_LO), t));
        let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(c, set(LOG2E)),
        );
        let r = _mm256_sub_ps(c, _mm256_mul_ps(n, set(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, set(LN2_LO)));
        let z = _mm256_mul_ps(r, r);
        let mut y = set(EXP_P[0]);
        for &p in &EXP_P[1..] {
            y = _mm256_add_ps(_mm256_mul_ps(y, r), set(p));
        }
        let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), r), set(1.0));
        let bits = _mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(127),
        ));
        let e = _mm256_mul_ps(y, _mm256_castsi256_ps(bits));
        let over = _mm256_cmp_ps::<_CMP_GT_OQ>(t, set(EXP_HI));
        let under = _mm256_cmp_ps::<_CMP_LT_OQ>(t, set(EXP_LO));
        let e = _mm256_blendv_ps(e, set(f32::INFINITY), over);
        _mm256_blendv_ps(e, _mm256_setzero_ps(), under)
    }

    /// Eight lanes of [`super::sigmoid_scalar`].
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sigmoid8(v: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let neg = _mm256_xor_ps(v, _mm256_set1_ps(-0.0));
        _mm256_div_ps(one, _mm256_add_ps(one, exp8(neg)))
    }

    /// Dispatches on the (dynamic) row count to a fixed-row tile body.
    ///
    /// # Safety
    /// Requires AVX2+FMA at runtime and in-bounds `args` (the gemm driver
    /// guarantees both; bounds are additionally debug-asserted upstream).
    pub(super) unsafe fn tile(args: TileArgs<'_>, out: &mut [f32]) {
        debug_assert!(args.rows >= 1 && args.rows <= MR);
        match args.rows {
            1 => tile_r1(args, out),
            2 => tile_r2(args, out),
            3 => tile_r3(args, out),
            4 => tile_r4(args, out),
            5 => tile_r5(args, out),
            6 => tile_r6(args, out),
            7 => tile_r7(args, out),
            _ => tile_r8(args, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_tile(args: &TileArgs<'_>, out: &mut [f32]) {
        for r in 0..args.rows {
            for c in 0..args.cols {
                let mut acc = 0.0f32;
                for kk in 0..args.k {
                    acc +=
                        args.a[args.a_base + r * args.a_rs + kk * args.a_cs] * args.bp[kk * NR + c];
                }
                out[args.o_base + r * args.o_rs + c] = acc;
            }
        }
    }

    #[test]
    fn tiles_match_reference_on_all_row_col_counts() {
        let k = 13;
        let a: Vec<f32> = (0..MR * k).map(|i| ((i * 7) % 23) as f32 * 0.25 - 2.0).collect();
        for rows in 1..=MR {
            for cols in 1..=NR {
                let mut bp = vec![0.0f32; k * NR];
                for kk in 0..k {
                    for c in 0..cols {
                        bp[kk * NR + c] = ((kk * 5 + c * 3) % 17) as f32 * 0.5 - 4.0;
                    }
                }
                let args = TileArgs {
                    a: &a,
                    a_base: 0,
                    a_rs: k,
                    a_cs: 1,
                    bp: &bp,
                    k,
                    o_base: 0,
                    o_rs: NR,
                    rows,
                    cols,
                };
                let mut want = vec![0.0f32; MR * NR];
                reference_tile(&args, &mut want);
                for lvl in [SimdLevel::Scalar, level()] {
                    let mut got = vec![0.0f32; MR * NR];
                    tile(lvl, args, &mut got);
                    for i in 0..MR * NR {
                        assert!(
                            (got[i] - want[i]).abs() <= 1e-4 * want[i].abs().max(1.0),
                            "{lvl:?} rows={rows} cols={cols} idx={i}: {} vs {}",
                            got[i],
                            want[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn strided_a_access_matches_contiguous() {
        // A transposed view (a_cs > 1) must be bitwise identical to the
        // same logical matrix read contiguously.
        let k = 9;
        let m = 4;
        let mut a_t = vec![0.0f32; m * k]; // column-major storage
        for r in 0..m {
            for kk in 0..k {
                a_t[kk * m + r] = (r * 10 + kk) as f32 * 0.3;
            }
        }
        let a_c: Vec<f32> =
            (0..m).flat_map(|r| (0..k).map(move |kk| (r * 10 + kk) as f32 * 0.3)).collect();
        let bp: Vec<f32> = (0..k * NR).map(|i| (i % 11) as f32 * 0.1).collect();
        let run = |a: &[f32], rs: usize, cs: usize| {
            let mut out = vec![0.0f32; MR * NR];
            let args = TileArgs {
                a,
                a_base: 0,
                a_rs: rs,
                a_cs: cs,
                bp: &bp,
                k,
                o_base: 0,
                o_rs: NR,
                rows: m,
                cols: NR,
            };
            tile(level(), args, &mut out);
            out
        };
        assert_eq!(run(&a_c, k, 1), run(&a_t, 1, m));
    }

    #[test]
    fn with_level_forces_and_restores() {
        let base = level();
        with_level(SimdLevel::Scalar, || {
            assert_eq!(level(), SimdLevel::Scalar);
        });
        assert_eq!(level(), base);
    }
}
