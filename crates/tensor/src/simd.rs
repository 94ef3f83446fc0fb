//! Runtime-dispatched SIMD micro-kernels for the packed matmul path, plus
//! the row kernel of the CSR spmm (`spmm_row`).
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
//! The spmm row kernel uses a separate multiply and add at both levels, so
//! its two paths are bitwise equal.

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

/// Columns per register block of [`spmm_row`]'s SIMD body: four `f32x8`
/// accumulators.
const SPMM_BLOCK: usize = 32;

/// One output row of a CSR × dense product: `out[j] += Σ_e values[e] ·
/// x[cols[e]·feat + j]` over a zeroed `out` of length `feat`, the entries
/// taken in stored order, each as a separate multiply then add.
///
/// Both levels perform exactly these IEEE operations per element, in this
/// order, from 0.0, so they are bitwise equal. The AVX2 body keeps each
/// [`SPMM_BLOCK`]-column block in registers across all of the row's entries
/// and stores it once, then runs single-vector blocks and a scalar tail.
/// It deliberately uses `mul` + `add`, not FMA: a fused multiply-add skips
/// the product's rounding and would break that equality.
#[inline]
pub(crate) fn spmm_row(
    level: SimdLevel,
    cols: &[usize],
    values: &[f32],
    x: &[f32],
    feat: usize,
    out: &mut [f32],
) {
    assert_eq!(out.len(), feat, "spmm row length mismatch");
    assert_eq!(cols.len(), values.len(), "spmm entry count mismatch");
    match level {
        #[cfg(target_arch = "x86_64")]
        // Safety: `level` is only Avx2Fma when the CPU reported AVX2 (or a
        // test forced it on a machine that has it); every load and store is
        // inside a bounds-checked slice of `x` or `out`.
        SimdLevel::Avx2Fma => unsafe { avx2::spmm_row(cols, values, x, feat, out) },
        _ => spmm_tail(cols, values, x, feat, 0, out),
    }
}

/// The plain row loop over columns `[from, feat)`: one pass of
/// `out += v · x_row` per stored entry.
fn spmm_tail(cols: &[usize], values: &[f32], x: &[f32], feat: usize, from: usize, out: &mut [f32]) {
    for (&c, &v) in cols.iter().zip(values) {
        let xrow = &x[c * feat + from..(c + 1) * feat];
        for (o, &xv) in out[from..].iter_mut().zip(xrow) {
            *o += v * xv;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{spmm_tail, TileArgs, MR, NR, SPMM_BLOCK};
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

    /// AVX2 body of [`super::spmm_row`]: register-blocked columns, mul +
    /// add per entry in stored order, a scalar tail past the last vector.
    ///
    /// # Safety
    /// Requires AVX2 at runtime. `out.len() == feat` (asserted by the
    /// caller); every `x` access goes through a bounds-checked slice.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn spmm_row(
        cols: &[usize],
        values: &[f32],
        x: &[f32],
        feat: usize,
        out: &mut [f32],
    ) {
        const LANES: usize = SPMM_BLOCK / 8;
        let mut j = 0;
        while j + SPMM_BLOCK <= feat {
            let mut acc = [_mm256_setzero_ps(); LANES];
            for (&c, &v) in cols.iter().zip(values) {
                let xb = x[c * feat + j..c * feat + j + SPMM_BLOCK].as_ptr();
                let vv = _mm256_set1_ps(v);
                for (q, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(vv, _mm256_loadu_ps(xb.add(8 * q))));
                }
            }
            let ob = out[j..j + SPMM_BLOCK].as_mut_ptr();
            for (q, a) in acc.iter().enumerate() {
                _mm256_storeu_ps(ob.add(8 * q), *a);
            }
            j += SPMM_BLOCK;
        }
        while j + 8 <= feat {
            let mut acc = _mm256_setzero_ps();
            for (&c, &v) in cols.iter().zip(values) {
                let xv = _mm256_loadu_ps(x[c * feat + j..c * feat + j + 8].as_ptr());
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(v), xv));
            }
            _mm256_storeu_ps(out[j..j + 8].as_mut_ptr(), acc);
            j += 8;
        }
        if j < feat {
            spmm_tail(cols, values, x, feat, j, out);
        }
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
