//! Runtime-dispatched SIMD micro-kernels for the packed matmul path, the
//! gated two-panel tile of the fused GCN layer ([`gated_tile`]), the
//! row-group kernel of the CSR spmm (`spmm_group`), and the polynomial
//! `exp`/sigmoid ([`exp_slice`], [`sigmoid_slice`]).
//!
//! The unit of work is an `MR × NR` register tile: up to `MR` rows of `A`
//! (read through arbitrary strides) against one packed `B` panel (`k × NR`
//! contiguous, zero-padded to `NR` columns), accumulated over the full `k`
//! extent in ascending order and written to the output once, after an
//! optional bias add on the finished accumulator. Keeping the entire
//! accumulation for an output element inside a single tile call is what
//! makes the blocked kernel bit-deterministic for any thread count and any
//! strip/panel partitioning (see [`crate::gemm`]).
//!
//! Three implementations are provided; the process runs the highest level
//! the CPU has:
//!
//! * **Avx512** — AVX-512F intrinsics: one 16-lane `f32` vector per tile
//!   row, fused multiply-add; 16-lane spmm blocks and `exp`.
//! * **Avx2Fma** — AVX2+FMA intrinsics: the 16-column panel as two 8-lane
//!   halves, each over the full `k`, fused multiply-add.
//! * **Scalar** — a portable mirror of the same blocking with plain
//!   multiply-then-add, used when the CPU lacks AVX2/FMA or when
//!   `STSM_SIMD=off|0|false|scalar` forces it.
//!
//! Every body performs, per output element, one fixed sequence of IEEE
//! operations, so the levels agree bit for bit wherever they share that
//! sequence: the Avx512 and Avx2Fma tiles both accumulate one FMA per `k`
//! from 0.0 in ascending order and are bitwise equal; the scalar tile may
//! differ from them in the last ulp (FMA does not round the intermediate
//! product), and stays within the `kernel_tiling_equivalence` tolerance of
//! the i-k-j oracle `matmul_raw`. The spmm group kernel and the polynomial `exp` use
//! separate multiplies and adds at every level, so all three are bitwise
//! equal there.

use std::cell::Cell;
use std::sync::OnceLock;

/// Rows per micro-tile.
pub const MR: usize = 8;
/// Columns per micro-tile: one AVX-512 `f32` vector, or two AVX2 halves.
pub const NR: usize = 16;

/// Which micro-kernel implementation the process dispatches to, ordered by
/// capability (`Scalar < Avx2Fma < Avx512`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SimdLevel {
    /// Portable scalar blocking (also the `STSM_SIMD=off` path).
    Scalar,
    /// AVX2 + FMA intrinsics (x86-64, runtime-detected).
    Avx2Fma,
    /// AVX-512F intrinsics (x86-64, runtime-detected; implies AVX2 + FMA).
    Avx512,
}

thread_local! {
    /// Per-thread override used by tests to exercise every path in-process;
    /// see [`with_level`].
    static LEVEL_OVERRIDE: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// The process-wide dispatch level: `STSM_SIMD=off|0|false|scalar` forces
/// [`SimdLevel::Scalar`]; otherwise the highest level the CPU has.
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
        detected()
    })
}

/// The highest level this CPU can execute, probed once.
fn detected() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    use std::arch::is_x86_feature_detected as has;
    if !(has!("avx2") && has!("fma")) {
        SimdLevel::Scalar
    } else if has!("avx512f") {
        SimdLevel::Avx512
    } else {
        SimdLevel::Avx2Fma
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdLevel {
    SimdLevel::Scalar
}

/// Every level this CPU can execute, in ascending order, whatever
/// `STSM_SIMD` says: the levels the equivalence suites compare.
#[doc(hidden)]
pub fn supported_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512]
        .into_iter()
        .filter(|&l| l <= detected())
        .collect()
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
/// the equivalence tests can compare the levels in one process without
/// touching the environment. A level the CPU lacks is clamped to the
/// highest one it has, so forcing never executes an unsupported
/// instruction.
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LEVEL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = LEVEL_OVERRIDE.with(|c| c.replace(Some(level.min(detected()))));
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
/// * The output is written (not accumulated into) at `o_base + r * o_rs + c`,
///   as `acc + bias[c]` when a bias is given: the same single add a separate
///   bias pass over the stored accumulator would make.
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
    /// The panel's `NR` bias lanes (zero past `cols`), added to the
    /// finished accumulator before the store.
    pub bias: Option<&'a [f32]>,
}

impl TileArgs<'_> {
    #[inline]
    fn debug_check(&self, out_len: usize) {
        debug_assert!(self.rows >= 1 && self.rows <= MR);
        debug_assert!(self.cols >= 1 && self.cols <= NR);
        debug_assert!(self.k * NR <= self.bp.len());
        debug_assert!(self.bias.is_none_or(|b| b.len() >= NR));
        if self.k > 0 {
            let a_last = self.a_base + (self.rows - 1) * self.a_rs + (self.k - 1) * self.a_cs;
            debug_assert!(a_last < self.a.len(), "tile A access out of bounds");
        }
        let o_last = self.o_base + (self.rows - 1) * self.o_rs + self.cols - 1;
        debug_assert!(o_last < out_len, "tile out access out of bounds");
    }
}

/// Computes one micro-tile with the given dispatch level (clamped to the
/// levels the CPU has).
#[inline]
pub fn tile(level: SimdLevel, args: TileArgs<'_>, out: &mut [f32]) {
    args.debug_check(out.len());
    match level.min(detected()) {
        // Safety (both arms): the clamp above leaves only levels the CPU
        // reported; bounds were debug-checked above and are guaranteed by
        // the gemm driver.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { avx512::tile(args, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::tile(args, out) },
        _ => scalar_tile(args, out),
    }
}

/// Portable mirror of the vector tiles: same blocking, same ascending-`k`
/// accumulation order, plain multiply-then-add arithmetic.
fn scalar_tile(args: TileArgs<'_>, out: &mut [f32]) {
    let TileArgs { o_base, o_rs, rows, cols, bias, .. } = args;
    let acc = scalar_acc(&args, args.bp);
    for (r, accr) in acc.iter().enumerate().take(rows) {
        let o = &mut out[o_base + r * o_rs..o_base + r * o_rs + cols];
        match bias {
            Some(b) => o.iter_mut().zip(accr).zip(b).for_each(|((o, &v), &bv)| *o = v + bv),
            None => o.copy_from_slice(&accr[..cols]),
        }
    }
}

/// The scalar tile's accumulators for `args`' rows of `A` against panel
/// `bp`: one multiply then add per `k`, ascending from 0.0.
fn scalar_acc(args: &TileArgs<'_>, bp: &[f32]) -> [[f32; NR]; MR] {
    let TileArgs { a, a_base, a_rs, a_cs, k, rows, .. } = *args;
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
    acc
}

/// Arguments of one gated tile (see [`gated_tile`]): `value` is an
/// ordinary tile over the value weight's panel, whose `bias` (required) is
/// the value bias; `gate` is the gate weight's panel for the same columns
/// and `gate_bias` its `NR` bias lanes.
#[derive(Clone, Copy)]
pub(crate) struct GatedTileArgs<'a> {
    /// `A`, the value panel and bias, `k`, and the output placement.
    pub value: TileArgs<'a>,
    /// The gate weight's packed panel (`k × NR`, zero-padded columns).
    pub gate: &'a [f32],
    /// The gate bias lanes (`NR`, zero past `cols`).
    pub gate_bias: &'a [f32],
}

/// The value and sigmoid outputs a gated tile also stores, at the output's
/// positions, when the caller keeps them (the tape's backward needs both).
pub(crate) type GatedSaved<'a> = Option<(&'a mut [f32], &'a mut [f32])>;

/// One gated tile of the fused GCN layer: the same `A` rows against the
/// value and the gate panel, accumulated like two [`tile`] calls, then in
/// registers `v = acc_v + b_v`, `s = σ(acc_g + b_g)` and `out = v · s`,
/// each output element stored once (and `v`, `s` into `saved` when given).
///
/// Per element this is the composed chain's sequence of IEEE operations:
/// the two affine tiles, the bias adds, the shared polynomial sigmoid
/// (bitwise equal at every level) and the product — so the result is
/// bitwise equal to `addmm`, `addmm`, `sigmoid`, `mul` at the same level.
#[inline]
pub(crate) fn gated_tile(
    level: SimdLevel,
    args: GatedTileArgs<'_>,
    out: &mut [f32],
    saved: GatedSaved<'_>,
) {
    // Checked in release too: the vector bodies read and store through raw
    // pointers, and the checks cost nothing next to the tile's 2·MR·NR·k
    // multiply-adds.
    let v = &args.value;
    assert!((1..=MR).contains(&v.rows) && (1..=NR).contains(&v.cols), "gated tile shape");
    assert!(v.k * NR <= v.bp.len() && v.k * NR <= args.gate.len(), "gated tile panels");
    assert!(v.bias.is_some_and(|b| b.len() >= NR) && args.gate_bias.len() >= NR, "gated biases");
    assert!(
        v.k == 0 || v.a_base + (v.rows - 1) * v.a_rs + (v.k - 1) * v.a_cs < v.a.len(),
        "gated tile A access out of bounds"
    );
    assert!(v.o_base + (v.rows - 1) * v.o_rs + v.cols <= out.len(), "gated tile out of bounds");
    assert!(
        saved.as_ref().is_none_or(|(sv, ss)| sv.len() == out.len() && ss.len() == out.len()),
        "gated tile saved buffers must match the output"
    );
    match level.min(detected()) {
        // Safety (both arms): the clamp above leaves only levels the CPU
        // reported, and the asserts above bound every access.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { avx512::gated_tile(args, out, saved) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::gated_tile(args, out, saved) },
        _ => scalar_gated_tile(args, out, saved),
    }
}

/// Portable mirror of the vector gated tiles.
fn scalar_gated_tile(args: GatedTileArgs<'_>, out: &mut [f32], mut saved: GatedSaved<'_>) {
    let GatedTileArgs { value, gate, gate_bias } = args;
    let TileArgs { o_base, o_rs, rows, cols, .. } = value;
    let bias = value.bias.expect("gated tile needs the value bias");
    let (acc_v, acc_g) = (scalar_acc(&value, value.bp), scalar_acc(&value, gate));
    for r in 0..rows {
        for c in 0..cols {
            let o = o_base + r * o_rs + c;
            let v = acc_v[r][c] + bias[c];
            let s = sigmoid_scalar(acc_g[r][c] + gate_bias[c]);
            out[o] = v * s;
            if let Some((vs, ss)) = saved.as_mut() {
                vs[o] = v;
                ss[o] = s;
            }
        }
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
/// output element, so every level is bitwise equal to it. The vector
/// bodies load each `x` block once per union entry for all rows of the
/// group and keep `rows × block` accumulators in registers, then run
/// one-vector blocks and a scalar tail: AVX-512 in 64-column blocks (4
/// ZMM per row), AVX2 in 32 columns for 1–2 rows and 24 for 3–4. They use
/// `mul` + `add`, not FMA: a fused multiply-add skips the product's
/// rounding.
///
/// # Safety
/// `level` must be one the CPU has (any value [`level`] returns). Every
/// union column `c` of `g` must address a full `x` row:
/// `(c + 1) · feat <= x.len()` (the vector bodies load without bounds
/// checks).
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
        // Safety (both arms): the caller guarantees the CPU has `level` and
        // that every union column addresses a full `x` row.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { avx512::spmm_group(g, x, feat, out) },
        #[cfg(target_arch = "x86_64")]
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
// the exponent bits) evaluated with the same multiplies and adds at every
// level, so the scalar mirror and the AVX2 and AVX-512 bodies are bitwise
// equal.

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
/// bitwise equal at every level.
pub fn exp_slice(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "exp length mismatch");
    match level() {
        // Safety (both arms): `level()` returns only levels the CPU has;
        // lengths checked above.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { avx512::map16::<false>(x, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::map8::<false>(x, out) },
        _ => out.iter_mut().zip(x).for_each(|(o, &v)| *o = exp_scalar(v)),
    }
}

/// `out[i] = 1 / (1 + exp(-x[i]))` through the shared polynomial `exp`:
/// within 3 ulp of the exact logistic function wherever it is a normal
/// float, σ(±0) = 0.5, σ(+∞) = 1, σ(−∞) = 0 exactly, NaN for NaN; bitwise
/// equal at every level.
pub fn sigmoid_slice(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "sigmoid length mismatch");
    match level() {
        // Safety (both arms): `level()` returns only levels the CPU has;
        // lengths checked above.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { avx512::map16::<true>(x, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::map8::<true>(x, out) },
        _ => out.iter_mut().zip(x).for_each(|(o, &v)| *o = sigmoid_scalar(v)),
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        exp_scalar, sigmoid_scalar, spmm_group_tail, GatedSaved, GatedTileArgs, RowGroup, TileArgs,
        EXP_HI, EXP_LO, EXP_P, LN2_HI, LN2_LO, LOG2E, MR, NR,
    };
    use std::arch::x86_64::*;

    /// Generates a fixed-row-count AVX2 tile body. The row count is a
    /// constant so the accumulator array stays in registers and the
    /// per-`k` row loop fully unrolls. The 16-column panel runs as two
    /// 8-lane halves, each over the full `k`, so only `R` accumulators are
    /// live (two halves at once would need 2R + 2 of the 16 YMM registers).
    macro_rules! avx2_tile_rows {
        ($name:ident, $rows:expr) => {
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn $name(args: TileArgs<'_>, out: &mut [f32]) {
                const R: usize = $rows;
                let TileArgs { a, a_base, a_rs, a_cs, bp, k, o_base, o_rs, cols, bias, .. } = args;
                let ap = a.as_ptr().add(a_base);
                for c0 in (0..cols).step_by(8) {
                    let bptr = bp.as_ptr().add(c0);
                    let mut acc = [_mm256_setzero_ps(); R];
                    for kk in 0..k {
                        let bv = _mm256_loadu_ps(bptr.add(kk * NR));
                        for r in 0..R {
                            let av = _mm256_set1_ps(*ap.add(r * a_rs + kk * a_cs));
                            acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
                        }
                    }
                    if let Some(b) = bias {
                        let bb = _mm256_loadu_ps(b.as_ptr().add(c0));
                        for r in 0..R {
                            acc[r] = _mm256_add_ps(acc[r], bb);
                        }
                    }
                    let n = (cols - c0).min(8);
                    if n == 8 {
                        for r in 0..R {
                            _mm256_storeu_ps(out.as_mut_ptr().add(o_base + r * o_rs + c0), acc[r]);
                        }
                    } else {
                        let mut lane = [0.0f32; 8];
                        for r in 0..R {
                            _mm256_storeu_ps(lane.as_mut_ptr(), acc[r]);
                            let o = o_base + r * o_rs + c0;
                            out[o..o + n].copy_from_slice(&lane[..n]);
                        }
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

    /// AVX2 body of [`super::gated_tile`]: at most four rows per pass (two
    /// accumulators per row, 2R + 3 of the 16 YMM registers), so an 8-row
    /// strip runs as two passes over the same panels.
    ///
    /// # Safety
    /// Requires AVX2+FMA at runtime and in-bounds `args` (asserted by
    /// [`super::gated_tile`]).
    pub(super) unsafe fn gated_tile(
        args: GatedTileArgs<'_>,
        out: &mut [f32],
        mut saved: GatedSaved<'_>,
    ) {
        let rows = args.value.rows;
        let mut r0 = 0;
        while r0 < rows {
            let v = args.value;
            let part = GatedTileArgs {
                value: TileArgs {
                    a_base: v.a_base + r0 * v.a_rs,
                    o_base: v.o_base + r0 * v.o_rs,
                    rows: (rows - r0).min(4),
                    ..v
                },
                ..args
            };
            let sv = saved.as_mut().map(|(vs, ss)| (&mut **vs, &mut **ss));
            match part.value.rows {
                1 => gated_rows::<1>(part, out, sv),
                2 => gated_rows::<2>(part, out, sv),
                3 => gated_rows::<3>(part, out, sv),
                _ => gated_rows::<4>(part, out, sv),
            }
            r0 += 4;
        }
    }

    /// `R` rows of the gated tile, per 8-lane half of the panel: both
    /// accumulators over the full `k` (one FMA each per `k`), then the bias
    /// adds, [`sigmoid8`] and the product in registers.
    ///
    /// # Safety
    /// As [`gated_tile`].
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gated_rows<const R: usize>(
        args: GatedTileArgs<'_>,
        out: &mut [f32],
        mut saved: GatedSaved<'_>,
    ) {
        let GatedTileArgs { value, gate, gate_bias } = args;
        let TileArgs { a, a_base, a_rs, a_cs, bp, k, o_base, o_rs, cols, bias, .. } = value;
        let bias = bias.expect("gated tile needs the value bias");
        let ap = a.as_ptr().add(a_base);
        for c0 in (0..cols).step_by(8) {
            let (pv, pg) = (bp.as_ptr().add(c0), gate.as_ptr().add(c0));
            let mut acc_v = [_mm256_setzero_ps(); R];
            let mut acc_g = [_mm256_setzero_ps(); R];
            for kk in 0..k {
                let bv = _mm256_loadu_ps(pv.add(kk * NR));
                let bg = _mm256_loadu_ps(pg.add(kk * NR));
                for r in 0..R {
                    let av = _mm256_set1_ps(*ap.add(r * a_rs + kk * a_cs));
                    acc_v[r] = _mm256_fmadd_ps(av, bv, acc_v[r]);
                    acc_g[r] = _mm256_fmadd_ps(av, bg, acc_g[r]);
                }
            }
            let bias_v = _mm256_loadu_ps(bias.as_ptr().add(c0));
            let bias_g = _mm256_loadu_ps(gate_bias.as_ptr().add(c0));
            let n = (cols - c0).min(8);
            for r in 0..R {
                let v = _mm256_add_ps(acc_v[r], bias_v);
                let s = sigmoid8(_mm256_add_ps(acc_g[r], bias_g));
                let o = o_base + r * o_rs + c0;
                store8(&mut out[o..o + n], _mm256_mul_ps(v, s));
                if let Some((vs, ss)) = saved.as_mut() {
                    store8(&mut vs[o..o + n], v);
                    store8(&mut ss[o..o + n], s);
                }
            }
        }
    }

    /// Stores the first `dst.len()` (at most 8) lanes of `v`.
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store8(dst: &mut [f32], v: __m256) {
        if dst.len() == 8 {
            _mm256_storeu_ps(dst.as_mut_ptr(), v);
        } else {
            let mut lane = [0.0f32; 8];
            _mm256_storeu_ps(lane.as_mut_ptr(), v);
            dst.copy_from_slice(&lane[..dst.len()]);
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

/// The AVX-512F bodies: the AVX2 bodies' operation sequences on 16 lanes.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{
        exp_scalar, sigmoid_scalar, spmm_group_tail, GatedSaved, GatedTileArgs, RowGroup, TileArgs,
        EXP_HI, EXP_LO, EXP_P, LN2_HI, LN2_LO, LOG2E, MR, NR,
    };
    use std::arch::x86_64::*;

    /// Generates a fixed-row-count AVX-512 tile body: one ZMM accumulator
    /// per row over the whole 16-column panel, stored through a lane mask
    /// when the panel is partial.
    macro_rules! avx512_tile_rows {
        ($name:ident, $rows:expr) => {
            #[target_feature(enable = "avx512f")]
            unsafe fn $name(args: TileArgs<'_>, out: &mut [f32]) {
                const R: usize = $rows;
                let TileArgs { a, a_base, a_rs, a_cs, bp, k, o_base, o_rs, cols, bias, .. } = args;
                let ap = a.as_ptr().add(a_base);
                let bptr = bp.as_ptr();
                let mut acc = [_mm512_setzero_ps(); R];
                for kk in 0..k {
                    let bv = _mm512_loadu_ps(bptr.add(kk * NR));
                    for r in 0..R {
                        let av = _mm512_set1_ps(*ap.add(r * a_rs + kk * a_cs));
                        acc[r] = _mm512_fmadd_ps(av, bv, acc[r]);
                    }
                }
                if let Some(b) = bias {
                    let bb = _mm512_loadu_ps(b.as_ptr());
                    for r in 0..R {
                        acc[r] = _mm512_add_ps(acc[r], bb);
                    }
                }
                let mask: __mmask16 = u16::MAX >> (NR - cols);
                for r in 0..R {
                    _mm512_mask_storeu_ps(out.as_mut_ptr().add(o_base + r * o_rs), mask, acc[r]);
                }
            }
        };
    }

    avx512_tile_rows!(tile_r1, 1);
    avx512_tile_rows!(tile_r2, 2);
    avx512_tile_rows!(tile_r3, 3);
    avx512_tile_rows!(tile_r4, 4);
    avx512_tile_rows!(tile_r5, 5);
    avx512_tile_rows!(tile_r6, 6);
    avx512_tile_rows!(tile_r7, 7);
    avx512_tile_rows!(tile_r8, 8);

    /// Dispatches on the (dynamic) row count to a fixed-row tile body.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime and in-bounds `args` (the gemm driver
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

    /// AVX-512 body of [`super::gated_tile`]: dispatches on the row count
    /// to a fixed-row body.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime and in-bounds `args` (asserted by
    /// [`super::gated_tile`]).
    pub(super) unsafe fn gated_tile(
        args: GatedTileArgs<'_>,
        out: &mut [f32],
        saved: GatedSaved<'_>,
    ) {
        match args.value.rows {
            1 => gated_rows::<1>(args, out, saved),
            2 => gated_rows::<2>(args, out, saved),
            3 => gated_rows::<3>(args, out, saved),
            4 => gated_rows::<4>(args, out, saved),
            5 => gated_rows::<5>(args, out, saved),
            6 => gated_rows::<6>(args, out, saved),
            7 => gated_rows::<7>(args, out, saved),
            _ => gated_rows::<8>(args, out, saved),
        }
    }

    /// `R` rows of the gated tile: one ZMM accumulator per row and panel
    /// (2R of the 32 registers), one FMA each per `k`, then the bias adds,
    /// [`sigmoid16`] and the product in registers, stored through a lane
    /// mask when the panel is partial.
    ///
    /// # Safety
    /// As [`gated_tile`].
    #[target_feature(enable = "avx512f")]
    unsafe fn gated_rows<const R: usize>(
        args: GatedTileArgs<'_>,
        out: &mut [f32],
        mut saved: GatedSaved<'_>,
    ) {
        let GatedTileArgs { value, gate, gate_bias } = args;
        let TileArgs { a, a_base, a_rs, a_cs, bp, k, o_base, o_rs, cols, bias, .. } = value;
        let bias = bias.expect("gated tile needs the value bias");
        let ap = a.as_ptr().add(a_base);
        let (pv, pg) = (bp.as_ptr(), gate.as_ptr());
        let mut acc_v = [_mm512_setzero_ps(); R];
        let mut acc_g = [_mm512_setzero_ps(); R];
        for kk in 0..k {
            let bv = _mm512_loadu_ps(pv.add(kk * NR));
            let bg = _mm512_loadu_ps(pg.add(kk * NR));
            for r in 0..R {
                let av = _mm512_set1_ps(*ap.add(r * a_rs + kk * a_cs));
                acc_v[r] = _mm512_fmadd_ps(av, bv, acc_v[r]);
                acc_g[r] = _mm512_fmadd_ps(av, bg, acc_g[r]);
            }
        }
        let bias_v = _mm512_loadu_ps(bias.as_ptr());
        let bias_g = _mm512_loadu_ps(gate_bias.as_ptr());
        let mask: __mmask16 = u16::MAX >> (NR - cols);
        for r in 0..R {
            let v = _mm512_add_ps(acc_v[r], bias_v);
            let s = sigmoid16(_mm512_add_ps(acc_g[r], bias_g));
            let o = o_base + r * o_rs;
            _mm512_mask_storeu_ps(out.as_mut_ptr().add(o), mask, _mm512_mul_ps(v, s));
            if let Some((vs, ss)) = saved.as_mut() {
                _mm512_mask_storeu_ps(vs.as_mut_ptr().add(o), mask, v);
                _mm512_mask_storeu_ps(ss.as_mut_ptr().add(o), mask, s);
            }
        }
    }

    /// AVX-512 body of [`super::spmm_group`]: dispatches on the group's
    /// row count to a fixed-shape kernel.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime; every union column must address a full
    /// `x` row and `out` must hold `rows × feat` floats.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn spmm_group(g: RowGroup<'_>, x: &[f32], feat: usize, out: &mut [f32]) {
        match g.rows {
            1 => spmm_group_rows::<1>(g, x, feat, out),
            2 => spmm_group_rows::<2>(g, x, feat, out),
            3 => spmm_group_rows::<3>(g, x, feat, out),
            _ => spmm_group_rows::<4>(g, x, feat, out),
        }
    }

    /// `R` rows in 64-column blocks (4 ZMM accumulators per row, at most 16
    /// of the 32 registers), then 16-column blocks, then the scalar masked
    /// walk past the last vector.
    ///
    /// # Safety
    /// As [`spmm_group`]: AVX-512F at runtime, union columns address full
    /// `x` rows.
    #[target_feature(enable = "avx512f")]
    unsafe fn spmm_group_rows<const R: usize>(
        g: RowGroup<'_>,
        x: &[f32],
        feat: usize,
        out: &mut [f32],
    ) {
        assert!(out.len() >= R * feat && g.values.len() >= g.cols.len() * R);
        let mut j = 0;
        while j + 64 <= feat {
            spmm_block::<R, 4>(g, x, feat, j, out);
            j += 64;
        }
        while j + 16 <= feat {
            spmm_block::<R, 1>(g, x, feat, j, out);
            j += 16;
        }
        if j < feat {
            spmm_group_tail(g, x, feat, j, out);
        }
    }

    /// Columns `[j, j + 16L)` of all `R` rows: each union entry's `x` block
    /// is loaded once and added, as `mul` then `add`, to every row whose
    /// mask bit is set; the accumulators are stored once at the end.
    ///
    /// # Safety
    /// AVX-512F at runtime; `j + 16L <= feat`, `out` holds `R × feat`
    /// floats and every union column addresses a full `x` row.
    #[target_feature(enable = "avx512f")]
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
        let mut acc = [[_mm512_setzero_ps(); L]; R];
        for (u, (&c, &m)) in g.cols.iter().zip(g.masks).enumerate() {
            let xb = xp.add(c as usize * feat + j);
            let mut xv = [_mm512_setzero_ps(); L];
            for (q, v) in xv.iter_mut().enumerate() {
                *v = _mm512_loadu_ps(xb.add(16 * q));
            }
            let vals = vp.add(u * R);
            if m == full {
                for (r, a) in acc.iter_mut().enumerate() {
                    let vv = _mm512_set1_ps(*vals.add(r));
                    for q in 0..L {
                        a[q] = _mm512_add_ps(a[q], _mm512_mul_ps(vv, xv[q]));
                    }
                }
            } else {
                for (r, a) in acc.iter_mut().enumerate() {
                    if m & (1 << r) != 0 {
                        let vv = _mm512_set1_ps(*vals.add(r));
                        for q in 0..L {
                            a[q] = _mm512_add_ps(a[q], _mm512_mul_ps(vv, xv[q]));
                        }
                    }
                }
            }
        }
        let op = out.as_mut_ptr();
        for (r, a) in acc.iter().enumerate() {
            for (q, v) in a.iter().enumerate() {
                _mm512_storeu_ps(op.add(r * feat + j + 16 * q), *v);
            }
        }
    }

    /// `out = exp(x)`, or `out = sigmoid(x)` when `SIGMOID`: sixteen lanes
    /// at a time, the scalar mirror on the remainder.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn map16<const SIGMOID: bool>(x: &[f32], out: &mut [f32]) {
        let n = x.len().min(out.len());
        let mut i = 0;
        while i + 16 <= n {
            let v = _mm512_loadu_ps(x.as_ptr().add(i));
            let y = if SIGMOID { sigmoid16(v) } else { exp16(v) };
            _mm512_storeu_ps(out.as_mut_ptr().add(i), y);
            i += 16;
        }
        for (o, &v) in out[i..n].iter_mut().zip(&x[i..n]) {
            *o = if SIGMOID { sigmoid_scalar(v) } else { exp_scalar(v) };
        }
    }

    /// Sixteen lanes of [`super::exp_scalar`], operation for operation.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn exp16(t: __m512) -> __m512 {
        let set = _mm512_set1_ps;
        // max/min return their second operand when either is NaN.
        let c = _mm512_min_ps(set(EXP_HI), _mm512_max_ps(set(EXP_LO), t));
        let n = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm512_mul_ps(c, set(LOG2E)),
        );
        let r = _mm512_sub_ps(c, _mm512_mul_ps(n, set(LN2_HI)));
        let r = _mm512_sub_ps(r, _mm512_mul_ps(n, set(LN2_LO)));
        let z = _mm512_mul_ps(r, r);
        let mut y = set(EXP_P[0]);
        for &p in &EXP_P[1..] {
            y = _mm512_add_ps(_mm512_mul_ps(y, r), set(p));
        }
        let y = _mm512_add_ps(_mm512_add_ps(_mm512_mul_ps(y, z), r), set(1.0));
        let bits = _mm512_slli_epi32::<23>(_mm512_add_epi32(
            _mm512_cvtps_epi32(n),
            _mm512_set1_epi32(127),
        ));
        let e = _mm512_mul_ps(y, _mm512_castsi512_ps(bits));
        let over = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(t, set(EXP_HI));
        let under = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(t, set(EXP_LO));
        let e = _mm512_mask_blend_ps(over, e, set(f32::INFINITY));
        _mm512_mask_blend_ps(under, e, _mm512_setzero_ps())
    }

    /// Sixteen lanes of [`super::sigmoid_scalar`]. The sign flips through
    /// an integer xor: `_mm512_xor_ps` needs AVX512DQ.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn sigmoid16(v: __m512) -> __m512 {
        let one = _mm512_set1_ps(1.0);
        let neg = _mm512_castsi512_ps(_mm512_xor_si512(
            _mm512_castps_si512(v),
            _mm512_set1_epi32(i32::MIN),
        ));
        _mm512_div_ps(one, _mm512_add_ps(one, exp16(neg)))
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
                    bias: None,
                };
                // NaN marks the outputs the tile must leave untouched.
                let mut want = vec![f32::NAN; MR * NR];
                reference_tile(&args, &mut want);
                for lvl in supported_levels() {
                    let mut got = vec![f32::NAN; MR * NR];
                    tile(lvl, args, &mut got);
                    for i in 0..MR * NR {
                        let ok = if want[i].is_nan() {
                            got[i].is_nan()
                        } else {
                            (got[i] - want[i]).abs() <= 1e-4 * want[i].abs().max(1.0)
                        };
                        assert!(
                            ok,
                            "{lvl:?} rows={rows} cols={cols} idx={i}: {} vs {}",
                            got[i], want[i]
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
        let run = |lvl: SimdLevel, a: &[f32], rs: usize, cs: usize| {
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
                bias: None,
            };
            tile(lvl, args, &mut out);
            out
        };
        for lvl in supported_levels() {
            assert_eq!(run(lvl, &a_c, k, 1), run(lvl, &a_t, 1, m), "{lvl:?}");
        }
    }

    #[test]
    fn vector_tiles_are_bitwise_equal_on_all_row_col_counts_and_strides() {
        // Every vector level accumulates one FMA per k from 0.0 in
        // ascending order, so their tiles agree bit for bit: row-major A,
        // and a transposed A read at an offset.
        let vector: Vec<SimdLevel> =
            supported_levels().into_iter().filter(|&l| l != SimdLevel::Scalar).collect();
        let (k, base) = (37, 5);
        let a: Vec<f32> = (0..base + MR * k)
            .map(|i| ((i * 2_654_435_761) % 1_000_003) as f32 * 1e-5 - 5.0)
            .collect();
        let bp: Vec<f32> =
            (0..k * NR).map(|i| ((i * 40_503) % 999_983) as f32 * 1e-5 - 5.0).collect();
        for (a_rs, a_cs) in [(k, 1), (1, MR)] {
            for rows in 1..=MR {
                for cols in 1..=NR {
                    let args = TileArgs {
                        a: &a,
                        a_base: base,
                        a_rs,
                        a_cs,
                        bp: &bp,
                        k,
                        o_base: 0,
                        o_rs: NR,
                        rows,
                        cols,
                        bias: None,
                    };
                    let run = |lvl| {
                        let mut out = vec![f32::NAN; MR * NR];
                        tile(lvl, args, &mut out);
                        out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
                    };
                    for &lvl in vector.iter().skip(1) {
                        assert_eq!(
                            run(lvl),
                            run(vector[0]),
                            "{lvl:?} vs {:?}: rows={rows} cols={cols} a_cs={a_cs}",
                            vector[0]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn with_level_forces_and_restores() {
        let base = level();
        with_level(SimdLevel::Scalar, || {
            assert_eq!(level(), SimdLevel::Scalar);
        });
        assert_eq!(level(), base);
        // A level the CPU lacks runs as the highest one it has.
        let top = *supported_levels().last().expect("Scalar is always supported");
        assert_eq!(with_level(SimdLevel::Avx512, level), top);
    }
}
