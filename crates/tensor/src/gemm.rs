//! Cache-blocked GEMM driver over the [`crate::simd`] micro-kernels: the
//! one path every dense product of the crate takes, at every size
//! (`kernels.rs` keeps the plain i-k-j loop only as the test oracle
//! `matmul_raw`).
//!
//! ## Blocking and packing layout
//!
//! `B` is packed once per product into panel-major scratch: panel `p` holds
//! columns `[p·NR, p·NR + NR)` as a contiguous `k × NR` block (element
//! `(kk, c)` at `p·k·NR + kk·NR + c`), zero-padded when `n` is not a
//! multiple of `NR`. The packing cost is `O(k·n)` against `O(m·k·n)`
//! compute, amortized across every `M`-strip — and across every batch entry
//! of a `bmm` whose `B` is batch-broadcast. `A` is *not* packed: the
//! micro-kernel broadcasts one `A` element per FMA, so arbitrary row/column
//! strides (transposed views, slices) are read in place at full speed.
//!
//! ## Determinism contract
//!
//! Work is partitioned into strips of [`MR`] output rows; each strip walks
//! every panel and each `MR × NR` tile accumulates over the **full** `k`
//! extent in ascending order inside one micro-kernel call. Every output
//! element is therefore produced by exactly one tile call with a fixed
//! per-element operation order — bit-identical for any thread count, any
//! chunking, and run-to-run, matching the [`crate::pool`] contract. A row's
//! value does not depend on how many other rows the product has, so a
//! product over some rows of a longer one is bitwise those rows of it. No
//! term is ever skipped: the dense FMA loop propagates `0 × NaN = NaN` by
//! construction, so no finiteness check is needed.

use crate::dtype::{self, DType};
use crate::simd::{self, GatedSaved, GatedTileArgs, SimdLevel, TileArgs, MR, NR};
use crate::{alloc, pool};

/// A rank-2 view into a flat buffer: element `(r, c)` lives at
/// `base + r * rs + c * cs`. Strides are arbitrary, so transposed and
/// sliced tensors feed the kernel without materializing.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    pub data: &'a [f32],
    pub base: usize,
    pub rs: usize,
    pub cs: usize,
}

impl<'a> MatRef<'a> {
    /// Row-major contiguous `(rows, cols)` matrix over `data[base..]`.
    pub fn contiguous(data: &'a [f32], base: usize, cols: usize) -> Self {
        MatRef { data, base, rs: cols, cs: 1 }
    }

    /// The transpose: same storage, swapped strides.
    pub fn transposed(self) -> Self {
        MatRef { data: self.data, base: self.base, rs: self.cs, cs: self.rs }
    }
}

/// A rank-2 view over 16-bit storage (f16/bf16 bit patterns): element
/// `(r, c)` lives at `base + r * rs + c * cs`. The quantized mirror of
/// [`MatRef`]; it only ever feeds the packing step, which widens to f32
/// scratch — the micro-kernels themselves never see half bits.
#[derive(Clone, Copy)]
pub struct HalfMatRef<'a> {
    /// Raw 16-bit element patterns.
    pub bits: &'a [u16],
    /// How to decode `bits` ([`DType::F16`] or [`DType::Bf16`]).
    pub dtype: DType,
    /// Offset of element (0, 0).
    pub base: usize,
    /// Row stride in elements.
    pub rs: usize,
    /// Column stride in elements.
    pub cs: usize,
}

impl<'a> HalfMatRef<'a> {
    /// Row-major contiguous `(rows, cols)` matrix over `bits[base..]`.
    pub fn contiguous(bits: &'a [u16], dtype: DType, base: usize, cols: usize) -> Self {
        HalfMatRef { bits, dtype, base, rs: cols, cs: 1 }
    }

    /// The transpose: same storage, swapped strides.
    pub fn transposed(self) -> Self {
        HalfMatRef { rs: self.cs, cs: self.rs, ..self }
    }
}

/// A `B` operand of either storage precision. The packed GEMM path is
/// dtype-generic in exactly one place — the pack — so the driver takes this
/// instead of forcing callers to dequantize whole matrices up front.
#[derive(Clone, Copy)]
pub enum AnyMatRef<'a> {
    /// Full-precision operand, packed by straight copy.
    F32(MatRef<'a>),
    /// Half-precision operand, widened to f32 during packing.
    Half(HalfMatRef<'a>),
}

impl<'a> AnyMatRef<'a> {
    /// The transpose: same storage, swapped strides, either precision.
    pub fn transposed(self) -> Self {
        match self {
            AnyMatRef::F32(m) => AnyMatRef::F32(m.transposed()),
            AnyMatRef::Half(m) => AnyMatRef::Half(m.transposed()),
        }
    }
}

/// Panel length in scratch floats for a `(k, n)` B operand.
fn packed_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Packs `b` (logical `(k, n)`) into panel-major scratch. Only real columns
/// are written; pad lanes rely on `packed` being zeroed (they are never
/// overwritten, so one zeroed allocation serves repeated packs).
fn pack_b(b: MatRef<'_>, k: usize, n: usize, packed: &mut [f32]) {
    let n_panels = n.div_ceil(NR);
    debug_assert!(packed.len() >= n_panels * k * NR);
    for p in 0..n_panels {
        let c0 = p * NR;
        let cols = NR.min(n - c0);
        let panel = &mut packed[p * k * NR..(p + 1) * k * NR];
        if b.cs == 1 && cols == NR {
            // Contiguous source rows: straight memcpy per k-row.
            for kk in 0..k {
                let src = b.base + kk * b.rs + c0;
                panel[kk * NR..kk * NR + NR].copy_from_slice(&b.data[src..src + NR]);
            }
        } else {
            for kk in 0..k {
                for c in 0..cols {
                    panel[kk * NR + c] = b.data[b.base + kk * b.rs + (c0 + c) * b.cs];
                }
            }
        }
    }
}

/// Packs a half-precision `b` (logical `(k, n)`) into the same panel-major
/// f32 scratch as [`pack_b`], decoding while packing: the dequantization cost
/// rides the existing `O(k·n)` pack (amortized across every `M`-strip) and
/// the micro-kernels run unchanged at full f32 speed — accumulation is f32
/// regardless of storage dtype. Contiguous rows decode `NR` lanes per call,
/// which the F16C path turns into one vector convert.
fn pack_b_half(b: HalfMatRef<'_>, k: usize, n: usize, packed: &mut [f32]) {
    let n_panels = n.div_ceil(NR);
    debug_assert!(packed.len() >= n_panels * k * NR);
    for p in 0..n_panels {
        let c0 = p * NR;
        let cols = NR.min(n - c0);
        let panel = &mut packed[p * k * NR..(p + 1) * k * NR];
        if b.cs == 1 && cols == NR {
            for kk in 0..k {
                let src = b.base + kk * b.rs + c0;
                dtype::decode_slice(
                    b.dtype,
                    &b.bits[src..src + NR],
                    &mut panel[kk * NR..kk * NR + NR],
                );
            }
        } else {
            for kk in 0..k {
                for c in 0..cols {
                    let bit = b.bits[b.base + kk * b.rs + (c0 + c) * b.cs];
                    panel[kk * NR + c] = dtype::decode_one(b.dtype, bit);
                }
            }
        }
    }
}

/// Dispatches the pack for either storage precision.
fn pack_b_any(b: AnyMatRef<'_>, k: usize, n: usize, packed: &mut [f32]) {
    match b {
        AnyMatRef::F32(b) => pack_b(b, k, n, packed),
        AnyMatRef::Half(b) => pack_b_half(b, k, n, packed),
    }
}

/// A bias row zero-padded to whole panels, so every panel's tile reads
/// `NR` lanes.
fn pad_bias(bias: &[f32], n: usize) -> Vec<f32> {
    debug_assert_eq!(bias.len(), n, "bias row length mismatch");
    let mut padded = alloc::buf_zeroed(n.div_ceil(NR) * NR);
    padded[..n].copy_from_slice(bias);
    padded
}

/// The tile of panel `p` for a strip of `rows <= MR` output rows whose `A`
/// view `a` is already offset to the strip's row 0; `bias` is the padded
/// bias row, if any.
#[allow(clippy::too_many_arguments)]
fn panel_tile<'a>(
    a: MatRef<'a>,
    packed: &'a [f32],
    bias: Option<&'a [f32]>,
    p: usize,
    rows: usize,
    k: usize,
    n: usize,
) -> TileArgs<'a> {
    let c0 = p * NR;
    TileArgs {
        a: a.data,
        a_base: a.base,
        a_rs: a.rs,
        a_cs: a.cs,
        bp: &packed[p * k * NR..(p + 1) * k * NR],
        k,
        o_base: c0,
        o_rs: n,
        rows,
        cols: NR.min(n - c0),
        bias: bias.map(|b| &b[c0..c0 + NR]),
    }
}

/// One strip of `rows <= MR` output rows: walks every packed panel and fires
/// one micro-tile per panel. `a` must already be offset to the strip's row 0;
/// `out_rows` is the strip's `rows × n` contiguous output slice.
#[allow(clippy::too_many_arguments)]
fn compute_strip(
    lvl: SimdLevel,
    a: MatRef<'_>,
    packed: &[f32],
    bias: Option<&[f32]>,
    out_rows: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    for p in 0..n.div_ceil(NR) {
        simd::tile(lvl, panel_tile(a, packed, bias, p, rows, k, n), out_rows);
    }
}

/// Packed blocked `out = a · b` for logical shapes `(m, k) × (k, n)`.
/// `out` must hold at least `m * n` floats; every element is overwritten.
/// For an f32 `b` this is exactly [`gemm_into_any`] with `AnyMatRef::F32` —
/// one code path, so the f32 route stays bitwise unchanged.
#[cfg_attr(not(test), allow(dead_code))] // production callers route through gemm_into_any
pub fn gemm_into(a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_into_any(a, AnyMatRef::F32(b), None, out, m, k, n)
}

/// [`gemm_into`] generalized over `B`'s storage precision, with an optional
/// bias row: half `B` is dequantized panel-by-panel during packing, after
/// which the strip loop and micro-kernels are byte-for-byte the f32 path
/// (f32 accumulation, same determinism contract). A bias is added in the
/// tile epilogue, `out = acc + b` stored once — the same add a separate
/// bias pass over the stored product makes, so the result is bitwise equal
/// to it.
pub fn gemm_into_any(
    a: MatRef<'_>,
    b: AnyMatRef<'_>,
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert!(out.len() >= m * n);
    if m == 0 || n == 0 {
        return;
    }
    let lvl = simd::level();
    let mut packed = alloc::buf_zeroed(packed_len(k, n));
    pack_b_any(b, k, n, &mut packed);
    let bias = bias.map(|b| pad_bias(b, n));
    let n_strips = m.div_ceil(MR);
    {
        let (packed, bias) = (&packed[..], bias.as_deref());
        let writer = pool::SliceWriter::new(&mut out[..m * n]);
        pool::par_chunks_weighted(n_strips, MR * k * n, |ss| {
            for s in ss {
                let r0 = s * MR;
                let rows = MR.min(m - r0);
                let sa = MatRef { data: a.data, base: a.base + r0 * a.rs, rs: a.rs, cs: a.cs };
                // Safety: strip `s` owns output rows [r0, r0 + rows) alone.
                let out_rows = unsafe { writer.slice(r0 * n..(r0 + rows) * n) };
                compute_strip(lvl, sa, packed, bias, out_rows, rows, k, n);
            }
        });
    }
    alloc::recycle(packed);
    if let Some(b) = bias {
        alloc::recycle(b);
    }
}

/// The fused gated product of the GCN layer,
/// `out = (a·W_v + b_v) ⊙ σ(a·W_g + b_g)` for logical shapes
/// `(m, k) × (k, n)`, as one packed pass: both weights are packed into one
/// scratch, the value weight's panels first and then the gate weight's
/// (each through [`pack_b_any`], so half weights decode while packing), and
/// each strip fires one [`simd::gated_tile`] per panel pair. When `saved`
/// is given, the tiles also store `v = a·W_v + b_v` and `s = σ(a·W_g + b_g)`
/// there (same layout as `out`).
///
/// Every output column still accumulates over the full `k`, ascending, in
/// one tile call, so each element is bitwise equal to the
/// [`gemm_into_any`] product of its own weight, followed by the bias add,
/// the sigmoid and the product — for any thread count and chunking.
#[allow(clippy::too_many_arguments)]
pub fn gated_gemm_into(
    a: MatRef<'_>,
    value: AnyMatRef<'_>,
    gate: AnyMatRef<'_>,
    bias_v: &[f32],
    bias_g: &[f32],
    out: &mut [f32],
    saved: GatedSaved<'_>,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert!(out.len() >= m * n);
    if m == 0 || n == 0 {
        return;
    }
    let lvl = simd::level();
    let plen = packed_len(k, n);
    let mut packed = alloc::buf_zeroed(2 * plen);
    {
        let (pv, pg) = packed.split_at_mut(plen);
        pack_b_any(value, k, n, pv);
        pack_b_any(gate, k, n, pg);
    }
    let (bv, bg) = (pad_bias(bias_v, n), pad_bias(bias_g, n));
    {
        let (pv, pg) = packed.split_at(plen);
        let writer = pool::SliceWriter::new(&mut out[..m * n]);
        let saved = saved.map(|(v, s)| {
            (pool::SliceWriter::new(&mut v[..m * n]), pool::SliceWriter::new(&mut s[..m * n]))
        });
        pool::par_chunks_weighted(m.div_ceil(MR), MR * k * 2 * n, |ss| {
            for s in ss {
                let r0 = s * MR;
                let rows = MR.min(m - r0);
                let sa = MatRef { data: a.data, base: a.base + r0 * a.rs, rs: a.rs, cs: a.cs };
                let strip = r0 * n..(r0 + rows) * n;
                // Safety: strip `s` owns output rows [r0, r0 + rows) alone,
                // in `out` and in both saved buffers.
                let out_rows = unsafe { writer.slice(strip.clone()) };
                let mut saved_rows = saved
                    .as_ref()
                    .map(|(v, s)| unsafe { (v.slice(strip.clone()), s.slice(strip)) });
                for p in 0..n.div_ceil(NR) {
                    let value = panel_tile(sa, pv, Some(&bv), p, rows, k, n);
                    let args = GatedTileArgs {
                        value,
                        gate: &pg[p * k * NR..(p + 1) * k * NR],
                        gate_bias: &bg[value.o_base..value.o_base + NR],
                    };
                    let sv = saved_rows.as_mut().map(|(v, s)| (&mut **v, &mut **s));
                    simd::gated_tile(lvl, args, out_rows, sv);
                }
            }
        });
    }
    alloc::recycle(packed);
    alloc::recycle(bv);
    alloc::recycle(bg);
}

/// A batched rank-3 view: batch `i` is the `MatRef` at
/// `base + i * batch_stride`. A `batch_stride` of `0` means one shared `B`
/// across the whole batch — the packing is then done once and amortized.
#[derive(Clone, Copy)]
pub struct BatchedMatRef<'a> {
    pub data: &'a [f32],
    pub base: usize,
    pub batch_stride: usize,
    pub rs: usize,
    pub cs: usize,
}

impl<'a> BatchedMatRef<'a> {
    /// Contiguous row-major `(bs, rows, cols)` tensor.
    pub fn contiguous(data: &'a [f32], rows: usize, cols: usize) -> Self {
        BatchedMatRef { data, base: 0, batch_stride: rows * cols, rs: cols, cs: 1 }
    }

    /// Per-batch transpose: same storage, swapped inner strides.
    pub fn transposed(self) -> Self {
        BatchedMatRef {
            data: self.data,
            base: self.base,
            batch_stride: self.batch_stride,
            rs: self.cs,
            cs: self.rs,
        }
    }

    /// The rank-2 view of batch entry `i`.
    pub fn mat(&self, i: usize) -> MatRef<'a> {
        MatRef {
            data: self.data,
            base: self.base + i * self.batch_stride,
            rs: self.rs,
            cs: self.cs,
        }
    }
}

/// Packed blocked batched product `out[i] = a[i] · b[i]` for logical shapes
/// `(bs, m, k) × (bs, k, n)`; `out` is contiguous `(bs, m, n)`.
pub fn bmm_into(
    a: BatchedMatRef<'_>,
    b: BatchedMatRef<'_>,
    out: &mut [f32],
    bs: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert!(out.len() >= bs * m * n);
    if bs == 0 || m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out[..bs * m * n].fill(0.0);
        return;
    }
    let lvl = simd::level();
    let plen = packed_len(k, n);
    if b.batch_stride == 0 {
        // Shared B: pack once, fan out over every (batch, strip) pair.
        let mut packed = alloc::buf_zeroed(plen);
        pack_b(b.mat(0), k, n, &mut packed);
        let n_strips = m.div_ceil(MR);
        {
            let packed = &packed[..];
            let writer = pool::SliceWriter::new(&mut out[..bs * m * n]);
            pool::par_chunks_weighted(bs * n_strips, MR * k * n, |ts| {
                for t in ts {
                    let (bi, s) = (t / n_strips, t % n_strips);
                    let r0 = s * MR;
                    let rows = MR.min(m - r0);
                    let sa = a.mat(bi);
                    let sa = MatRef { base: sa.base + r0 * sa.rs, ..sa };
                    let o0 = bi * m * n + r0 * n;
                    // Safety: tile index `t` owns these output rows alone.
                    let out_rows = unsafe { writer.slice(o0..o0 + rows * n) };
                    compute_strip(lvl, sa, packed, None, out_rows, rows, k, n);
                }
            });
        }
        alloc::recycle(packed);
    } else {
        // Per-batch B: parallel over batch entries, serial strips inside,
        // one packing scratch per chunk (pad lanes stay zero across reuses).
        let writer = pool::SliceWriter::new(&mut out[..bs * m * n]);
        pool::par_chunks_weighted(bs, m * k * n, |bis| {
            let mut packed = alloc::buf_zeroed(plen);
            for bi in bis {
                pack_b(b.mat(bi), k, n, &mut packed);
                // Safety: batch `bi` owns its m×n output block alone.
                let out_b = unsafe { writer.slice(bi * m * n..(bi + 1) * m * n) };
                let n_strips = m.div_ceil(MR);
                for s in 0..n_strips {
                    let r0 = s * MR;
                    let rows = MR.min(m - r0);
                    let sa = a.mat(bi);
                    let sa = MatRef { base: sa.base + r0 * sa.rs, ..sa };
                    compute_strip(
                        lvl,
                        sa,
                        &packed,
                        None,
                        &mut out_b[r0 * n..(r0 + rows) * n],
                        rows,
                        k,
                        n,
                    );
                }
            }
            alloc::recycle(packed);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::matmul_raw as naive;

    fn fill(len: usize, seed: usize) -> Vec<f32> {
        (0..len).map(|i| (((i * 31 + seed * 17) % 97) as f32) * 0.03 - 1.5).collect()
    }

    #[test]
    fn gemm_matches_naive_on_odd_shapes() {
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 7), (8, 8, 8), (9, 13, 17), (20, 1, 33), (5, 40, 2), (4, 0, 5)]
        {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let want = naive(&a, &b, m, k, n);
            let mut got = vec![f32::NAN; m * n];
            gemm_into(
                MatRef::contiguous(&a, 0, k),
                MatRef::contiguous(&b, 0, n),
                &mut got,
                m,
                k,
                n,
            );
            for i in 0..m * n {
                assert!(
                    (got[i] - want[i]).abs() <= 1e-5 * want[i].abs().max(1.0),
                    "({m},{k},{n}) idx {i}: {} vs {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn transposed_b_view_matches_materialized() {
        let (m, k, n) = (7, 11, 9);
        let a = fill(m * k, 3);
        let bt = fill(n * k, 4); // stored as (n, k); logical B = btᵀ
        let b_mat: Vec<f32> = (0..k * n).map(|i| bt[(i % n) * k + i / n]).collect();
        let mut via_view = vec![0.0f32; m * n];
        let mut via_copy = vec![0.0f32; m * n];
        gemm_into(
            MatRef::contiguous(&a, 0, k),
            MatRef::contiguous(&bt, 0, k).transposed(),
            &mut via_view,
            m,
            k,
            n,
        );
        gemm_into(
            MatRef::contiguous(&a, 0, k),
            MatRef::contiguous(&b_mat, 0, n),
            &mut via_copy,
            m,
            k,
            n,
        );
        assert_eq!(via_view, via_copy, "view route must be bitwise identical");
    }

    #[test]
    fn bmm_shared_b_matches_per_batch() {
        let (bs, m, k, n) = (3, 6, 5, 10);
        let a = fill(bs * m * k, 5);
        let b = fill(k * n, 6);
        let mut shared = vec![0.0f32; bs * m * n];
        let shared_b = BatchedMatRef { data: &b, base: 0, batch_stride: 0, rs: n, cs: 1 };
        bmm_into(BatchedMatRef::contiguous(&a, m, k), shared_b, &mut shared, bs, m, k, n);
        for bi in 0..bs {
            let want = naive(&a[bi * m * k..(bi + 1) * m * k], &b, m, k, n);
            let got = &shared[bi * m * n..(bi + 1) * m * n];
            for i in 0..m * n {
                assert!((got[i] - want[i]).abs() <= 1e-5 * want[i].abs().max(1.0));
            }
        }
    }

    #[test]
    fn gemm_nan_in_b_propagates() {
        // The packed path must not zero-skip past non-finite B entries.
        let a = vec![0.0f32; 4]; // (2, 2) of zeros
        let b = vec![f32::NAN, 1.0, 2.0, 3.0];
        let mut out = vec![0.0f32; 4];
        gemm_into(MatRef::contiguous(&a, 0, 2), MatRef::contiguous(&b, 0, 2), &mut out, 2, 2, 2);
        assert!(out[0].is_nan() && out[2].is_nan(), "0 × NaN must stay NaN: {out:?}");
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn half_b_matches_dequantize_then_gemm_bitwise() {
        let (m, k, n) = (9, 13, 17);
        let a = fill(m * k, 9);
        let b = fill(k * n, 10);
        for dt in [DType::F16, DType::Bf16] {
            let mut bits = vec![0u16; k * n];
            dtype::encode_slice(dt, &b, &mut bits);
            let mut deq = vec![0.0f32; k * n];
            dtype::decode_slice(dt, &bits, &mut deq);
            let mut via_half = vec![f32::NAN; m * n];
            gemm_into_any(
                MatRef::contiguous(&a, 0, k),
                AnyMatRef::Half(HalfMatRef::contiguous(&bits, dt, 0, n)),
                None,
                &mut via_half,
                m,
                k,
                n,
            );
            let mut via_f32 = vec![f32::NAN; m * n];
            gemm_into(
                MatRef::contiguous(&a, 0, k),
                MatRef::contiguous(&deq, 0, n),
                &mut via_f32,
                m,
                k,
                n,
            );
            assert_eq!(via_half, via_f32, "{dt}: pack-time decode must be bitwise");
            // Strided (transposed) half views go through the per-element path.
            let mut bits_t = vec![0u16; n * k];
            for kk in 0..k {
                for j in 0..n {
                    bits_t[j * k + kk] = bits[kk * n + j];
                }
            }
            let mut via_t = vec![f32::NAN; m * n];
            gemm_into_any(
                MatRef::contiguous(&a, 0, k),
                AnyMatRef::Half(HalfMatRef::contiguous(&bits_t, dt, 0, k).transposed()),
                None,
                &mut via_t,
                m,
                k,
                n,
            );
            assert_eq!(via_t, via_f32, "{dt}: strided half pack must match");
        }
    }

    #[test]
    fn gemm_bit_identical_across_levels_is_not_required_but_each_is_deterministic() {
        let (m, k, n) = (13, 21, 19);
        let a = fill(m * k, 7);
        let b = fill(k * n, 8);
        for lvl in simd::supported_levels() {
            let run = || {
                simd::with_level(lvl, || {
                    let mut out = vec![0.0f32; m * n];
                    gemm_into(
                        MatRef::contiguous(&a, 0, k),
                        MatRef::contiguous(&b, 0, n),
                        &mut out,
                        m,
                        k,
                        n,
                    );
                    out
                })
            };
            assert_eq!(run(), run(), "{lvl:?} must be run-to-run deterministic");
        }
    }
}
