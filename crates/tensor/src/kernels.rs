//! Raw numeric kernels: matrix multiplication, dilated 1-D convolution (as
//! one GEMM over a tap unfold), CSR sparse × dense products, row-wise
//! softmax, and the shared polynomial sigmoid. These are the hot paths of
//! model training; everything else composes out of elementwise maps.
//!
//! Every matrix product — `matmul` and its `_nt`/`_tn` transpose entries,
//! the `bmm*` family, `addmm`, the conv GEMMs and the fused gated GCN,
//! forward and backward — takes the one cache-blocked packed SIMD path
//! ([`crate::gemm`]), at every size. Each output element therefore has one
//! rounding, whatever the product's shape: a product over some of the rows
//! of a longer one is bitwise that product's rows. The packed path accepts
//! strided [`gemm::MatRef`] operands, so the transpose entries read the
//! original storage in place instead of materializing a transposed copy.
//! All kernels split *output* ranges over the persistent worker pool
//! ([`crate::pool`]) once the problem is large enough to amortize dispatch:
//! every output element is computed by exactly one thread with a serial
//! inner loop, so results are bit-identical to the serial path for any
//! thread count.
//!
//! ## Non-finite values
//!
//! No product skips a term: the packed path's dense FMA loop multiplies
//! every `a` element into every `b` element it meets, so `0 · NaN` and
//! `0 · ∞` propagate as NaN at every size, with no finiteness check. The
//! spmm likewise uses every stored entry.

use crate::alloc;
use crate::dtype::DType;
use crate::gemm::{self, AnyMatRef, BatchedMatRef, HalfMatRef, MatRef};
use crate::pool::{self, SliceWriter};
use crate::simd;
use crate::sparse::CsrRowGroups;
use crate::telemetry;
use crate::tensor::Tensor;

/// Multiplies row-major `a` (m×k) by `b` (k×n) into a new m×n buffer with
/// the plain i-k-j loop: the test oracle the packed path is checked
/// against. Production products go through [`matmul`].
pub fn matmul_raw(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "matmul_raw lhs holds {} elements, not {m}x{k}", a.len());
    assert_eq!(b.len(), k * n, "matmul_raw rhs holds {} elements, not {k}x{n}", b.len());
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            for j in 0..n {
                out[i * n + j] += av * b[kk * n + j];
            }
        }
    }
    out
}

/// The `B`-side operand of a product, in whatever precision the tensor
/// stores: f32 tensors feed the kernels in place, half tensors hand over
/// their raw bits for pack-time dequantization.
fn mat_any(t: &Tensor, base: usize, cols: usize) -> AnyMatRef<'_> {
    match t.dtype() {
        DType::F32 => AnyMatRef::F32(MatRef::contiguous(t.data(), base, cols)),
        dt => AnyMatRef::Half(HalfMatRef::contiguous(t.half_bits(), dt, base, cols)),
    }
}

/// `a · b` (+ a bias row) for logical shapes `(m, k) × (k, n)` into a new
/// `(m, n)` buffer, through the packed path. A half `b` dequantizes during
/// packing, so the result is bitwise the f32 product of the decoded matrix.
fn mm(
    a: MatRef<'_>,
    b: AnyMatRef<'_>,
    bias: Option<&[f32]>,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = alloc::buf_zeroed(m * n);
    gemm::gemm_into_any(a, b, bias, &mut out, m, k, n);
    out
}

/// 2-D matrix product of tensors. Shapes must be (m,k) and (k,n).
///
/// `b` may be half-precision (a quantized weight matrix): its bits are
/// widened to f32 during packing, with f32 accumulation throughout. A half
/// `a` — which normal execution never produces, activations stay f32 — is
/// upcast whole.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let _t = telemetry::span("kernel.matmul");
    if a.dtype().is_half() {
        return matmul(&a.to_dtype(DType::F32), b);
    }
    assert_eq!(a.rank(), 2, "matmul lhs must be 2-D, got {}", a.shape());
    assert_eq!(b.rank(), 2, "matmul rhs must be 2-D, got {}", b.shape());
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul inner dims mismatch: {} vs {}", a.shape(), b.shape());
    let out = mm(MatRef::contiguous(a.data(), 0, k), mat_any(b, 0, n), None, m, k, n);
    Tensor::from_vec([m, n], out)
}

/// `a · bᵀ` for `a` (m,k) and `b` (n,k) — the backward pass's `G·Wᵀ` route.
/// Reads `b` through a transposed stride view: no `bᵀ` copy is ever
/// materialized, and the result is bitwise identical to
/// `matmul(a, &b.t())` because the same logical elements are combined in
/// the same order.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let _t = telemetry::span("kernel.matmul");
    if a.dtype().is_half() {
        return matmul_nt(&a.to_dtype(DType::F32), b);
    }
    assert_eq!(a.rank(), 2, "matmul_nt lhs must be 2-D, got {}", a.shape());
    assert_eq!(b.rank(), 2, "matmul_nt rhs must be 2-D, got {}", b.shape());
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, k2) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul_nt inner dims mismatch: {} vs {}", a.shape(), b.shape());
    let bt = mat_any(b, 0, k).transposed();
    let out = mm(MatRef::contiguous(a.data(), 0, k), bt, None, m, k, n);
    Tensor::from_vec([m, n], out)
}

/// `aᵀ · b` for `a` (m,k) and `b` (m,n) — the backward pass's `Xᵀ·G` route,
/// reading `a` through a transposed stride view. Bitwise identical to
/// `matmul(&a.t(), b)`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let _t = telemetry::span("kernel.matmul");
    if a.dtype().is_half() {
        return matmul_tn(&a.to_dtype(DType::F32), b);
    }
    assert_eq!(a.rank(), 2, "matmul_tn lhs must be 2-D, got {}", a.shape());
    assert_eq!(b.rank(), 2, "matmul_tn rhs must be 2-D, got {}", b.shape());
    let (m, k) = (a.dim(0), a.dim(1));
    let (m2, n) = (b.dim(0), b.dim(1));
    assert_eq!(m, m2, "matmul_tn inner dims mismatch: {} vs {}", a.shape(), b.shape());
    let at = MatRef::contiguous(a.data(), 0, k).transposed();
    let out = mm(at, mat_any(b, 0, n), None, k, m, n);
    Tensor::from_vec([k, n], out)
}

/// Batched product core shared by the `bmm*` entries, through the packed
/// path (which amortizes packing across batches when `b` is
/// batch-broadcast).
fn bmm_core(
    a: BatchedMatRef<'_>,
    b: BatchedMatRef<'_>,
    bs: usize,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = alloc::buf_zeroed(bs * m * n);
    gemm::bmm_into(a, b, &mut out, bs, m, k, n);
    out
}

/// Batched matrix product: (B,m,k) × (B,k,n) → (B,m,n). Half operands are
/// upcast whole (batched products only ever see f32 activations; quantized
/// weights flow through the 2-D entries' pack-time conversion).
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    if a.dtype().is_half() || b.dtype().is_half() {
        return bmm(&a.to_dtype(DType::F32), &b.to_dtype(DType::F32));
    }
    let _t = telemetry::span("kernel.bmm");
    assert_eq!(a.rank(), 3, "bmm lhs must be 3-D");
    assert_eq!(b.rank(), 3, "bmm rhs must be 3-D");
    let (bs, m, k) = (a.dim(0), a.dim(1), a.dim(2));
    let (bs2, k2, n) = (b.dim(0), b.dim(1), b.dim(2));
    assert_eq!(bs, bs2, "bmm batch mismatch");
    assert_eq!(k, k2, "bmm inner dims mismatch");
    let out = bmm_core(
        BatchedMatRef::contiguous(a.data(), m, k),
        BatchedMatRef::contiguous(b.data(), k, n),
        bs,
        m,
        k,
        n,
    );
    Tensor::from_vec([bs, m, n], out)
}

/// Batched `a · bᵀ`: (B,m,k) × (B,n,k) → (B,m,n) — attention's `Q·Kᵀ`
/// without materializing the transposed keys. Bitwise identical to
/// `bmm(a, &b.permute(&[0, 2, 1]))`.
pub fn bmm_nt(a: &Tensor, b: &Tensor) -> Tensor {
    if a.dtype().is_half() || b.dtype().is_half() {
        return bmm_nt(&a.to_dtype(DType::F32), &b.to_dtype(DType::F32));
    }
    let _t = telemetry::span("kernel.bmm");
    assert_eq!(a.rank(), 3, "bmm_nt lhs must be 3-D");
    assert_eq!(b.rank(), 3, "bmm_nt rhs must be 3-D");
    let (bs, m, k) = (a.dim(0), a.dim(1), a.dim(2));
    let (bs2, n, k2) = (b.dim(0), b.dim(1), b.dim(2));
    assert_eq!(bs, bs2, "bmm_nt batch mismatch");
    assert_eq!(k, k2, "bmm_nt inner dims mismatch");
    let out = bmm_core(
        BatchedMatRef::contiguous(a.data(), m, k),
        BatchedMatRef::contiguous(b.data(), n, k).transposed(),
        bs,
        m,
        k,
        n,
    );
    Tensor::from_vec([bs, m, n], out)
}

/// Batched `aᵀ · b`: (B,m,k) × (B,m,n) → (B,k,n) — the bmm backward's
/// `Aᵀ·G` route. Bitwise identical to `bmm(&a.permute(&[0, 2, 1]), b)`.
pub fn bmm_tn(a: &Tensor, b: &Tensor) -> Tensor {
    if a.dtype().is_half() || b.dtype().is_half() {
        return bmm_tn(&a.to_dtype(DType::F32), &b.to_dtype(DType::F32));
    }
    let _t = telemetry::span("kernel.bmm");
    assert_eq!(a.rank(), 3, "bmm_tn lhs must be 3-D");
    assert_eq!(b.rank(), 3, "bmm_tn rhs must be 3-D");
    let (bs, m, k) = (a.dim(0), a.dim(1), a.dim(2));
    let (bs2, m2, n) = (b.dim(0), b.dim(1), b.dim(2));
    assert_eq!(bs, bs2, "bmm_tn batch mismatch");
    assert_eq!(m, m2, "bmm_tn inner dims mismatch");
    let out = bmm_core(
        BatchedMatRef::contiguous(a.data(), m, k).transposed(),
        BatchedMatRef::contiguous(b.data(), m, n),
        bs,
        k,
        m,
        n,
    );
    Tensor::from_vec([bs, k, n], out)
}

/// Dilated causal 1-D convolution in the channels-last layout the model
/// keeps its activations in, computed as one GEMM.
///
/// * `input`:  (N, T, C_in)
/// * `weight`: (C_out, C_in, K)
/// * `bias`:   optional (C_out)
/// * output:   (N, T, C_out) — `out[n, t] = b + Σ_kk input[n, t − s_kk] · W[:, :, kk]ᵀ`
///   with tap shift `s_kk = (K − 1 − kk) · dilation`; taps before `t = 0`
///   read zeros (causal "same"-length padding).
///
/// The K taps unfold into a transient (N·T, K·C_in) matrix (`unfold_taps`)
/// that multiplies the (K·C_in, C_out) permuted weight through the packed
/// SIMD path, which adds the bias row in its tile epilogue. The unfold goes
/// straight back to the buffer pool. The product is dense: padding taps are
/// explicit zeros and no term is skipped, so non-finite values propagate
/// like any dense product.
pub fn conv1d_ntc(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    dilation: usize,
) -> Tensor {
    // Half operands (quantized conv weights/bias) are upcast whole, once:
    // the weight is permuted anyway, and the f32 route stays the only one.
    if input.dtype().is_half()
        || weight.dtype().is_half()
        || bias.is_some_and(|b| b.dtype().is_half())
    {
        let up = |t: &Tensor| t.to_dtype(DType::F32);
        return conv1d_ntc(&up(input), &up(weight), bias.map(up).as_ref(), dilation);
    }
    let _t = telemetry::span("kernel.conv1d");
    let (n, t, cin, cout, k) = conv_dims(input, weight, dilation);
    if let Some(b) = bias {
        assert_eq!(b.numel(), cout, "conv1d bias size mismatch");
    }
    let (rows, kc) = (n * t, k * cin);
    let unfold = unfold_taps(input.data(), n, t, cin, k, dilation);
    let wp = taps_weight(weight.data(), cout, cin, k);
    let out = mm(
        MatRef::contiguous(&unfold, 0, kc),
        AnyMatRef::F32(MatRef::contiguous(&wp, 0, cout)),
        bias.map(Tensor::data),
        rows,
        kc,
        cout,
    );
    alloc::recycle(unfold);
    alloc::recycle(wp);
    Tensor::from_vec([n, t, cout], out)
}

/// Backward pass of [`conv1d_ntc`]: `(grad_input, grad_weight, grad_bias)`
/// for output gradient `grad_out` (N, T, C_out).
///
/// Rebuilds the tap unfold `U` from the saved input and takes both products
/// of the affine backward on the packed path: `G·Wpᵀ` (the unfold's
/// gradient) and `Uᵀ·G` (the permuted weight's). The unfold gradient folds
/// back onto the input rows with adds in ascending tap order, and the
/// weight gradient is permuted back to (C_out, C_in, K). Every step is an
/// output-partitioned product or a serial loop, so the result is bitwise
/// identical for any thread count.
pub fn conv1d_ntc_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    dilation: usize,
) -> (Tensor, Tensor, Tensor) {
    if input.dtype().is_half() || weight.dtype().is_half() {
        let up = |t: &Tensor| t.to_dtype(DType::F32);
        return conv1d_ntc_backward(&up(input), &up(weight), grad_out, dilation);
    }
    let _t = telemetry::span("kernel.conv1d_bwd");
    let (n, t, cin, cout, k) = conv_dims(input, weight, dilation);
    assert_eq!(grad_out.dims(), &[n, t, cout], "conv1d grad_out shape mismatch");
    let (rows, kc) = (n * t, k * cin);
    let g = grad_out.data();
    let unfold = unfold_taps(input.data(), n, t, cin, k, dilation);
    let wp = taps_weight(weight.data(), cout, cin, k);
    let gu = mm(
        MatRef::contiguous(g, 0, cout),
        AnyMatRef::F32(MatRef::contiguous(&wp, 0, cout).transposed()),
        None,
        rows,
        cout,
        kc,
    );
    let gwp = mm(
        MatRef::contiguous(&unfold, 0, kc).transposed(),
        AnyMatRef::F32(MatRef::contiguous(g, 0, cout)),
        None,
        kc,
        rows,
        cout,
    );
    alloc::recycle(unfold);
    alloc::recycle(wp);
    let mut gi = alloc::buf_zeroed(n * t * cin);
    for b in 0..n {
        for kk in 0..k {
            let shift = (k - 1 - kk) * dilation;
            for tt in shift..t {
                let src = &gu[(b * t + tt) * kc + kk * cin..][..cin];
                let dst = &mut gi[(b * t + tt - shift) * cin..][..cin];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o += v;
                }
            }
        }
    }
    alloc::recycle(gu);
    let mut gw = alloc::buf_zeroed(cout * cin * k);
    for co in 0..cout {
        for ci in 0..cin {
            for kk in 0..k {
                gw[(co * cin + ci) * k + kk] = gwp[(kk * cin + ci) * cout + co];
            }
        }
    }
    alloc::recycle(gwp);
    (
        Tensor::from_vec([n, t, cin], gi),
        Tensor::from_vec([cout, cin, k], gw),
        Tensor::from_vec([cout], col_sums(g, cout)),
    )
}

/// Dilated causal 1-D convolution over (N, C_in, T) inputs, producing
/// (N, C_out, T): the channels-first entry to [`conv1d_ntc`], which it
/// wraps between two axis permutes (same arithmetic, same values).
pub fn conv1d_dilated(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    dilation: usize,
) -> Tensor {
    assert_eq!(input.rank(), 3, "conv1d input must be (N, C_in, T)");
    conv1d_ntc(&input.permute(&[0, 2, 1]), weight, bias, dilation).permute(&[0, 2, 1])
}

/// Backward pass of [`conv1d_dilated`]: `(grad_input, grad_weight,
/// grad_bias)` through [`conv1d_ntc_backward`].
pub fn conv1d_dilated_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    dilation: usize,
) -> (Tensor, Tensor, Tensor) {
    let (gi, gw, gb) = conv1d_ntc_backward(
        &input.permute(&[0, 2, 1]),
        weight,
        &grad_out.permute(&[0, 2, 1]),
        dilation,
    );
    (gi.permute(&[0, 2, 1]), gw, gb)
}

/// Checked sizes `(N, T, C_in, C_out, K)` of a channels-last conv: input
/// (N, T, C_in), weight (C_out, C_in, K).
fn conv_dims(
    input: &Tensor,
    weight: &Tensor,
    dilation: usize,
) -> (usize, usize, usize, usize, usize) {
    assert_eq!(input.rank(), 3, "conv1d input must be (N, T, C_in)");
    assert_eq!(weight.rank(), 3, "conv1d weight must be (C_out, C_in, K)");
    let (n, t, cin) = (input.dim(0), input.dim(1), input.dim(2));
    let (cout, cin2, k) = (weight.dim(0), weight.dim(1), weight.dim(2));
    assert_eq!(cin, cin2, "conv1d channel mismatch");
    assert!(dilation >= 1, "dilation must be >= 1");
    (n, t, cin, cout, k)
}

/// The causal tap unfold of a (N, T, C_in) input: row `(b, t)` of the
/// (N·T, K·C_in) result holds the K input rows `x[b, t − s_kk]`, kk
/// ascending, and zeros where `t < s_kk` (a shift ≥ T leaves its tap all
/// zeros).
fn unfold_taps(x: &[f32], n: usize, t: usize, cin: usize, k: usize, dilation: usize) -> Vec<f32> {
    let kc = k * cin;
    let mut u = alloc::buf_zeroed(n * t * kc);
    for b in 0..n {
        for kk in 0..k {
            let shift = (k - 1 - kk) * dilation;
            for tt in shift..t {
                let src = (b * t + tt - shift) * cin;
                let dst = (b * t + tt) * kc + kk * cin;
                u[dst..dst + cin].copy_from_slice(&x[src..src + cin]);
            }
        }
    }
    u
}

/// Permutes a (C_out, C_in, K) conv weight into the (K·C_in, C_out) matrix
/// the unfold multiplies: row `kk·C_in + ci` holds `W[:, ci, kk]`.
fn taps_weight(w: &[f32], cout: usize, cin: usize, k: usize) -> Vec<f32> {
    let mut wp = alloc::buf_zeroed(k * cin * cout);
    for co in 0..cout {
        for ci in 0..cin {
            for kk in 0..k {
                wp[(kk * cin + ci) * cout + co] = w[(co * cin + ci) * k + kk];
            }
        }
    }
    wp
}

/// Column sums of a row-major matrix with `n` columns, rows added in order
/// (the addition sequence of `Tensor::reduce_to` onto a bias row).
fn col_sums(g: &[f32], n: usize) -> Vec<f32> {
    let mut sums = alloc::buf_zeroed(n);
    for row in g.chunks_exact(n) {
        for (o, &v) in sums.iter_mut().zip(row) {
            *o += v;
        }
    }
    sums
}

/// Sparse × dense product `A·x` for a CSR matrix `A` in its row-grouped
/// layout and a row-major `x` of `feat` columns; returns the row-major
/// (rows, feat) result.
///
/// Each group of up to four consecutive rows is one `simd::spmm_group`
/// call, which loads every union column's `x` block once for all rows that
/// store it. Every stored entry is used (explicit zeros too, so a NaN in
/// `x` propagates through them) by its own row only — the presence masks,
/// never zero padding, pick the rows — in stored order, as a separate
/// multiply then add from 0.0: the same IEEE operations as the plain row
/// loop at every SIMD level, so the result is bitwise equal across levels.
/// Groups are chunked over the pool; they own disjoint output rows, so it
/// is bitwise equal for any thread count too.
pub fn csr_spmm(a: &CsrRowGroups, x: &[f32], feat: usize) -> Vec<f32> {
    let _t = telemetry::span("kernel.spmm");
    let rows = a.rows();
    let mut out = alloc::buf_zeroed(rows * feat);
    if feat == 0 {
        return out;
    }
    assert!(
        a.col_bound() * feat <= x.len(),
        "spmm: x holds {} rows of {feat}, the matrix reads row {}",
        x.len() / feat,
        a.col_bound().saturating_sub(1)
    );
    let lvl = simd::level();
    let group_work = a.walked_slots().div_ceil(a.groups().max(1)).max(1) * feat;
    let writer = SliceWriter::new(&mut out);
    pool::par_chunks_weighted(a.groups(), group_work, |gs| {
        let rs = a.row_range(gs.clone());
        // Safety: groups own disjoint, consecutive output rows.
        let chunk = unsafe { writer.slice(rs.start * feat..rs.end * feat) };
        let mut off = 0;
        for g in gs {
            let group = a.group(g);
            let len = group.rows * feat;
            // Safety: every union column is below `col_bound`, and
            // `col_bound · feat <= x.len()` was asserted above.
            unsafe { simd::spmm_group(lvl, group, x, feat, &mut chunk[off..off + len]) };
            off += len;
        }
    });
    out
}

/// Elementwise logistic sigmoid `1 / (1 + exp(-x))` through the shared
/// polynomial `exp` ([`simd::sigmoid_slice`]): within 3 ulp of the exact
/// value, bitwise equal at every SIMD level. Every sigmoid of the model —
/// the tape op, the Infer op and the fused GRU gates — runs through it, so
/// the fused and composed paths stay bitwise equal.
pub fn sigmoid(x: &Tensor) -> Tensor {
    let _t = telemetry::span("kernel.sigmoid");
    if x.dtype().is_half() {
        return sigmoid(&x.to_dtype(DType::F32));
    }
    let mut out = alloc::buf_zeroed(x.numel());
    simd::sigmoid_slice(x.data(), &mut out);
    Tensor::from_vec(x.shape().clone(), out)
}

/// Numerically-stable softmax over the last axis. Parallel over rows.
pub fn softmax_lastdim(x: &Tensor) -> Tensor {
    let _t = telemetry::span("kernel.softmax");
    let d = x.dim(x.rank() - 1);
    let rows = x.numel() / d;
    let mut out = alloc::buf_zeroed(x.numel());
    let data = x.data();
    let writer = SliceWriter::new(&mut out);
    pool::par_chunks_weighted(rows, d, |rs| {
        // Safety: row ranges are disjoint output rows.
        let chunk = unsafe { writer.slice(rs.start * d..rs.end * d) };
        for (ri, r) in rs.enumerate() {
            let row = &data[r * d..(r + 1) * d];
            let orow = &mut chunk[ri * d..(ri + 1) * d];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (o, &v) in orow.iter_mut().zip(row) {
                let e = (v - m).exp();
                *o = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
    });
    Tensor::from_vec(x.shape().clone(), out)
}

/// Numerically-stable log-softmax over the last axis. Parallel over rows.
pub fn log_softmax_lastdim(x: &Tensor) -> Tensor {
    let _t = telemetry::span("kernel.log_softmax");
    let d = x.dim(x.rank() - 1);
    let rows = x.numel() / d;
    let mut out = alloc::buf_zeroed(x.numel());
    let data = x.data();
    let writer = SliceWriter::new(&mut out);
    pool::par_chunks_weighted(rows, d, |rs| {
        // Safety: row ranges are disjoint output rows.
        let chunk = unsafe { writer.slice(rs.start * d..rs.end * d) };
        for (ri, r) in rs.enumerate() {
            let row = &data[r * d..(r + 1) * d];
            let orow = &mut chunk[ri * d..(ri + 1) * d];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
            for (o, &v) in orow.iter_mut().zip(row) {
                *o = v - lse;
            }
        }
    });
    Tensor::from_vec(x.shape().clone(), out)
}

// --------------------------------------------------------- fused kernels
//
// The fused training-step kernels collapse the small-op chains that dominate
// STSM's step time (linear bias-add, GRU gates) into single passes over the
// data. They are the only path the layers take, and each one is
// bit-identical to the composed-op path it replaces: the floating-point
// expression evaluated per element, and the order gradient contributions are
// accumulated in, match the composed ops exactly (verified in
// `tests/fused_equivalence.rs`).

/// `t` in f32: itself, or its decoded copy when stored in half precision.
/// A quantized bias adds its *decoded* values — the add itself stays f32, so
/// a clean f32 input still reproduces the f32 path bit-for-bit whenever the
/// decoded bias equals the original.
fn upcast(t: &Tensor) -> Tensor {
    if t.dtype().is_half() {
        t.to_dtype(DType::F32)
    } else {
        t.clone()
    }
}

/// Fused affine map `x·W + b` with `x` (m×k), `W` (k×n) and a broadcast bias
/// row `b` (n). Bit-identical to `matmul(x, w)` followed by a broadcast add:
/// the product is `matmul`'s packed product, and the tile epilogue adds the
/// bias once to each finished accumulator.
pub fn addmm(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    let _t = telemetry::span("kernel.addmm");
    if x.dtype().is_half() {
        return addmm(&x.to_dtype(DType::F32), w, b);
    }
    assert_eq!(x.rank(), 2, "addmm lhs must be 2-D, got {}", x.shape());
    assert_eq!(w.rank(), 2, "addmm rhs must be 2-D, got {}", w.shape());
    let (m, k) = (x.dim(0), x.dim(1));
    let (k2, n) = (w.dim(0), w.dim(1));
    assert_eq!(k, k2, "addmm inner dims mismatch: {} vs {}", x.shape(), w.shape());
    assert_eq!(b.numel(), n, "addmm bias must have {} elements, got {}", n, b.shape());
    let bias = upcast(b);
    let x = MatRef::contiguous(x.data(), 0, k);
    let out = mm(x, mat_any(w, 0, n), Some(bias.data()), m, k, n);
    Tensor::from_vec([m, n], out)
}

/// Backward pass of [`addmm`]: `(grad_x, grad_w, grad_b)` for output
/// gradient `g`. Matches the composed path: the matmul gradients are the
/// standard `G·Wᵀ` / `Xᵀ·G` products (read through transpose views — no
/// materialized `Wᵀ`/`Xᵀ`), and the bias gradient sums `g` over rows in
/// row-major order — the same addition sequence as
/// `Tensor::reduce_to(g, bias_shape)`.
pub fn addmm_backward(x: &Tensor, w: &Tensor, g: &Tensor) -> (Tensor, Tensor, Tensor) {
    let gx = matmul_nt(g, w);
    let gw = matmul_tn(x, g);
    let n = g.dim(1);
    (gx, gw, Tensor::from_vec([n], col_sums(g.data(), n)))
}

/// The dense half of the fused gated GCN layer (Eq. 7): for the aggregate
/// `agg` (`(…, k)`, read as `m = numel / k` rows) and two affine maps
/// `W_v`, `W_g` (`(k, n)`) with bias rows `b_v`, `b_g` (`n`), returns
/// `out = (agg·W_v + b_v) ⊙ σ(agg·W_g + b_g)` of shape `(…, n)`, and with
/// `save` also the `(m, n)` activations `v = agg·W_v + b_v` and
/// `s = σ(agg·W_g + b_g)` the backward pass needs.
///
/// Both products run as one [`gemm::gated_gemm_into`] pass whose tile
/// epilogue computes the bias adds, the sigmoid and the product in
/// registers — bitwise equal to the composed chain `addmm`, `addmm`,
/// `sigmoid`, `mul`, at every size.
pub fn gated_gcn(
    agg: &Tensor,
    wv: &Tensor,
    bv: &Tensor,
    wg: &Tensor,
    bg: &Tensor,
    save: bool,
) -> (Tensor, Option<(Tensor, Tensor)>) {
    if agg.dtype().is_half() {
        return gated_gcn(&agg.to_dtype(DType::F32), wv, bv, wg, bg, save);
    }
    let _t = telemetry::span("kernel.gated_gcn");
    assert!(agg.rank() >= 1, "gated_gcn input must have at least one dim");
    let k = agg.dim(agg.rank() - 1);
    assert_eq!(wv.dims(), wg.dims(), "gated_gcn value and gate weights differ in shape");
    assert_eq!(wv.rank(), 2, "gated_gcn weights must be 2-D, got {}", wv.shape());
    assert_eq!(wv.dim(0), k, "gated_gcn inner dims mismatch: {} vs {}", agg.shape(), wv.shape());
    let n = wv.dim(1);
    assert!(bv.numel() == n && bg.numel() == n, "gated_gcn biases must have {n} elements");
    let m = agg.numel() / k.max(1);
    let mut out_dims = agg.dims().to_vec();
    *out_dims.last_mut().expect("rank checked above") = n;
    let (bias_v, bias_g) = (upcast(bv), upcast(bg));
    let mut out = alloc::buf_zeroed(m * n);
    let mut saved = save.then(|| (alloc::buf_zeroed(m * n), alloc::buf_zeroed(m * n)));
    gemm::gated_gemm_into(
        MatRef::contiguous(agg.data(), 0, k),
        mat_any(wv, 0, n),
        mat_any(wg, 0, n),
        bias_v.data(),
        bias_g.data(),
        &mut out,
        saved.as_mut().map(|(v, s)| (&mut v[..], &mut s[..])),
        m,
        k,
        n,
    );
    let saved = saved.map(|(v, s)| (Tensor::from_vec([m, n], v), Tensor::from_vec([m, n], s)));
    (Tensor::from_vec(out_dims, out), saved)
}

/// Backward pass of [`gated_gcn`] for output gradient `g`, given the saved
/// aggregate `agg` and activations `v`, `s`: `(grad_agg, grad_w_v,
/// grad_b_v, grad_w_g, grad_b_g)`. It replays the composed chain's
/// arithmetic, so every gradient is bitwise equal to it:
///
/// * `dv = g·s` and `dĝ = (g·v)·(s·(1 − s))` — the mul and sigmoid
///   backward expressions — go into one `(m, 2n)` buffer `[dv | dĝ]`;
/// * the weight gradients are `aggᵀ·dv` and `aggᵀ·dĝ`, two packed products
///   over strided views of that buffer;
/// * the bias gradients are column sums in row order;
/// * `grad_agg = dĝ·W_gᵀ`, then `+= dv·W_vᵀ` — the order the tape
///   accumulated the two `addmm` contributions in. These stay two products:
///   one `K = 2n` product would round differently.
pub fn gated_gcn_backward(
    agg: &Tensor,
    wv: &Tensor,
    wg: &Tensor,
    v: &Tensor,
    s: &Tensor,
    g: &Tensor,
) -> (Tensor, Tensor, Tensor, Tensor, Tensor) {
    if agg.dtype().is_half() {
        return gated_gcn_backward(&agg.to_dtype(DType::F32), wv, wg, v, s, g);
    }
    let _t = telemetry::span("kernel.gated_gcn_bwd");
    let k = agg.dim(agg.rank() - 1);
    let n = wv.dim(1);
    let m = v.numel() / n.max(1);
    assert_eq!(g.numel(), m * n, "gated_gcn grad_out size mismatch");
    let n2 = 2 * n;
    let mut d = alloc::buf_with_capacity(m * n2);
    for ((gr, vr), sr) in
        g.data().chunks_exact(n).zip(v.data().chunks_exact(n)).zip(s.data().chunks_exact(n))
    {
        d.extend(gr.iter().zip(sr).map(|(&gv, &sv)| gv * sv));
        d.extend(gr.iter().zip(vr).zip(sr).map(|((&gv, &vv), &sv)| (gv * vv) * (sv * (1.0 - sv))));
    }
    let dv = MatRef { data: &d, base: 0, rs: n2, cs: 1 };
    let dg = MatRef { data: &d, base: n, rs: n2, cs: 1 };
    let agg_t = MatRef::contiguous(agg.data(), 0, k).transposed();
    let dwv = mm(agg_t, AnyMatRef::F32(dv), None, k, m, n);
    let dwg = mm(agg_t, AnyMatRef::F32(dg), None, k, m, n);
    let mut db = col_sums(&d, n2);
    let dbg = db.split_off(n);
    let mut dagg = mm(dg, mat_any(wg, 0, n).transposed(), None, m, n, k);
    let part = mm(dv, mat_any(wv, 0, n).transposed(), None, m, n, k);
    for (o, &p) in dagg.iter_mut().zip(&part) {
        *o += p;
    }
    alloc::recycle(part);
    alloc::recycle(d);
    (
        Tensor::from_vec(agg.shape().clone(), dagg),
        Tensor::from_vec([k, n], dwv),
        Tensor::from_vec([n], db),
        Tensor::from_vec([k, n], dwg),
        Tensor::from_vec([n], dbg),
    )
}

/// Fused GRU reset gate: `r = sigmoid(ar)`, `rh = r ⊙ h` in one node.
/// Returns `(rh, r)`; `r` is saved for the backward pass. Bit-identical to
/// `mul(sigmoid(ar), h)`.
pub fn gru_rh(ar: &Tensor, h: &Tensor) -> (Tensor, Tensor) {
    assert_eq!(ar.shape(), h.shape(), "gru_rh shape mismatch");
    let r = sigmoid(ar);
    let mut rh = alloc::buf_with_capacity(ar.numel());
    rh.extend(r.data().iter().zip(h.data()).map(|(&rv, &hv)| rv * hv));
    (Tensor::from_vec(ar.shape().clone(), rh), r)
}

/// Backward pass of [`gru_rh`] given the saved gate `r`, the hidden state
/// `h` and the output gradient `g`: `(grad_ar, grad_h)`. The per-element
/// expressions replay the composed path exactly: the mul op's `g·h` feeds
/// the sigmoid derivative `r·(1-r)`, and `grad_h = g·r`.
pub fn gru_rh_backward(r: &Tensor, h: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
    let len = g.numel();
    let mut gar = alloc::buf_with_capacity(len);
    let mut gh = alloc::buf_with_capacity(len);
    for ((&rv, &hv), &gv) in r.data().iter().zip(h.data()).zip(g.data()) {
        gar.push((gv * hv) * (rv * (1.0 - rv)));
        gh.push(gv * rv);
    }
    (Tensor::from_vec(g.shape().clone(), gar), Tensor::from_vec(g.shape().clone(), gh))
}

/// Fused GRU output gate: `z = sigmoid(az)`, `n = tanh(s)`,
/// `h' = (1-z)⊙n + z⊙h` in one node. Returns `(h', z, n)` with the gate
/// activations saved for the backward pass. Bit-identical to the composed
/// chain `add(mul(sub(1, z), n), mul(z, h))`.
pub fn gru_out(az: &Tensor, s: &Tensor, h: &Tensor) -> (Tensor, Tensor, Tensor) {
    assert_eq!(az.shape(), h.shape(), "gru_out shape mismatch");
    assert_eq!(s.shape(), h.shape(), "gru_out shape mismatch");
    let len = az.numel();
    let z = sigmoid(az);
    let mut n = alloc::buf_with_capacity(len);
    let mut out = alloc::buf_with_capacity(len);
    for ((&zv, &sv), &hv) in z.data().iter().zip(s.data()).zip(h.data()) {
        let nv = sv.tanh();
        n.push(nv);
        out.push((1.0 - zv) * nv + zv * hv);
    }
    (Tensor::from_vec(az.shape().clone(), out), z, Tensor::from_vec(az.shape().clone(), n))
}

/// Backward pass of [`gru_out`] given the saved gates and output gradient:
/// `(grad_az, grad_s, grad_h)`. Each expression replays the composed chain's
/// accumulation order: the update gate receives `g·h` from `z⊙h` first, then
/// `-(g·n)` from `1-z` (written as `x + (-y)`, which is IEEE-identical to
/// the composed sub-then-accumulate), before the sigmoid derivative.
pub fn gru_out_backward(
    z: &Tensor,
    n: &Tensor,
    h: &Tensor,
    g: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let len = g.numel();
    let mut gaz = alloc::buf_with_capacity(len);
    let mut gs = alloc::buf_with_capacity(len);
    let mut gh = alloc::buf_with_capacity(len);
    for (((&zv, &nv), &hv), &gv) in z.data().iter().zip(n.data()).zip(h.data()).zip(g.data()) {
        let omz = 1.0 - zv;
        gaz.push(((gv * hv) + (-(gv * nv))) * (zv * (1.0 - zv)));
        gs.push((gv * omz) * (1.0 - nv * nv));
        gh.push(gv * zv);
    }
    (
        Tensor::from_vec(g.shape().clone(), gaz),
        Tensor::from_vec(g.shape().clone(), gs),
        Tensor::from_vec(g.shape().clone(), gh),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_fill(len: usize, mul: usize, modulo: usize, div: f32) -> Vec<f32> {
        (0..len).map(|i| ((i * mul) % modulo) as f32 / div - 0.5).collect()
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec([3, 3], (0..9).map(|i| i as f32).collect());
        let c = matmul(&a, &Tensor::eye(3));
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Large enough to trigger the parallel path.
        let m = 257;
        let k = 129;
        let n = 131;
        let a = pseudo_fill(m * k, 2654435761, 1000, 997.0);
        let b = pseudo_fill(k * n, 40503, 1000, 991.0);
        let fast = matmul_raw(&a, &b, m, k, n);
        // Reference triple loop.
        let mut reference = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a[i * k + kk] * b[kk * n + j];
                }
                reference[i * n + j] = s;
            }
        }
        for (x, y) in fast.iter().zip(reference.iter()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_zero_times_nan_is_nan() {
        // A zero in `a` must not swallow a NaN (or Inf) coming from `b`.
        let a = Tensor::from_vec([1, 2], vec![0.0, 0.0]);
        let b = Tensor::from_vec([2, 2], vec![f32::NAN, 1.0, 2.0, f32::INFINITY]);
        let c = matmul(&a, &b);
        assert!(c.data()[0].is_nan(), "0·NaN must propagate, got {}", c.data()[0]);
        assert!(c.data()[1].is_nan(), "0·∞ must propagate, got {}", c.data()[1]);
    }

    #[test]
    fn quantized_b_matches_dequantize_then_multiply_bitwise() {
        // At every size — tiny, 12,288 MACs (2^13 ≤ m·k·n < 2^15) and past
        // 2^15 — a product against quantized weights must equal multiplying
        // the decoded values at full precision, bit for bit.
        for (m, k, n) in [(3, 4, 5), (1, 16, 16), (16, 32, 24), (40, 50, 40)] {
            let x = Tensor::from_vec([m, k], pseudo_fill(m * k, 2654435761, 1000, 997.0));
            let w = Tensor::from_vec([k, n], pseudo_fill(k * n, 40503, 1000, 991.0));
            let wt = Tensor::from_vec([n, k], pseudo_fill(n * k, 40503, 1000, 991.0));
            let bias = Tensor::from_vec([n], pseudo_fill(n, 19, 97, 93.0));
            for dt in [DType::F16, DType::Bf16] {
                let (qw, qwt, qb) = (w.to_dtype(dt), wt.to_dtype(dt), bias.to_dtype(dt));
                let (dw, dwt, db) =
                    (qw.to_dtype(DType::F32), qwt.to_dtype(DType::F32), qb.to_dtype(DType::F32));
                assert_eq!(matmul(&x, &qw), matmul(&x, &dw), "{dt} matmul {m}x{k}x{n}");
                assert_eq!(matmul_nt(&x, &qwt), matmul_nt(&x, &dwt), "{dt} matmul_nt");
                // Half *lhs* goes through the whole-operand upcast guard.
                let g = Tensor::from_vec([m, n], pseudo_fill(m * n, 29, 203, 101.0));
                let qx = x.to_dtype(dt);
                assert_eq!(matmul_tn(&qx, &g), matmul_tn(&qx.to_dtype(DType::F32), &g));
                assert_eq!(addmm(&x, &qw, &qb), addmm(&x, &dw, &db), "{dt} addmm");
                let (q, _) = gated_gcn(&x, &qw, &qb, &qw, &qb, false);
                assert_eq!(q, gated_gcn(&x, &dw, &db, &dw, &db, false).0, "{dt} gated_gcn");
            }
        }
    }

    #[test]
    fn kernels_bit_identical_across_thread_counts() {
        // Serial (cap 1) is the reference; every parallel cap must be
        // bit-for-bit equal, including sizes past the parallel threshold.
        let m = 160;
        let k = 170;
        let n = 160; // 160*170*160 ≈ 4.35M MACs > PAR_THRESHOLD
        let a = pseudo_fill(m * k, 2654435761, 1000, 997.0);
        let b = pseudo_fill(k * n, 40503, 1000, 991.0);
        let at = Tensor::from_vec([m, k], a.clone());
        let bt = Tensor::from_vec([k, n], b.clone());
        let a3 = Tensor::from_vec([8, 40, 30], pseudo_fill(8 * 40 * 30, 97, 813, 811.0));
        let b3 = Tensor::from_vec([8, 30, 20], pseudo_fill(8 * 30 * 20, 89, 411, 409.0));
        let x = Tensor::from_vec([6, 5, 64], pseudo_fill(6 * 5 * 64, 31, 617, 613.0));
        let w = Tensor::from_vec([4, 5, 3], pseudo_fill(4 * 5 * 3, 7, 53, 51.0));
        let go = Tensor::from_vec([6, 4, 64], pseudo_fill(6 * 4 * 64, 13, 211, 209.0));
        let sm = Tensor::from_vec([300, 40], pseudo_fill(300 * 40, 17, 509, 505.0));
        let run = || {
            let mm = matmul(&at, &bt);
            let bm = bmm(&a3, &b3);
            let cf = conv1d_dilated(&x, &w, None, 2);
            let (gi, gw, gb) = conv1d_dilated_backward(&x, &w, &go, 2);
            let s = softmax_lastdim(&sm);
            let ls = log_softmax_lastdim(&sm);
            (mm, bm, cf, gi, gw, gb, s, ls)
        };
        let reference = pool::with_max_threads(1, run);
        for cap in [2, 7] {
            let got = pool::with_max_threads(cap, run);
            assert_eq!(reference.0, got.0, "matmul differs at cap {cap}");
            assert_eq!(reference.1, got.1, "bmm differs at cap {cap}");
            assert_eq!(reference.2, got.2, "conv1d differs at cap {cap}");
            assert_eq!(reference.3, got.3, "conv1d gi differs at cap {cap}");
            assert_eq!(reference.4, got.4, "conv1d gw differs at cap {cap}");
            assert_eq!(reference.5, got.5, "conv1d gb differs at cap {cap}");
            assert_eq!(reference.6, got.6, "softmax differs at cap {cap}");
            assert_eq!(reference.7, got.7, "log_softmax differs at cap {cap}");
        }
    }

    #[test]
    fn addmm_bitwise_matches_composed_ops() {
        // Small (serial) and large (parallel) problems.
        for (m, k, n) in [(3, 4, 5), (160, 170, 160)] {
            let x = Tensor::from_vec([m, k], pseudo_fill(m * k, 2654435761, 1000, 997.0));
            let w = Tensor::from_vec([k, n], pseudo_fill(k * n, 40503, 1000, 991.0));
            let b = Tensor::from_vec([n], pseudo_fill(n, 19, 97, 93.0));
            let composed = matmul(&x, &w).zip_broadcast(&b, |p, bv| p + bv);
            let reference = pool::with_max_threads(1, || addmm(&x, &w, &b));
            assert_eq!(reference, composed, "addmm differs from composed at {m}x{k}x{n}");
            for cap in [2, 7] {
                let got = pool::with_max_threads(cap, || addmm(&x, &w, &b));
                assert_eq!(reference, got, "addmm differs at cap {cap}");
            }
        }
    }

    #[test]
    fn addmm_backward_bias_matches_reduce_to() {
        let g = Tensor::from_vec([5, 3], pseudo_fill(15, 31, 101, 97.0));
        let x = Tensor::from_vec([5, 2], pseudo_fill(10, 7, 53, 51.0));
        let w = Tensor::from_vec([2, 3], pseudo_fill(6, 11, 29, 23.0));
        let (gx, gw, gb) = addmm_backward(&x, &w, &g);
        assert_eq!(gx, matmul(&g, &w.t()));
        assert_eq!(gw, matmul(&x.t(), &g));
        assert_eq!(gb, Tensor::reduce_to(&g, &crate::Shape::new(&[3])));
    }

    #[test]
    fn gru_kernels_match_pointwise_formulas() {
        let len = 64;
        let ar = Tensor::from_vec([8, 8], pseudo_fill(len, 13, 211, 105.0));
        let az = Tensor::from_vec([8, 8], pseudo_fill(len, 17, 509, 253.0));
        let s = Tensor::from_vec([8, 8], pseudo_fill(len, 19, 401, 199.0));
        let h = Tensor::from_vec([8, 8], pseudo_fill(len, 23, 307, 151.0));
        let g = Tensor::from_vec([8, 8], pseudo_fill(len, 29, 203, 101.0));
        let (rh, r) = gru_rh(&ar, &h);
        assert_eq!(r, sigmoid(&ar));
        assert_eq!(rh, r.zip(&h, |a, b| a * b));
        let (gar, ghr) = gru_rh_backward(&r, &h, &g);
        assert_eq!(gar, g.zip(&h, |a, b| a * b).zip(&r, |x, rv| x * (rv * (1.0 - rv))));
        assert_eq!(ghr, g.zip(&r, |a, b| a * b));
        let (out, z, n) = gru_out(&az, &s, &h);
        assert_eq!(z, sigmoid(&az));
        assert_eq!(n, s.map(f32::tanh));
        let omz = z.map(|v| 1.0 - v);
        let composed = omz.zip(&n, |a, b| a * b).zip(&z.zip(&h, |a, b| a * b), |a, b| a + b);
        assert_eq!(out, composed);
        let (gaz, ggs, ggh) = gru_out_backward(&z, &n, &h, &g);
        assert_eq!(ggh, g.zip(&z, |a, b| a * b));
        let expect_gs = g.zip(&omz, |a, b| a * b).zip(&n, |x, nv| x * (1.0 - nv * nv));
        assert_eq!(ggs, expect_gs);
        let acc = g.zip(&h, |a, b| a * b).zip(&g.zip(&n, |a, b| a * b), |x, y| x + (-y));
        assert_eq!(gaz, acc.zip(&z, |x, zv| x * (zv * (1.0 - zv))));
    }

    #[test]
    fn bmm_batches_independent() {
        let a = Tensor::from_vec([2, 1, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec([2, 2, 1], vec![5., 6., 7., 8.]);
        let c = bmm(&a, &b);
        assert_eq!(c.dims(), &[2, 1, 1]);
        assert_eq!(c.data(), &[17., 53.]);
    }

    #[test]
    fn conv1d_identity_kernel() {
        // K=1 kernel with weight 1 is the identity.
        let x = Tensor::from_vec([1, 1, 4], vec![1., 2., 3., 4.]);
        let w = Tensor::from_vec([1, 1, 1], vec![1.0]);
        let y = conv1d_dilated(&x, &w, None, 1);
        assert_eq!(y, x);
    }

    #[test]
    fn conv1d_causal_shift() {
        // K=2 kernel [0, 1] with dilation 1: tap kk=1 has shift 0 (current),
        // kk=0 has shift 1 (previous); weight [1, 0] picks the previous value.
        let x = Tensor::from_vec([1, 1, 4], vec![1., 2., 3., 4.]);
        let w = Tensor::from_vec([1, 1, 2], vec![1.0, 0.0]);
        let y = conv1d_dilated(&x, &w, None, 1);
        assert_eq!(y.data(), &[0., 1., 2., 3.]);
        // Dilation 2: previous-previous.
        let y2 = conv1d_dilated(&x, &w, None, 2);
        assert_eq!(y2.data(), &[0., 0., 1., 2.]);
    }

    #[test]
    fn conv1d_bias_added() {
        let x = Tensor::zeros([1, 1, 3]);
        let w = Tensor::from_vec([2, 1, 1], vec![1., 1.]);
        let b = Tensor::from_vec([2], vec![0.5, -0.5]);
        let y = conv1d_dilated(&x, &w, Some(&b), 1);
        assert_eq!(y.data(), &[0.5, 0.5, 0.5, -0.5, -0.5, -0.5]);
    }

    #[test]
    fn conv1d_backward_finite_difference() {
        let x = Tensor::from_vec([1, 2, 5], (0..10).map(|i| (i as f32) * 0.3 - 1.0).collect());
        let w = Tensor::from_vec([2, 2, 2], (0..8).map(|i| (i as f32) * 0.1 - 0.3).collect());
        let dil = 2;
        let go = Tensor::ones([1, 2, 5]);
        let (gi, gw, gb) = conv1d_dilated_backward(&x, &w, &go, dil);
        let f = |x: &Tensor, w: &Tensor| conv1d_dilated(x, w, None, dil).sum();
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp, &w) - f(&xm, &w)) / (2.0 * eps);
            assert!((num - gi.data()[i]).abs() < 1e-2, "gi[{i}]: {num} vs {}", gi.data()[i]);
        }
        for i in 0..w.numel() {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (f(&x, &wp) - f(&x, &wm)) / (2.0 * eps);
            assert!((num - gw.data()[i]).abs() < 1e-2, "gw[{i}]: {num} vs {}", gw.data()[i]);
        }
        // Bias gradient is just the per-channel sum of grad_out.
        assert_eq!(gb.data(), &[5.0, 5.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec([2, 3], vec![1., 2., 3., -1., 0., 100.]);
        let s = softmax_lastdim(&x);
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large logit dominates without overflow.
        assert!(s.at(&[1, 2]) > 0.999);
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let x = Tensor::from_vec([1, 4], vec![0.5, -0.2, 1.5, 0.0]);
        let s = softmax_lastdim(&x);
        let ls = log_softmax_lastdim(&x);
        for i in 0..4 {
            assert!((ls.data()[i].exp() - s.data()[i]).abs() < 1e-5);
        }
    }
}
