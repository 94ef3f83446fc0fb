//! Dense, contiguous, row-major tensors with copy-on-write, dtype-tagged
//! storage.
//!
//! Storage is an `Arc` over either an f32 buffer or a 16-bit buffer of
//! f16/bf16 bit patterns ([`crate::dtype::DType`]); cloning a [`Tensor`] is
//! O(1) and mutation goes through [`Tensor::data_mut`], which copies only
//! when the buffer is shared. This keeps the autograd tape cheap: saved
//! activations are clones.
//!
//! ## Precision model
//!
//! All *computation* is f32: [`Tensor::data`]/[`Tensor::data_mut`] are the
//! typed f32 accessors the kernels build on, and they panic on half storage
//! rather than silently widen. Half tensors are storage-only (quantized
//! model weights): the hot kernels ([`crate::kernels`]) read their raw bits
//! via [`Tensor::half_bits`] and convert during packing, while every other
//! operation falls back to an explicit [`Tensor::to_dtype`] upcast — so the
//! whole API works for any dtype, with f32 semantics and f32 accumulation
//! everywhere. Training never sees a half tensor; the f32 path is bitwise
//! unchanged.

use crate::alloc;
use crate::codec;
use crate::dtype::{self, DType};
use crate::shape::{Layout, Shape};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Dtype-tagged storage: f32 buffers for everything the tape touches, raw
/// 16-bit patterns for quantized (f16/bf16) weights.
enum Storage {
    F32(Arc<Vec<f32>>),
    Half(DType, Arc<Vec<u16>>),
}

impl Storage {
    fn dtype(&self) -> DType {
        match self {
            Storage::F32(_) => DType::F32,
            Storage::Half(dt, _) => *dt,
        }
    }
}

impl Clone for Storage {
    fn clone(&self) -> Self {
        match self {
            Storage::F32(v) => Storage::F32(Arc::clone(v)),
            Storage::Half(dt, v) => Storage::Half(*dt, Arc::clone(v)),
        }
    }
}

/// A dense tensor (contiguous, row-major; f32 or half-precision storage).
pub struct Tensor {
    shape: Shape,
    data: Storage,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor { shape: self.shape.clone(), data: self.data.clone() }
    }
}

impl Drop for Tensor {
    /// Returns the storage buffer to the recycling pool ([`crate::alloc`],
    /// per dtype) when this tensor is its unique owner; shared storage
    /// (clones, tape leaves) is left for the last owner to recycle.
    fn drop(&mut self) {
        match &mut self.data {
            Storage::F32(arc) => {
                if Arc::strong_count(arc) != 1 {
                    return;
                }
                let data = std::mem::replace(arc, alloc::empty_shared());
                if let Ok(buf) = Arc::try_unwrap(data) {
                    alloc::recycle(buf);
                }
            }
            Storage::Half(_, arc) => {
                if Arc::strong_count(arc) != 1 {
                    return;
                }
                let data = std::mem::replace(arc, alloc::empty_shared_u16());
                if let Ok(buf) = Arc::try_unwrap(data) {
                    alloc::recycle_u16(buf);
                }
            }
        }
    }
}

impl Tensor {
    /// Builds a tensor from raw data. Panics if `data.len() != shape.numel()`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor { shape, data: Storage::F32(Arc::new(data)) }
    }

    /// Builds a half-precision tensor from raw 16-bit patterns of `dt`
    /// (which must be [`DType::F16`] or [`DType::Bf16`]).
    pub fn from_half_bits(shape: impl Into<Shape>, dt: DType, bits: Vec<u16>) -> Self {
        assert!(dt.is_half(), "from_half_bits: {dt} is not a half dtype");
        let shape = shape.into();
        assert_eq!(
            bits.len(),
            shape.numel(),
            "bits length {} does not match shape {} ({} elements)",
            bits.len(),
            shape,
            shape.numel()
        );
        Tensor { shape, data: Storage::Half(dt, Arc::new(bits)) }
    }

    /// A scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::from_vec(Shape::scalar(), vec![v])
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::from_vec(shape, alloc::buf_zeroed(n))
    }

    /// All-ones tensor of the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor of the given shape.
    pub fn full(shape: impl Into<Shape>, v: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::from_vec(shape, alloc::buf_filled(n, v))
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut data = alloc::buf_zeroed(n * n);
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::from_vec([n, n], data)
    }

    /// `[0, 1, ..., n-1]` as a 1-D tensor.
    pub fn arange(n: usize) -> Self {
        let mut data = alloc::buf_with_capacity(n);
        data.extend((0..n).map(|i| i as f32));
        Tensor::from_vec([n], data)
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Size of dimension `axis`.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// The element type of the storage buffer.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Bytes the storage buffer holds for this tensor's elements.
    pub fn storage_bytes(&self) -> usize {
        self.numel() * self.dtype().size_of()
    }

    /// Read-only view of the underlying f32 buffer — the typed accessor the
    /// kernels assume. Panics on half storage: callers that can meet a
    /// quantized tensor go through [`Tensor::half_bits`] or
    /// [`Tensor::to_dtype`] instead of assuming f32.
    pub fn data(&self) -> &[f32] {
        match &self.data {
            Storage::F32(v) => v,
            Storage::Half(dt, _) => {
                panic!("data() on a {dt} tensor: use half_bits() or to_dtype(DType::F32)")
            }
        }
    }

    /// Raw 16-bit patterns of a half-precision tensor. Panics on f32
    /// storage (the mirror of [`Tensor::data`]'s contract).
    pub fn half_bits(&self) -> &[u16] {
        match &self.data {
            Storage::F32(_) => panic!("half_bits() on an f32 tensor: use data()"),
            Storage::Half(_, b) => b,
        }
    }

    /// Mutable view of the underlying f32 buffer (copy-on-write; the copy of
    /// shared storage is a pooled buffer). Panics on half storage: quantized
    /// tensors are immutable (re-quantize from f32 instead of editing bits in
    /// place).
    pub fn data_mut(&mut self) -> &mut [f32] {
        match &mut self.data {
            Storage::F32(v) => {
                if Arc::get_mut(v).is_none() {
                    let mut copy = alloc::buf_with_capacity(v.len());
                    copy.extend_from_slice(v);
                    *v = Arc::new(copy);
                }
                Arc::get_mut(v).expect("storage is unique after the copy").as_mut_slice()
            }
            Storage::Half(dt, _) => {
                panic!("data_mut() on a {dt} tensor: quantized storage is read-only")
            }
        }
    }

    /// Converts to `dt` storage. f32 → half quantizes with round-to-nearest-
    /// even ([`crate::dtype`]); half → f32 is exact. Converting to the
    /// current dtype is a cheap clone. Buffers come from the per-dtype
    /// recycling pools, so steady-state conversion allocates nothing.
    pub fn to_dtype(&self, dt: DType) -> Tensor {
        if dt == self.dtype() {
            return self.clone();
        }
        let n = self.numel();
        match (&self.data, dt) {
            (Storage::F32(v), _) => {
                crate::telemetry::count("dtype.quantize", 1);
                let mut bits = alloc::buf_u16_with_capacity(n);
                bits.resize(n, 0);
                dtype::encode_slice(dt, v, &mut bits);
                Tensor { shape: self.shape.clone(), data: Storage::Half(dt, Arc::new(bits)) }
            }
            (Storage::Half(h, bits), DType::F32) => {
                crate::telemetry::count("dtype.dequantize", 1);
                let mut out = alloc::buf_with_capacity(n);
                out.resize(n, 0.0);
                dtype::decode_slice(*h, bits, &mut out);
                Tensor { shape: self.shape.clone(), data: Storage::F32(Arc::new(out)) }
            }
            (Storage::Half(..), _) => self.to_dtype(DType::F32).to_dtype(dt),
        }
    }

    /// `Some(f32 copy)` for half storage, `None` when already f32. The
    /// guard every dtype-generic fallback opens with.
    fn upcast(&self) -> Option<Tensor> {
        if self.dtype() == DType::F32 {
            None
        } else {
            Some(self.to_dtype(DType::F32))
        }
    }

    /// Element at a multi-dimensional index (decoded to f32 for half
    /// storage).
    pub fn at(&self, idx: &[usize]) -> f32 {
        let off = self.shape.offset(idx);
        match &self.data {
            Storage::F32(v) => v[off],
            Storage::Half(dt, b) => dtype::decode_one(*dt, b[off]),
        }
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, idx: &[usize], v: f32) {
        let off = self.shape.offset(idx);
        self.data_mut()[off] = v;
    }

    /// The single value of a scalar (or one-element) tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires exactly one element, shape is {}", self.shape);
        match &self.data {
            Storage::F32(v) => v[0],
            Storage::Half(dt, b) => dtype::decode_one(*dt, b[0]),
        }
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape from {} to {} changes element count",
            self.shape,
            shape
        );
        Tensor { shape, data: self.data.clone() }
    }

    /// Applies `f` to every element, returning a new (f32) tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        if let Some(t) = self.upcast() {
            return t.map(f);
        }
        let mut out = alloc::buf_with_capacity(self.numel());
        out.extend(self.data().iter().map(|&x| f(x)));
        Tensor::from_vec(self.shape.clone(), out)
    }

    /// Applies `f(self[i], other[i])` elementwise. Panics on shape mismatch
    /// (no broadcasting; see [`Tensor::zip_broadcast`]).
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        if self.dtype().is_half() || other.dtype().is_half() {
            return self.to_dtype(DType::F32).zip(&other.to_dtype(DType::F32), f);
        }
        let mut out = alloc::buf_with_capacity(self.numel());
        out.extend(self.data().iter().zip(other.data().iter()).map(|(&a, &b)| f(a, b)));
        Tensor::from_vec(self.shape.clone(), out)
    }

    /// Elementwise combine with NumPy-style broadcasting.
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        if self.shape == other.shape {
            return self.zip(other, f);
        }
        let out_shape = self
            .shape
            .broadcast_with(&other.shape)
            .unwrap_or_else(|| panic!("cannot broadcast {} with {}", self.shape, other.shape));
        let a = self.broadcast_to(&out_shape);
        let b = other.broadcast_to(&out_shape);
        a.zip(&b, f)
    }

    /// Materializes a broadcast of this tensor to `target`.
    pub fn broadcast_to(&self, target: &Shape) -> Tensor {
        if &self.shape == target {
            return self.clone();
        }
        if let Some(t) = self.upcast() {
            return t.broadcast_to(target);
        }
        assert!(
            self.shape.broadcasts_to(target),
            "{} does not broadcast to {}",
            self.shape,
            target
        );
        let r = target.rank();
        let pad = r - self.shape.rank();
        let src_strides = self.shape.strides();
        let tdims = target.dims();
        // Effective strides in the target frame: 0 where the source dim is 1
        // or absent.
        let eff: Vec<usize> = (0..r)
            .map(|i| match i.checked_sub(pad) {
                Some(s) if self.shape.dim(s) != 1 => src_strides[s],
                _ => 0,
            })
            .collect();
        // Dims `[inner..]` match the source exactly, so each outer index
        // copies one contiguous source run; dims `[bcast..inner]` are all
        // broadcast, so that run repeats `reps` times back to back; an
        // odometer walks the remaining dims `[..bcast]`.
        let mut inner = r;
        while inner > 0 && inner > pad && self.shape.dim(inner - 1 - pad) == tdims[inner - 1] {
            inner -= 1;
        }
        let mut bcast = inner;
        while bcast > 0 && eff[bcast - 1] == 0 {
            bcast -= 1;
        }
        let run: usize = tdims[inner..].iter().product();
        let reps: usize = tdims[bcast..inner].iter().product();
        let outer: usize = tdims[..bcast].iter().product();
        let n = target.numel();
        let mut out = alloc::buf_with_capacity(n);
        let data = self.data();
        if n > 0 {
            let mut idx = vec![0usize; bcast];
            let mut src_off = 0usize;
            for _ in 0..outer {
                let block = &data[src_off..src_off + run];
                for _ in 0..reps {
                    out.extend_from_slice(block);
                }
                for i in (0..bcast).rev() {
                    idx[i] += 1;
                    src_off += eff[i];
                    if idx[i] < tdims[i] {
                        break;
                    }
                    src_off -= eff[i] * tdims[i];
                    idx[i] = 0;
                }
            }
        }
        Tensor { shape: target.clone(), data: Storage::F32(Arc::new(out)) }
    }

    /// Reduces a broadcasted gradient back to this tensor's original shape by
    /// summing over broadcast dimensions. `grad` must have a shape that
    /// `original` broadcasts to.
    pub fn reduce_to(grad: &Tensor, original: &Shape) -> Tensor {
        if grad.shape() == original {
            return grad.clone();
        }
        if let Some(t) = grad.upcast() {
            return Tensor::reduce_to(&t, original);
        }
        let gr = grad.rank();
        let pad = gr - original.rank();
        let mut out = Tensor::zeros(original.clone());
        {
            let odata = out.data_mut();
            let gdims = grad.dims().to_vec();
            let ostrides = original.strides();
            let mut idx = vec![0usize; gr];
            let mut ooff = 0usize;
            // Effective output strides in the grad frame (0 on broadcast dims).
            let mut eff = vec![0usize; gr];
            for i in 0..gr {
                if i >= pad {
                    let od = original.dim(i - pad);
                    eff[i] = if od == 1 { 0 } else { ostrides[i - pad] };
                }
            }
            for &g in grad.data().iter() {
                odata[ooff] += g;
                for i in (0..gr).rev() {
                    idx[i] += 1;
                    ooff += eff[i];
                    if idx[i] < gdims[i] {
                        break;
                    }
                    ooff -= eff[i] * gdims[i];
                    idx[i] = 0;
                }
            }
        }
        out
    }

    /// Transposes a 2-D tensor.
    pub fn t(&self) -> Tensor {
        if let Some(t) = self.upcast() {
            return t.t();
        }
        assert_eq!(self.rank(), 2, "t() requires a 2-D tensor, got {}", self.shape);
        let (m, n) = (self.dim(0), self.dim(1));
        let mut out = alloc::buf_zeroed(m * n);
        let data = self.data();
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = data[i * n + j];
            }
        }
        Tensor::from_vec([n, m], out)
    }

    /// Permutes dimensions: `out[idx] = self[idx[perm]]` semantics of
    /// `numpy.transpose` (axis `i` of the output is axis `perm[i]` of input).
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        if let Some(t) = self.upcast() {
            return t.permute(perm);
        }
        assert_eq!(perm.len(), self.rank(), "permute rank mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {:?}", perm);
            seen[p] = true;
        }
        let out_dims: Vec<usize> = perm.iter().map(|&p| self.dim(p)).collect();
        let out_shape = Shape::new(&out_dims);
        let src_strides = self.shape.strides();
        let n = self.numel();
        let mut out = alloc::buf_with_capacity(n);
        let r = self.rank();
        let mut idx = vec![0usize; r];
        // Stride of output index i in the source buffer.
        let eff: Vec<usize> = perm.iter().map(|&p| src_strides[p]).collect();
        let mut src_off = 0usize;
        let data = self.data();
        for _ in 0..n {
            out.push(data[src_off]);
            for i in (0..r).rev() {
                idx[i] += 1;
                src_off += eff[i];
                if idx[i] < out_dims[i] {
                    break;
                }
                src_off -= eff[i] * out_dims[i];
                idx[i] = 0;
            }
        }
        Tensor { shape: out_shape, data: Storage::F32(Arc::new(out)) }
    }

    /// Slices along `axis`, keeping indices in `[start, end)`.
    pub fn slice(&self, axis: usize, start: usize, end: usize) -> Tensor {
        if let Some(t) = self.upcast() {
            return t.slice(axis, start, end);
        }
        assert!(axis < self.rank(), "slice axis out of range");
        assert!(start <= end && end <= self.dim(axis), "slice range out of bounds");
        let outer: usize = self.dims()[..axis].iter().product();
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let d = self.dim(axis);
        let len = end - start;
        let mut out = alloc::buf_with_capacity(outer * len * inner);
        let data = self.data();
        for o in 0..outer {
            let base = o * d * inner;
            out.extend_from_slice(&data[base + start * inner..base + end * inner]);
        }
        let mut dims = self.dims().to_vec();
        dims[axis] = len;
        Tensor::from_vec(dims, out)
    }

    /// Selects rows (`axis = 0` entries) by index, with repetition allowed.
    pub fn index_select0(&self, indices: &[usize]) -> Tensor {
        if let Some(t) = self.upcast() {
            return t.index_select0(indices);
        }
        assert!(self.rank() >= 1);
        let inner: usize = self.dims()[1..].iter().product();
        let mut out = alloc::buf_with_capacity(indices.len() * inner);
        let data = self.data();
        for &i in indices {
            assert!(i < self.dim(0), "index_select0 index {} out of range {}", i, self.dim(0));
            out.extend_from_slice(&data[i * inner..(i + 1) * inner]);
        }
        let mut dims = self.dims().to_vec();
        dims[0] = indices.len();
        Tensor::from_vec(dims, out)
    }

    /// Concatenates tensors along `axis`. All other dimensions must match.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        if tensors.iter().any(|t| t.dtype().is_half()) {
            let upcast: Vec<Tensor> = tensors.iter().map(|t| t.to_dtype(DType::F32)).collect();
            let refs: Vec<&Tensor> = upcast.iter().collect();
            return Tensor::concat(&refs, axis);
        }
        let r = tensors[0].rank();
        assert!(axis < r, "concat axis out of range");
        for t in tensors {
            assert_eq!(t.rank(), r, "concat rank mismatch");
            for a in 0..r {
                if a != axis {
                    assert_eq!(t.dim(a), tensors[0].dim(a), "concat dim {} mismatch", a);
                }
            }
        }
        let outer: usize = tensors[0].dims()[..axis].iter().product();
        let inner: usize = tensors[0].dims()[axis + 1..].iter().product();
        let total_axis: usize = tensors.iter().map(|t| t.dim(axis)).sum();
        let mut out = alloc::buf_with_capacity(outer * total_axis * inner);
        for o in 0..outer {
            for t in tensors {
                let d = t.dim(axis);
                let base = o * d * inner;
                out.extend_from_slice(&t.data()[base..base + d * inner]);
            }
        }
        let mut dims = tensors[0].dims().to_vec();
        dims[axis] = total_axis;
        Tensor::from_vec(dims, out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        if let Some(t) = self.upcast() {
            return t.sum();
        }
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum element (NaN-ignoring; `-inf` for empty tensors).
    pub fn max_value(&self) -> f32 {
        if let Some(t) = self.upcast() {
            return t.max_value();
        }
        self.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (NaN-ignoring; `+inf` for empty tensors).
    pub fn min_value(&self) -> f32 {
        if let Some(t) = self.upcast() {
            return t.min_value();
        }
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum along `axis`, keeping it as size 1 when `keepdim`.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        if let Some(t) = self.upcast() {
            return t.sum_axis(axis, keepdim);
        }
        assert!(axis < self.rank());
        let outer: usize = self.dims()[..axis].iter().product();
        let d = self.dim(axis);
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let mut out = alloc::buf_zeroed(outer * inner);
        let data = self.data();
        for o in 0..outer {
            for k in 0..d {
                let base = (o * d + k) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    out[obase + i] += data[base + i];
                }
            }
        }
        let shape = if keepdim { self.shape.keep_axis(axis) } else { self.shape.remove_axis(axis) };
        Tensor::from_vec(shape, out)
    }

    /// Mean along `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let d = self.dim(axis) as f32;
        self.sum_axis(axis, keepdim).map(|x| x / d)
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        if let Some(t) = self.upcast() {
            return t.sq_norm();
        }
        self.data().iter().map(|&x| x * x).sum()
    }

    /// True if every element is finite (no NaN/Inf): one scan per call.
    /// Half storage is checked at the bit level (exponent all-ones), no
    /// decode needed.
    pub fn all_finite(&self) -> bool {
        match &self.data {
            Storage::F32(v) => v.iter().all(|x| x.is_finite()),
            Storage::Half(dt, b) => b.iter().all(|&x| dtype::bits_finite(*dt, x)),
        }
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        !self.all_finite()
    }

    /// A stride-aware borrowed view of the whole tensor (contiguous layout,
    /// tagged with the tensor's dtype). Views reindex without copying:
    /// transposes, slices and window gathers become layout rewrites that the
    /// packed matmul kernels consume directly (see [`crate::kernels`]).
    /// Panics on half storage — views borrow the f32 buffer.
    pub fn view(&self) -> TensorView<'_> {
        TensorView {
            data: self.data(),
            layout: Layout::contiguous(&self.shape).with_dtype(self.dtype()),
        }
    }

    /// The transpose of a 2-D tensor as a view (no copy).
    pub fn t_view(&self) -> TensorView<'_> {
        assert_eq!(self.rank(), 2, "t_view() requires a 2-D tensor, got {}", self.shape);
        self.view().transposed(0, 1)
    }

    /// Approximate equality within `tol` (elementwise absolute difference).
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        if self.dtype().is_half() || other.dtype().is_half() {
            return self.to_dtype(DType::F32).allclose(&other.to_dtype(DType::F32), tol);
        }
        self.shape == other.shape
            && self
                .data()
                .iter()
                .zip(other.data().iter())
                .all(|(&a, &b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
    }
}

/// A borrowed, stride-aware view of a tensor's storage.
///
/// A view is a [`Layout`] over a `&[f32]`: transposes, slices, axis indexing
/// and window extraction rewrite the layout without touching data. Views feed
/// the packed matmul kernels directly (any 2-D strides), and
/// [`TensorView::to_tensor`] materializes one contiguous copy when an owned
/// tensor is unavoidable — copying in merged runs, not element by element.
#[derive(Clone)]
pub struct TensorView<'a> {
    data: &'a [f32],
    layout: Layout,
}

impl<'a> TensorView<'a> {
    /// Builds a view from a raw buffer and layout. The layout must fit the
    /// buffer.
    pub fn from_parts(data: &'a [f32], layout: Layout) -> Self {
        assert!(
            layout.required_len() <= data.len(),
            "layout requires {} elements, buffer has {}",
            layout.required_len(),
            data.len()
        );
        TensorView { data, layout }
    }

    /// The underlying buffer (unsliced; index through the layout).
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// The view's layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The storage dtype the layout was tagged with.
    pub fn dtype(&self) -> DType {
        self.layout.dtype()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.layout.rank()
    }

    /// Size of dimension `axis`.
    pub fn dim(&self, axis: usize) -> usize {
        self.layout.dim(axis)
    }

    /// Total number of elements addressed.
    pub fn numel(&self) -> usize {
        self.layout.numel()
    }

    /// The view's logical shape.
    pub fn shape(&self) -> Shape {
        self.layout.shape()
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.layout.offset_of(idx)]
    }

    /// View with dimensions `a` and `b` swapped.
    pub fn transposed(&self, a: usize, b: usize) -> TensorView<'a> {
        TensorView { data: self.data, layout: self.layout.transposed(a, b) }
    }

    /// View with axes reordered (`numpy.transpose` semantics).
    pub fn permuted(&self, perm: &[usize]) -> TensorView<'a> {
        TensorView { data: self.data, layout: self.layout.permuted(perm) }
    }

    /// View restricted to `[start, end)` along `axis`.
    pub fn slice(&self, axis: usize, start: usize, end: usize) -> TensorView<'a> {
        TensorView { data: self.data, layout: self.layout.slice(axis, start, end) }
    }

    /// Sub-view at index `i` along `axis` (axis removed).
    pub fn index(&self, axis: usize, i: usize) -> TensorView<'a> {
        TensorView { data: self.data, layout: self.layout.index(axis, i) }
    }

    /// Materializes the view into an owned contiguous tensor, copying in the
    /// longest contiguous runs the layout allows ([`Layout::merged`]).
    pub fn to_tensor(&self) -> Tensor {
        let shape = self.shape();
        let n = shape.numel();
        let mut out = alloc::buf_with_capacity(n);
        self.extend_into(&mut out);
        Tensor::from_vec(shape, out)
    }

    /// Appends the view's elements (row-major order) to `out`.
    pub fn extend_into(&self, out: &mut Vec<f32>) {
        let m = self.layout.merged();
        if m.rank() == 0 {
            if self.layout.numel() == 1 {
                out.push(self.data[m.offset()]);
            }
            return;
        }
        if self.layout.numel() == 0 {
            return;
        }
        // Innermost merged dimension: memcpy runs when unit-stride, strided
        // walk otherwise.
        let r = m.rank();
        let run = m.dim(r - 1);
        let run_stride = m.stride(r - 1);
        let outer: usize = m.dims()[..r - 1].iter().product();
        let mut idx = vec![0usize; r - 1];
        let mut base = m.offset();
        for _ in 0..outer {
            if run_stride == 1 {
                out.extend_from_slice(&self.data[base..base + run]);
            } else {
                out.extend((0..run).map(|j| self.data[base + j * run_stride]));
            }
            for i in (0..r - 1).rev() {
                idx[i] += 1;
                base += m.stride(i);
                if idx[i] < m.dim(i) {
                    break;
                }
                base -= m.stride(i) * m.dim(i);
                idx[i] = 0;
            }
        }
    }
}

impl fmt::Debug for TensorView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TensorView(shape={}, layout={:?})", self.shape(), self.layout)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.dtype().is_half() {
            write!(f, "dtype={}, ", self.dtype())?;
        }
        let vals = self.to_dtype(DType::F32);
        let data = vals.data();
        if self.numel() <= 16 {
            write!(f, "data={:?})", data)
        } else {
            write!(
                f,
                "data=[{:.4}, {:.4}, ... {:.4}], mean={:.4})",
                data[0],
                data[1],
                data[self.numel() - 1],
                vals.mean()
            )
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        if self.shape != other.shape {
            return false;
        }
        match (&self.data, &other.data) {
            (Storage::F32(a), Storage::F32(b)) => a == b,
            (Storage::Half(da, a), Storage::Half(db, b)) => da == db && a == b,
            _ => false,
        }
    }
}

impl Serialize for Tensor {
    /// Serializes as `{shape, dtype, bits}` where `bits` is the storage
    /// buffer's raw little-endian bytes as hex ([`crate::codec`]) — the same
    /// bit-exact discipline the training checkpoints use, generalized over
    /// dtype.
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("shape".to_string(), self.shape.to_value());
        m.insert("dtype".to_string(), serde::Value::String(self.dtype().name().to_string()));
        let hex = match &self.data {
            Storage::F32(v) => codec::f32s_to_hex(v),
            Storage::Half(_, b) => codec::u16s_to_hex(b),
        };
        m.insert("bits".to_string(), serde::Value::String(hex));
        serde::Value::Object(m)
    }
}

impl Deserialize for Tensor {
    /// Accepts both the `{shape, dtype, bits}` form written by
    /// [`Tensor::to_value`] and the legacy `{shape, data: [f32…]}` form of
    /// earlier releases.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn bad(msg: impl Into<String>) -> serde::Error {
            serde::Error::msg(msg)
        }
        let shape =
            Shape::from_value(v.get("shape").ok_or_else(|| bad("tensor missing 'shape'"))?)?;
        let check = |shape: Shape, n: usize| {
            if n == shape.numel() {
                Ok(shape)
            } else {
                Err(bad(format!("payload of {n} elements does not match shape {shape}")))
            }
        };
        if let Some(bits_v) = v.get("bits") {
            let bits = bits_v.as_str().ok_or_else(|| bad("tensor 'bits' must be a hex string"))?;
            let name = v
                .get("dtype")
                .and_then(serde::Value::as_str)
                .ok_or_else(|| bad("tensor with 'bits' missing 'dtype'"))?;
            let dt = DType::parse(name).ok_or_else(|| bad(format!("unknown dtype '{name}'")))?;
            match dt {
                DType::F32 => {
                    let vals = codec::hex_to_f32s(bits).map_err(|e| bad(e.to_string()))?;
                    Ok(Tensor::from_vec(check(shape, vals.len())?, vals))
                }
                _ => {
                    let vals = codec::hex_to_u16s(bits).map_err(|e| bad(e.to_string()))?;
                    Ok(Tensor::from_half_bits(check(shape, vals.len())?, dt, vals))
                }
            }
        } else if let Some(data_v) = v.get("data") {
            let data = Vec::<f32>::from_value(data_v)?;
            Ok(Tensor::from_vec(check(shape, data.len())?, data))
        } else {
            Err(bad("tensor missing 'bits' (or legacy 'data') payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(Tensor::eye(3).at(&[1, 1]), 1.0);
        assert_eq!(Tensor::eye(3).at(&[1, 0]), 0.0);
        assert_eq!(Tensor::arange(4).data(), &[0., 1., 2., 3.]);
        assert_eq!(t.dtype(), DType::F32);
        assert_eq!(t.storage_bytes(), 24);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_construction_panics() {
        let _ = Tensor::from_vec([2, 2], vec![1.0; 3]);
    }

    #[test]
    fn copy_on_write() {
        let a = Tensor::zeros([2, 2]);
        let mut b = a.clone();
        b.data_mut()[0] = 5.0;
        assert_eq!(a.data()[0], 0.0);
        assert_eq!(b.data()[0], 5.0);
    }

    #[test]
    fn broadcast_to_materializes() {
        let row = Tensor::from_vec([1, 3], vec![1., 2., 3.]);
        let b = row.broadcast_to(&Shape::new(&[2, 3]));
        assert_eq!(b.data(), &[1., 2., 3., 1., 2., 3.]);
        let col = Tensor::from_vec([2, 1], vec![10., 20.]);
        let c = col.broadcast_to(&Shape::new(&[2, 3]));
        assert_eq!(c.data(), &[10., 10., 10., 20., 20., 20.]);
        let s = Tensor::scalar(7.0).broadcast_to(&Shape::new(&[2, 2]));
        assert_eq!(s.data(), &[7., 7., 7., 7.]);
    }

    /// The per-element odometer `broadcast_to` ran before it copied
    /// contiguous runs, kept as the reference.
    fn broadcast_reference(src: &Tensor, target: &Shape) -> Vec<f32> {
        let src = src.to_dtype(DType::F32);
        let r = target.rank();
        let pad = r - src.shape.rank();
        let strides = src.shape.strides();
        let eff: Vec<usize> = (0..r)
            .map(|i| if i < pad || src.shape.dim(i - pad) == 1 { 0 } else { strides[i - pad] })
            .collect();
        let tdims = target.dims();
        let mut out = Vec::with_capacity(target.numel());
        let mut idx = vec![0usize; r];
        let mut off = 0usize;
        for _ in 0..target.numel() {
            out.push(src.data()[off]);
            for i in (0..r).rev() {
                idx[i] += 1;
                off += eff[i];
                if idx[i] < tdims[i] {
                    break;
                }
                off -= eff[i] * tdims[i];
                idx[i] = 0;
            }
        }
        out
    }

    #[test]
    fn broadcast_runs_match_the_odometer() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let fixed: [(&[usize], &[usize]); 6] = [
            (&[1, 12, 16], &[400, 12, 16]), // Eq. 4's (1, T, H) → (N, T, H)
            (&[5, 1, 4], &[5, 3, 4]),       // middle
            (&[4], &[2, 3, 4]),             // rank-padded
            (&[3, 1], &[3, 5]),             // trailing
            (&[1, 1, 1], &[2, 3, 4]),       // all broadcast
            (&[2, 1, 3, 1], &[2, 4, 3, 5]), // interleaved
        ];
        let mut pairs: Vec<(Vec<usize>, Vec<usize>)> =
            fixed.iter().map(|(a, b)| (a.to_vec(), b.to_vec())).collect();
        for _ in 0..200 {
            let rank: usize = rng.random_range(1..=4);
            let target: Vec<usize> = (0..rank).map(|_| rng.random_range(1..=5)).collect();
            let keep: usize = rng.random_range(0..=rank);
            let src: Vec<usize> = target[rank - keep..]
                .iter()
                .map(|&d| if rng.random::<f32>() < 0.4 { 1 } else { d })
                .collect();
            pairs.push((src, target));
        }
        for (i, (src_dims, target_dims)) in pairs.iter().enumerate() {
            let src_shape = Shape::new(src_dims);
            let vals: Vec<f32> =
                (0..src_shape.numel()).map(|_| rng.random_range(-2.0..2.0)).collect();
            let t = Tensor::from_vec(src_shape, vals);
            let target = Shape::new(target_dims);
            let want: Vec<u32> =
                broadcast_reference(&t, &target).iter().map(|v| v.to_bits()).collect();
            let got = t.broadcast_to(&target);
            assert_eq!(got.shape(), &target);
            let bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, want, "{src_dims:?} -> {target_dims:?}");
            if i % 4 == 0 {
                // A half tensor upcasts, then broadcasts the decoded values.
                let h = t.to_dtype(DType::F16);
                let hb = h.broadcast_to(&target).to_dtype(DType::F32);
                let hb: Vec<u32> = hb.data().iter().map(|v| v.to_bits()).collect();
                let hw: Vec<u32> =
                    broadcast_reference(&h, &target).iter().map(|v| v.to_bits()).collect();
                assert_eq!(hb, hw, "f16 {src_dims:?} -> {target_dims:?}");
            }
        }
    }

    #[test]
    fn reduce_to_sums_broadcast_dims() {
        let g = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = Tensor::reduce_to(&g, &Shape::new(&[1, 3]));
        assert_eq!(r.data(), &[5., 7., 9.]);
        let r2 = Tensor::reduce_to(&g, &Shape::new(&[2, 1]));
        assert_eq!(r2.data(), &[6., 15.]);
        let r3 = Tensor::reduce_to(&g, &Shape::scalar());
        assert_eq!(r3.item(), 21.0);
        let r4 = Tensor::reduce_to(&g, &Shape::new(&[3]));
        assert_eq!(r4.data(), &[5., 7., 9.]);
    }

    #[test]
    fn transpose_and_permute() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.t().data(), &[1., 4., 2., 5., 3., 6.]);
        let p = t.permute(&[1, 0]);
        assert_eq!(p, t.t());
        let u = Tensor::arange(24).reshape([2, 3, 4]);
        let v = u.permute(&[2, 0, 1]);
        assert_eq!(v.dims(), &[4, 2, 3]);
        assert_eq!(v.at(&[3, 1, 2]), u.at(&[1, 2, 3]));
    }

    #[test]
    fn slice_and_concat() {
        let t = Tensor::arange(24).reshape([2, 3, 4]);
        let s = t.slice(1, 1, 3);
        assert_eq!(s.dims(), &[2, 2, 4]);
        assert_eq!(s.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        let back = Tensor::concat(&[&t.slice(1, 0, 1), &s], 1);
        assert_eq!(back, t);
    }

    #[test]
    fn index_select_rows() {
        let t = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let s = t.index_select0(&[2, 0, 2]);
        assert_eq!(s.dims(), &[3, 2]);
        assert_eq!(s.data(), &[5., 6., 1., 2., 5., 6.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.sum(), 21.0);
        assert!((t.mean() - 3.5).abs() < 1e-6);
        assert_eq!(t.sum_axis(0, false).data(), &[5., 7., 9.]);
        assert_eq!(t.sum_axis(1, false).data(), &[6., 15.]);
        assert_eq!(t.sum_axis(1, true).dims(), &[2, 1]);
        assert_eq!(t.mean_axis(0, false).data(), &[2.5, 3.5, 4.5]);
        assert_eq!(t.max_value(), 6.0);
        assert_eq!(t.min_value(), 1.0);
    }

    #[test]
    fn finiteness_follows_the_data() {
        let mut t = Tensor::from_vec([2], vec![1.0, 2.0]);
        assert!(t.all_finite());
        let shared = t.clone();
        assert!(shared.all_finite());
        t.data_mut()[0] = f32::NAN; // copy-on-write detaches t
        assert!(t.has_non_finite());
        assert!(shared.all_finite(), "clone must keep the pre-mutation storage");
        // Element-preserving reshapes keep the non-finite element.
        let m = Tensor::from_vec([1, 2], vec![f32::INFINITY, 0.0]);
        assert!(m.has_non_finite());
        assert!(m.t().has_non_finite());
        assert!(m.reshape([2, 1]).has_non_finite());
        assert!(m.permute(&[1, 0]).has_non_finite());
    }

    #[test]
    fn views_reindex_without_copying() {
        let t = Tensor::arange(24).reshape([2, 3, 4]);
        let v = t.view();
        assert_eq!(v.shape(), *t.shape());
        assert_eq!(v.at(&[1, 2, 3]), t.at(&[1, 2, 3]));
        assert_eq!(v.dtype(), DType::F32);
        // Transpose view matches the materializing transpose.
        let m = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.t_view().to_tensor(), m.t());
        // Slice view matches the materializing slice.
        assert_eq!(v.slice(1, 1, 3).to_tensor(), t.slice(1, 1, 3));
        // Permute view matches permute.
        assert_eq!(v.permuted(&[2, 0, 1]).to_tensor(), t.permute(&[2, 0, 1]));
        // Index drops the axis.
        let row = m.view().index(0, 1);
        assert_eq!(row.shape().dims(), &[3]);
        assert_eq!(row.to_tensor().data(), &[4., 5., 6.]);
        // Chained: transpose of a slice.
        let ts = v.slice(2, 1, 4).index(0, 1).transposed(0, 1);
        assert_eq!(ts.shape().dims(), &[3, 3]);
        assert_eq!(ts.at(&[0, 2]), t.at(&[1, 2, 1]));
    }

    #[test]
    fn view_to_tensor_scalar_and_empty() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.view().to_tensor(), s);
        let e = Tensor::zeros([2, 0, 3]);
        assert_eq!(e.view().to_tensor().numel(), 0);
        assert_eq!(e.view().to_tensor().dims(), &[2, 0, 3]);
    }

    #[test]
    fn zip_broadcast_combines() {
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec([2], vec![10., 20.]);
        let c = a.zip_broadcast(&b, |x, y| x + y);
        assert_eq!(c.data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn quantize_roundtrip_and_metadata() {
        let vals = vec![0.0f32, 1.5, -2.25, 100.0, -0.125, 7.0];
        let t = Tensor::from_vec([2, 3], vals.clone());
        for dt in [DType::F16, DType::Bf16] {
            let q = t.to_dtype(dt);
            assert_eq!(q.dtype(), dt);
            assert_eq!(q.dims(), &[2, 3]);
            assert_eq!(q.storage_bytes(), t.storage_bytes() / 2);
            assert_eq!(q.half_bits().len(), 6);
            // These values are exactly representable in both half formats.
            let back = q.to_dtype(DType::F32);
            assert_eq!(back.data(), &vals[..]);
            // Element access decodes without panicking.
            assert_eq!(q.at(&[0, 1]), 1.5);
            assert_eq!(q.sum(), t.sum());
            assert!(q.all_finite());
        }
        // to_dtype to the current dtype is a cheap clone.
        assert_eq!(t.to_dtype(DType::F32), t);
    }

    #[test]
    fn half_ops_upcast() {
        let t = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let q = t.to_dtype(DType::F16);
        assert_eq!(q.map(|x| x * 2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(q.t(), t.t());
        assert_eq!(q.slice(0, 0, 1).data(), &[1.0, 2.0]);
        assert_eq!(q.sum_axis(0, false).data(), &[4.0, 6.0]);
        assert_eq!(q.zip(&t, |a, b| a - b).data(), &[0.0; 4]);
        assert!(q.allclose(&t, 0.0));
        let c = Tensor::concat(&[&q, &t], 0);
        assert_eq!(c.dims(), &[4, 2]);
        assert_eq!(c.dtype(), DType::F32);
    }

    #[test]
    fn half_finiteness_and_overflow() {
        // 1e30 overflows f16 to +Inf but fits bf16.
        let t = Tensor::from_vec([2], vec![1.0, 1e30]);
        assert!(t.all_finite());
        let f16 = t.to_dtype(DType::F16);
        assert!(f16.has_non_finite(), "f16 overflow must be visible to all_finite");
        let bf16 = t.to_dtype(DType::Bf16);
        assert!(bf16.all_finite());
    }

    #[test]
    #[should_panic(expected = "data() on a f16 tensor")]
    fn half_data_access_panics() {
        let q = Tensor::from_vec([2], vec![1.0, 2.0]).to_dtype(DType::F16);
        let _ = q.data();
    }

    #[test]
    #[should_panic(expected = "quantized storage is read-only")]
    fn half_data_mut_panics() {
        let mut q = Tensor::from_vec([2], vec![1.0, 2.0]).to_dtype(DType::Bf16);
        let _ = q.data_mut();
    }

    #[test]
    fn serde_roundtrip_per_dtype_is_bitwise() {
        let t = Tensor::from_vec([2, 2], vec![0.1, -0.2, f32::MIN_POSITIVE, 3.0e7]);
        for dt in [DType::F32, DType::F16, DType::Bf16] {
            let q = t.to_dtype(dt);
            let json = serde_json::to_string(&q).unwrap();
            assert!(json.contains(&format!("\"dtype\":\"{dt}\"")), "{json}");
            let back: Tensor = serde_json::from_str(&json).unwrap();
            assert_eq!(back.dtype(), dt);
            assert_eq!(back, q, "{dt} round-trip must be bitwise");
        }
    }

    #[test]
    fn serde_reads_legacy_f32_form() {
        let legacy = r#"{"shape":[2,2],"data":[1.0,2.5,-3.0,0.0]}"#;
        let t: Tensor = serde_json::from_str(legacy).unwrap();
        assert_eq!(t.dtype(), DType::F32);
        assert_eq!(t.data(), &[1.0, 2.5, -3.0, 0.0]);
        // Mismatched payloads are errors, not panics.
        assert!(serde_json::from_str::<Tensor>(r#"{"shape":[3],"data":[1.0]}"#).is_err());
        assert!(
            serde_json::from_str::<Tensor>(r#"{"shape":[1],"dtype":"f8","bits":"00"}"#).is_err()
        );
        assert!(
            serde_json::from_str::<Tensor>(r#"{"shape":[2],"dtype":"f16","bits":"003c"}"#).is_err(),
            "one f16 element cannot satisfy shape [2]"
        );
    }
}
