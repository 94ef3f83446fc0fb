//! Compressed sparse row matrices with an autograd-compatible linear-map
//! implementation — the storage format for all adjacency matrices.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use stsm_tensor::{csr_spmm, CsrRowGroups, LinMap, Tensor};

/// A sparse matrix in compressed sparse row format.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
    /// The row-grouped layout of the spmm kernel, built on the first
    /// product and shared by every later one (and by every thread holding
    /// the matrix). Not serialized; a deserialized matrix rebuilds it.
    #[serde(skip)]
    groups: OnceLock<CsrRowGroups>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets. Duplicate
    /// entries are summed; zero values are kept (callers may prune first).
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_by_key(|a| (a.0, a.1));
        // Merge consecutive duplicates (same row and column).
        let mut merged: Vec<(usize, usize, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds {rows}x{cols}");
            match merged.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        for (r, c, v) in merged {
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            values.push(v);
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix { rows, cols, row_ptr, col_idx, values, groups: OnceLock::new() }
    }

    /// Builds a CSR matrix from a dense row-major buffer, keeping entries with
    /// `|v| > threshold`.
    pub fn from_dense(dense: &[f32], rows: usize, cols: usize, threshold: f32) -> Self {
        assert_eq!(dense.len(), rows * cols);
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = dense[r * cols + c];
                if v.abs() > threshold {
                    triplets.push((r, c, v));
                }
            }
        }
        CsrMatrix::from_triplets(rows, cols, &triplets)
    }

    /// An identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let triplets: Vec<(usize, usize, f32)> = (0..n).map(|i| (i, i, 1.0)).collect();
        CsrMatrix::from_triplets(n, n, &triplets)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of stored entries over the full matrix size.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// The `(column, value)` entries of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        self.col_idx[start..end].iter().copied().zip(self.values[start..end].iter().copied())
    }

    /// Value at `(r, c)`, zero if not stored.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.row(r).find(|&(col, _)| col == c).map_or(0.0, |(_, v)| v)
    }

    /// Iterates over all `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Materializes as a dense tensor (rows × cols).
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros([self.rows, self.cols]);
        {
            let data = out.data_mut();
            for (r, c, v) in self.iter() {
                data[r * self.cols + c] += v;
            }
        }
        out
    }

    /// The transpose (also CSR).
    pub fn transpose(&self) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f32)> = self.iter().map(|(r, c, v)| (c, r, v)).collect();
        CsrMatrix::from_triplets(self.cols, self.rows, &triplets)
    }

    /// Scales every stored value by `s`.
    pub fn scale(&self, s: f32) -> CsrMatrix {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.iter().map(|v| v * s).collect(),
            groups: OnceLock::new(),
        }
    }

    /// The row-grouped layout the spmm runs on, built on first use.
    #[doc(hidden)]
    pub fn row_groups(&self) -> &CsrRowGroups {
        self.groups.get_or_init(|| CsrRowGroups::new(&self.row_ptr, &self.col_idx, &self.values))
    }

    /// Sparse-matrix × dense-matrix product. `x` is `(cols, features...)`;
    /// the result is `(rows, features...)`. Runs the row-grouped
    /// [`stsm_tensor::csr_spmm`] kernel on the cached layout: every stored
    /// entry is used by its own row in stored order, so the result is
    /// bitwise equal to the plain row loop at every SIMD level and thread
    /// count.
    pub fn matmul_dense(&self, x: &Tensor) -> Tensor {
        assert!(x.rank() >= 1, "spmm input must have at least one dim");
        assert_eq!(
            x.dim(0),
            self.cols,
            "spmm dims mismatch: {}x{} vs {}",
            self.rows,
            self.cols,
            x.shape()
        );
        let feat = x.dims()[1..].iter().product();
        let mut out_dims = x.dims().to_vec();
        out_dims[0] = self.rows;
        let out = csr_spmm(self.row_groups(), x.data(), feat);
        Tensor::from_vec(out_dims, out)
    }

    /// Per-row sum of stored values (the weighted out-degree).
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows).map(|r| self.row(r).map(|(_, v)| v).sum()).collect()
    }
}

/// A CSR matrix paired with its transpose so it can serve as an autograd
/// [`LinMap`] (forward applies `A`, backward applies `Aᵀ`). Each side
/// builds its spmm layout on its first product, so a forward-only map
/// never builds the transpose's.
pub struct CsrLinMap {
    forward: CsrMatrix,
    transpose: CsrMatrix,
}

impl CsrLinMap {
    /// Wraps a CSR matrix, precomputing its transpose.
    pub fn new(matrix: CsrMatrix) -> Self {
        let transpose = matrix.transpose();
        CsrLinMap { forward: matrix, transpose }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.forward
    }
}

impl LinMap for CsrLinMap {
    fn out_rows(&self) -> usize {
        self.forward.rows()
    }

    fn in_rows(&self) -> usize {
        self.forward.cols()
    }

    fn apply(&self, x: &Tensor) -> Tensor {
        self.forward.matmul_dense(x)
    }

    fn apply_transpose(&self, g: &Tensor) -> Tensor {
        self.transpose.matmul_dense(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn triplets_roundtrip() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.row(1).count(), 0);
        let dense = m.to_dense();
        assert_eq!(dense.data(), &[1., 0., 2., 0., 0., 0., 3., 4., 0.]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), 3.5);
    }

    #[test]
    fn from_dense_prunes_below_threshold() {
        let dense = vec![0.0, 0.05, 0.5, -0.7];
        let m = CsrMatrix::from_dense(&dense, 2, 2, 0.1);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(1, 0), 0.5);
        assert_eq!(m.get(1, 1), -0.7);
    }

    #[test]
    fn identity_and_density() {
        let id = CsrMatrix::identity(4);
        assert_eq!(id.nnz(), 4);
        assert!((id.density() - 0.25).abs() < 1e-12);
        let x = Tensor::arange(8).reshape([4, 2]);
        assert_eq!(id.matmul_dense(&x), x);
    }

    #[test]
    fn transpose_is_involution() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m.to_dense(), tt.to_dense());
        assert_eq!(m.transpose().get(0, 2), 3.0);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let x = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let y = m.matmul_dense(&x);
        let expected = stsm_tensor::matmul(&m.to_dense(), &x);
        assert!(y.allclose(&expected, 1e-6));
    }

    #[test]
    fn spmm_preserves_trailing_dims() {
        let m = CsrMatrix::identity(3);
        let x = Tensor::arange(12).reshape([3, 2, 2]);
        assert_eq!(m.matmul_dense(&x), x);
    }

    #[test]
    fn linmap_backward_uses_transpose() {
        use std::sync::Arc;
        use stsm_tensor::Tape;
        let m = sample();
        let map = Arc::new(CsrLinMap::new(m.clone()));
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([3, 1]));
        let y = tape.linmap(map, x);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let g = tape.grad(x).unwrap();
        // grad = A^T @ 1 = column sums of A.
        assert_eq!(g.data(), &[4.0, 4.0, 2.0]);
    }

    #[test]
    fn spmm_over_empty_inputs() {
        // 3×0 against a 0-row x: three zero rows of width 5.
        let m = CsrMatrix::from_triplets(3, 0, &[]);
        let y = m.matmul_dense(&Tensor::zeros([0, 5]));
        assert_eq!(y.dims(), &[3, 5]);
        assert!(y.data().iter().all(|&v| v == 0.0));
        let e = CsrMatrix::from_triplets(0, 0, &[]);
        assert_eq!(e.matmul_dense(&Tensor::zeros([0, 5])).dims(), &[0, 5]);
    }

    #[test]
    fn row_sums() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
    }
}
