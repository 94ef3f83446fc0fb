//! The row-grouped layout behind [`crate::csr_spmm`].
//!
//! Neighbouring rows of a spatial adjacency store mostly the same columns,
//! so a kernel that walks them together can load each `x` row block once
//! and feed it to every row of the group. [`CsrRowGroups`] regroups a CSR
//! matrix into runs of up to four consecutive rows, each run
//! holding the ascending union of its rows' columns, a presence bitmask per
//! union column, and the values interleaved by row.
//!
//! The masks, not zero padding, decide which rows take an entry: a padded
//! `0 · x` term would turn a NaN or infinity in `x` into a NaN in rows that
//! never stored that column, and a `+0.0` added to a `-0.0` partial sum
//! would flip its sign. With masks, every output element sees exactly its
//! own row's stored entries, in stored order — the same IEEE operations as
//! the plain row loop.

use crate::simd::RowGroup;

/// Most rows one group may hold (the presence masks are `u8`; the SIMD
/// kernel keeps `rows × block` accumulators in registers).
const MAX_GROUP_ROWS: usize = 4;

/// A group keeps growing while `union_len · rows ≤ (FILL_NUM / FILL_DEN) ·
/// Σ nnz`: at most a quarter of its walked slots may be absent entries.
const FILL_NUM: usize = 5;
const FILL_DEN: usize = 4;

/// A CSR matrix regrouped for the row-grouped spmm: consecutive rows
/// grouped greedily, up to four per group, while the union of
/// their columns stays within 5/4 of their summed entry count.
///
/// A row whose columns are not strictly ascending forms a group of its own
/// with its entries kept in stored order (duplicates included), so the
/// product still takes them in stored order. Build it once per matrix; the
/// layout is immutable.
#[derive(Clone, Debug)]
pub struct CsrRowGroups {
    rows: usize,
    /// One past the largest stored column: `x` must hold this many rows.
    col_bound: usize,
    /// First row of each group, then `rows` (length groups + 1).
    group_rows: Vec<usize>,
    /// Offset of each group's union entries, then the total (length groups + 1).
    union_ptr: Vec<usize>,
    /// Offset of each group's interleaved values (length groups).
    value_ptr: Vec<usize>,
    /// Union columns; ascending within a group unless it is a single
    /// unsorted row.
    union_cols: Vec<u32>,
    /// Bit `r` set when the group's row `r` stores that union column.
    masks: Vec<u8>,
    /// Entry `u` of a group with `R` rows keeps row `r`'s value at
    /// `u · R + r`; absent slots hold 0.0 and are never read.
    values: Vec<f32>,
}

/// Whether the columns of one row are strictly ascending (which also rules
/// out duplicates).
fn strictly_ascending(cols: &[usize]) -> bool {
    cols.windows(2).all(|w| w[0] < w[1])
}

/// Merges two ascending, duplicate-free column lists into `out`.
fn merge_union(a: &[usize], b: &[usize], out: &mut Vec<usize>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl CsrRowGroups {
    /// Regroups the CSR matrix given by its raw slices (`row_ptr` of length
    /// rows + 1, `col_idx`/`values` per stored entry).
    pub fn new(row_ptr: &[usize], col_idx: &[usize], values: &[f32]) -> Self {
        let rows = row_ptr.len().checked_sub(1).expect("spmm: row_ptr holds rows + 1 offsets");
        assert_eq!(col_idx.len(), values.len(), "spmm: one column index per value");
        assert_eq!(row_ptr[rows], values.len(), "spmm: row_ptr must end at nnz");
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "spmm: row_ptr must not decrease");
        let col_bound = col_idx.iter().max().map_or(0, |&c| c + 1);
        assert!(u32::try_from(col_bound).is_ok(), "spmm: column index does not fit u32");
        let row_cols = |r: usize| &col_idx[row_ptr[r]..row_ptr[r + 1]];

        let mut layout = CsrRowGroups {
            rows,
            col_bound,
            group_rows: vec![0],
            union_ptr: vec![0],
            value_ptr: Vec::new(),
            // A union never holds more entries than its rows, and the walked
            // slots stay within 5/4 of them: both bounds are capacities.
            union_cols: Vec::with_capacity(values.len()),
            masks: Vec::with_capacity(values.len()),
            values: Vec::with_capacity((FILL_NUM * values.len()).div_ceil(FILL_DEN)),
        };
        let (mut union, mut merged) = (Vec::new(), Vec::new());
        let mut start = 0;
        while start < rows {
            let mut end = start + 1;
            union.clear();
            union.extend_from_slice(row_cols(start));
            if strictly_ascending(&union) {
                let mut nnz = union.len();
                while end < rows
                    && end - start < MAX_GROUP_ROWS
                    && strictly_ascending(row_cols(end))
                {
                    merge_union(&union, row_cols(end), &mut merged);
                    let grown = nnz + row_cols(end).len();
                    if FILL_DEN * merged.len() * (end + 1 - start) > FILL_NUM * grown {
                        break;
                    }
                    std::mem::swap(&mut union, &mut merged);
                    nnz = grown;
                    end += 1;
                }
            }
            layout.push_group(start..end, &union, row_ptr, col_idx, values);
            start = end;
        }
        layout
    }

    /// Appends the group of `rows` whose (ascending, or single-row stored)
    /// column union is `union`.
    fn push_group(
        &mut self,
        rows: std::ops::Range<usize>,
        union: &[usize],
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f32],
    ) {
        let r_count = rows.len();
        self.value_ptr.push(self.values.len());
        // One cursor per row: the union is ascending and so is every row of
        // a multi-row group, so each row's entries are met in stored order.
        // A single row is its own union, met entry by entry.
        let mut cursor: Vec<usize> = rows.clone().map(|r| row_ptr[r]).collect();
        for &c in union {
            let mut mask = 0u8;
            for (k, r) in rows.clone().enumerate() {
                let e = cursor[k];
                if e < row_ptr[r + 1] && col_idx[e] == c {
                    mask |= 1 << k;
                    self.values.push(values[e]);
                    cursor[k] += 1;
                } else {
                    self.values.push(0.0);
                }
            }
            self.union_cols.push(c as u32);
            self.masks.push(mask);
        }
        debug_assert!(rows.clone().enumerate().all(|(k, r)| cursor[k] == row_ptr[r + 1]));
        debug_assert_eq!(self.values.len() - self.value_ptr.last().unwrap(), union.len() * r_count);
        self.union_ptr.push(self.union_cols.len());
        self.group_rows.push(rows.end);
    }

    /// Output rows of the product.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Rows `x` must hold at least: one past the largest stored column.
    pub(crate) fn col_bound(&self) -> usize {
        self.col_bound
    }

    /// Number of row groups.
    pub fn groups(&self) -> usize {
        self.value_ptr.len()
    }

    /// Rows in the largest group (0 for a matrix without rows).
    pub fn max_group_rows(&self) -> usize {
        self.group_rows.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }

    /// Union slots the kernel walks, summed over rows (`Σ union_len · R`):
    /// at least the stored entries, at most 5/4 of them.
    pub(crate) fn walked_slots(&self) -> usize {
        self.values.len()
    }

    /// The output rows of groups `gs` (groups cover consecutive rows).
    pub(crate) fn row_range(&self, gs: std::ops::Range<usize>) -> std::ops::Range<usize> {
        self.group_rows[gs.start]..self.group_rows[gs.end]
    }

    /// Group `g` in the form the SIMD kernel takes.
    pub(crate) fn group(&self, g: usize) -> RowGroup<'_> {
        let (lo, hi) = (self.union_ptr[g], self.union_ptr[g + 1]);
        let rows = self.group_rows[g + 1] - self.group_rows[g];
        let v = self.value_ptr[g];
        RowGroup {
            rows,
            cols: &self.union_cols[lo..hi],
            masks: &self.masks[lo..hi],
            values: &self.values[v..v + (hi - lo) * rows],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(rows: &[&[usize]]) -> CsrRowGroups {
        let mut row_ptr = vec![0];
        let mut cols = Vec::new();
        for r in rows {
            cols.extend_from_slice(r);
            row_ptr.push(cols.len());
        }
        let values: Vec<f32> = (0..cols.len()).map(|e| e as f32 + 1.0).collect();
        CsrRowGroups::new(&row_ptr, &cols, &values)
    }

    #[test]
    fn merge_union_is_sorted_and_deduplicated() {
        let mut out = Vec::new();
        merge_union(&[1, 3, 5, 9], &[0, 3, 4, 9, 12], &mut out);
        assert_eq!(out, vec![0, 1, 3, 4, 5, 9, 12]);
    }

    #[test]
    fn identical_rows_group_by_four() {
        let l = layout(&[&[0, 1, 2], &[0, 1, 2], &[0, 1, 2], &[0, 1, 2], &[0, 1, 2]]);
        assert_eq!(l.groups(), 2);
        assert_eq!(l.max_group_rows(), 4);
        let g = l.group(0);
        assert_eq!(g.cols, &[0, 1, 2]);
        assert!(g.masks.iter().all(|&m| m == 0b1111));
        // Interleaved by row: union entry 0 holds rows 0..4 of column 0.
        assert_eq!(&g.values[..4], &[1.0, 4.0, 7.0, 10.0]);
        assert_eq!(l.walked_slots(), 15);
    }

    #[test]
    fn disjoint_rows_stay_single() {
        let l = layout(&[&[0, 1], &[2, 3], &[4, 5]]);
        assert_eq!(l.groups(), 3);
        assert_eq!(l.max_group_rows(), 1);
    }

    #[test]
    fn partial_overlap_sets_masks_and_zero_slots() {
        // Union {0..5} over 2 rows = 10 slots against 8 entries: 4·5·2 ≤ 5·8.
        let l = layout(&[&[0, 1, 2, 3], &[1, 2, 3, 4]]);
        assert_eq!(l.groups(), 1);
        let g = l.group(0);
        assert_eq!(g.cols, &[0, 1, 2, 3, 4]);
        assert_eq!(g.masks, &[0b01, 0b11, 0b11, 0b11, 0b10]);
        assert_eq!(g.values, &[1.0, 0.0, 2.0, 5.0, 3.0, 6.0, 4.0, 7.0, 0.0, 8.0]);
    }

    #[test]
    fn unsorted_row_is_its_own_group_in_stored_order() {
        let l = layout(&[&[0, 1], &[1, 0], &[0, 1]]);
        assert_eq!(l.groups(), 3);
        assert_eq!(l.group(1).cols, &[1, 0]);
        assert_eq!(l.group(1).values, &[3.0, 4.0]);
        // Same column set as its ascending neighbour, which it would join
        // by fill alone.
        let swapped = layout(&[&[0, 1, 2, 3, 4, 5], &[0, 1, 2, 3, 5, 4]]);
        assert_eq!(swapped.groups(), 2);
        assert_eq!(swapped.group(1).cols, &[0, 1, 2, 3, 5, 4]);
        // Duplicates are not strictly ascending either.
        let d = layout(&[&[2, 2], &[2]]);
        assert_eq!(d.groups(), 2);
        assert_eq!(d.group(0).cols, &[2, 2]);
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let none = CsrRowGroups::new(&[0], &[], &[]);
        assert_eq!((none.rows(), none.groups(), none.max_group_rows()), (0, 0, 0));
        let blank = layout(&[&[], &[], &[], &[], &[]]);
        assert_eq!(blank.groups(), 2);
        assert_eq!(blank.col_bound(), 0);
    }
}
