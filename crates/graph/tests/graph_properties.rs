//! Property-based tests for the graph crate: CSR round-trips, normalization
//! invariants, shortest-path metric properties, and the spmm kernel
//! contract (pinned by name in `scripts/check.sh`): `matmul_dense` is
//! bitwise equal at every SIMD level, to the plain row loop, and for any
//! thread count — explicit zeros included, so NaN in `x` propagates, and
//! on matrices dense enough to form multi-row groups a NaN stays in the
//! rows that store its column.

use proptest::prelude::*;
use stsm_graph::{
    all_pairs_shortest_paths, bfs_hops, connected_components, dijkstra,
    gaussian_threshold_adjacency, normalize_gcn, normalize_row, CsrMatrix,
};
use stsm_tensor::simd;
use stsm_tensor::{csr_spmm, pool, CsrRowGroups, Tensor};

fn triplet_strategy(n: usize) -> impl Strategy<Value = Vec<(usize, usize, f32)>> {
    proptest::collection::vec((0..n, 0..n, 0.1f32..10.0), 0..3 * n)
}

/// Feature widths around the kernels' 8- and 16-lane vectors and their
/// 24-, 32- and 64-column blocks, plus STSM's T·H = 192.
const SPMM_WIDTHS: [usize; 16] = [1, 7, 8, 15, 16, 17, 23, 24, 25, 31, 32, 33, 63, 64, 65, 192];

/// Random CSR matrices whose stored values include explicit +0.0 / -0.0
/// (`from_triplets` keeps them) and which often have empty rows.
fn sparse_strategy() -> impl Strategy<Value = CsrMatrix> {
    (1usize..12, 1usize..12).prop_flat_map(|(rows, cols)| {
        let value = (0u32..6, -4.0f32..4.0).prop_map(|(pick, v)| match pick {
            0 => 0.0,
            1 => -0.0,
            _ => v,
        });
        proptest::collection::vec((0..rows, 0..cols, value), 0..2 * rows)
            .prop_map(move |t: Vec<(usize, usize, f32)>| CsrMatrix::from_triplets(rows, cols, &t))
    })
}

/// Deterministic fill in [-2, 2).
fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut z = seed ^ 0x9e37_79b9_7f4a_7c15;
    (0..n)
        .map(|_| {
            z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((z >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// The row loop `matmul_dense` ran before the blocked kernel — one
/// `out_row += v · x_row` pass per stored entry — kept as the reference.
fn spmm_reference(m: &CsrMatrix, x: &[f32], feat: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m.rows() * feat];
    for r in 0..m.rows() {
        let orow = &mut out[r * feat..(r + 1) * feat];
        for (c, v) in m.row(r) {
            for (o, &xv) in orow.iter_mut().zip(&x[c * feat..(c + 1) * feat]) {
                *o += v * xv;
            }
        }
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn spmm_nan_propagates_through_an_explicit_zero() {
    // Row 1 stores an explicit 0.0 against column 2, whose x row is NaN.
    let m = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 2.0), (1, 2, 0.0)]);
    for feat in SPMM_WIDTHS {
        let mut xd = fill(3 * feat, feat as u64);
        xd[2 * feat..].fill(f32::NAN);
        let x = Tensor::from_vec([3, feat], xd);
        for lvl in simd::supported_levels() {
            let y = simd::with_level(lvl, || m.matmul_dense(&x));
            assert!(y.data()[..feat].iter().all(|v| v.is_finite()), "row 0 @ {lvl:?}");
            assert!(y.data()[feat..2 * feat].iter().all(|v| v.is_nan()), "row 1 @ {lvl:?}");
            assert!(y.data()[2 * feat..].iter().all(|&v| v == 0.0), "empty row 2 @ {lvl:?}");
        }
    }
}

#[test]
fn spmm_bitwise_identical_for_one_and_three_threads() {
    // Large enough (400 rows × ~8 entries × 192) to split over the pool.
    let (n, feat) = (400, 192);
    let cols = fill(8 * n, 3);
    let vals = fill(8 * n, 4);
    let triplets: Vec<(usize, usize, f32)> =
        (0..8 * n).map(|e| (e / 8, ((cols[e] + 2.0) * 100.0) as usize % n, vals[e])).collect();
    let m = CsrMatrix::from_triplets(n, n, &triplets);
    let x = Tensor::from_vec([n, feat], fill(n * feat, 5));
    let reference = bits(&spmm_reference(&m, x.data(), feat));
    for lvl in simd::supported_levels() {
        simd::with_level(lvl, || {
            let one = pool::with_max_threads(1, || m.matmul_dense(&x));
            let three = pool::with_max_threads(3, || m.matmul_dense(&x));
            assert_eq!(bits(one.data()), reference, "1 thread @ {lvl:?}");
            assert_eq!(bits(three.data()), reference, "3 threads @ {lvl:?}");
        });
    }
}

/// A stored value that is sometimes an explicit +0.0 or -0.0.
fn signed_zero_or(r: usize, c: usize, v: f32) -> f32 {
    match (r * 7 + c * 3) % 11 {
        0 => 0.0,
        1 => -0.0,
        _ => v,
    }
}

/// Matrices dense enough that consecutive rows share most columns, so the
/// row-grouped layout forms multi-row groups: a dense block, a band of
/// width 11, and Eq. 2's Gaussian threshold over random coordinates sorted
/// along one axis (neighbouring sensors share neighbours, as in `A_s`).
fn grouped_matrices() -> Vec<(&'static str, CsrMatrix)> {
    let n = 13;
    let vals = fill(n * n, 11);
    let dense: Vec<_> =
        (0..n * n).map(|e| (e / n, e % n, signed_zero_or(e / n, e % n, vals[e]))).collect();
    let n_band: usize = 60;
    let band: Vec<_> = (0..n_band)
        .flat_map(|r| (r.saturating_sub(5)..(r + 6).min(n_band)).map(move |c| (r, c)))
        .map(|(r, c)| (r, c, signed_zero_or(r, c, 0.25 + (r * n_band + c) as f32 * 1e-3)))
        .collect();
    // Sensors along a thin strip, numbered in order along it.
    let n_geo = 300;
    let xs = fill(n_geo, 12);
    let ys = fill(n_geo, 13).into_iter().map(|y| 0.05 * y);
    let mut coords: Vec<(f32, f32)> = xs.into_iter().zip(ys).collect();
    coords.sort_by(|a, b| a.0.total_cmp(&b.0));
    let dist: Vec<f32> = (0..n_geo * n_geo)
        .map(|e| {
            let (a, b) = (coords[e / n_geo], coords[e % n_geo]);
            ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
        })
        .collect();
    let geo = normalize_gcn(&gaussian_threshold_adjacency(&dist, n_geo, 0.7));
    vec![
        ("dense block", CsrMatrix::from_triplets(n, n, &dense)),
        ("band", CsrMatrix::from_triplets(n_band, n_band, &band)),
        ("gaussian", geo),
    ]
}

#[test]
fn grouped_spmm_bitwise_equal_to_the_row_loop() {
    for (name, m) in grouped_matrices() {
        assert!(m.row_groups().max_group_rows() > 1, "{name}: no multi-row group formed");
        for feat in SPMM_WIDTHS {
            let x = Tensor::from_vec([m.cols(), feat], fill(m.cols() * feat, feat as u64 + 7));
            let reference = bits(&spmm_reference(&m, x.data(), feat));
            for lvl in simd::supported_levels() {
                let y = simd::with_level(lvl, || m.matmul_dense(&x));
                assert_eq!(bits(y.data()), reference, "{name} f{feat} @ {lvl:?}");
            }
        }
    }
}

#[test]
fn grouped_spmm_keeps_nan_out_of_rows_without_its_column() {
    let mut checked = 0;
    for (name, m) in grouped_matrices() {
        // Columns stored by row r but not by row r + 1: inside a group they
        // are union slots the group's other rows must skip.
        let stores = |r: usize, c: usize| m.row(r).any(|(rc, _)| rc == c);
        let partial: Vec<usize> = (0..m.rows() - 1)
            .filter_map(|r| m.row(r).map(|(c, _)| c).find(|&c| !stores(r + 1, c)))
            .collect();
        if partial.is_empty() {
            continue; // the dense block stores every column in every row
        }
        checked += 1;
        // One NaN column per product, so the rows that skip it stay finite.
        for &c in partial.iter().step_by(partial.len().div_ceil(4)) {
            for feat in SPMM_WIDTHS {
                let mut xd = fill(m.cols() * feat, feat as u64);
                xd[c * feat..(c + 1) * feat].fill(f32::NAN);
                let x = Tensor::from_vec([m.cols(), feat], xd);
                let reference = bits(&spmm_reference(&m, x.data(), feat));
                for lvl in simd::supported_levels() {
                    let y = simd::with_level(lvl, || m.matmul_dense(&x));
                    for r in 0..m.rows() {
                        let row = &y.data()[r * feat..(r + 1) * feat];
                        let want = if stores(r, c) { f32::is_nan } else { f32::is_finite };
                        assert!(
                            row.iter().all(|&v| want(v)),
                            "{name} col {c} row {r} f{feat} @ {lvl:?}"
                        );
                    }
                    assert_eq!(bits(y.data()), reference, "{name} col {c} f{feat} @ {lvl:?}");
                }
            }
        }
    }
    assert_eq!(checked, 2, "band and gaussian must both have partially stored columns");
}

#[test]
fn grouped_spmm_bitwise_identical_for_one_and_three_threads() {
    let (_, m) = grouped_matrices().pop().expect("gaussian matrix");
    let feat = 192;
    // Large enough to split over the pool.
    assert!(m.nnz() * feat > 1 << 19, "nnz {} too small to go parallel", m.nnz());
    let x = Tensor::from_vec([m.cols(), feat], fill(m.cols() * feat, 21));
    let reference = bits(&spmm_reference(&m, x.data(), feat));
    for lvl in simd::supported_levels() {
        simd::with_level(lvl, || {
            let one = pool::with_max_threads(1, || m.matmul_dense(&x));
            let three = pool::with_max_threads(3, || m.matmul_dense(&x));
            assert_eq!(bits(one.data()), reference, "1 thread @ {lvl:?}");
            assert_eq!(bits(three.data()), reference, "3 threads @ {lvl:?}");
        });
    }
}

#[test]
fn raw_layout_keeps_an_unsorted_row_in_stored_order() {
    // Rows 0, 2, 3 and 4 are ascending; row 1 is not (though its column set
    // would fit row 0's group), and row 5 repeats a column. Each of those
    // two must stay a group of one: {0} {1} {2, 3, 4} {5} {6}.
    let rows: [&[usize]; 7] =
        [&[0, 1, 2, 3], &[0, 1, 3, 2], &[0, 1, 2, 3], &[0, 1, 2, 3], &[0, 1, 2], &[2, 2, 1], &[]];
    let mut row_ptr = vec![0];
    let mut col_idx = Vec::new();
    for r in rows {
        col_idx.extend_from_slice(r);
        row_ptr.push(col_idx.len());
    }
    let values: Vec<f32> = fill(col_idx.len(), 31).iter().map(|v| v * 1e3).collect();
    let layout = CsrRowGroups::new(&row_ptr, &col_idx, &values);
    assert_eq!((layout.groups(), layout.max_group_rows()), (5, 3));
    for feat in SPMM_WIDTHS {
        let x = fill(4 * feat, feat as u64 + 3);
        let mut want = vec![0.0f32; rows.len() * feat];
        for r in 0..rows.len() {
            for e in row_ptr[r]..row_ptr[r + 1] {
                let c = col_idx[e];
                for j in 0..feat {
                    want[r * feat + j] += values[e] * x[c * feat + j];
                }
            }
        }
        for lvl in simd::supported_levels() {
            let got = simd::with_level(lvl, || csr_spmm(&layout, &x, feat));
            assert_eq!(bits(&got), bits(&want), "f{feat} @ {lvl:?}");
        }
    }
}

#[test]
fn scale_and_serde_after_a_product() {
    for (name, m) in grouped_matrices() {
        let feat = 24;
        let x = Tensor::from_vec([m.cols(), feat], fill(m.cols() * feat, 5));
        let json = serde_json::to_string(&m).expect("serialize");
        let _ = m.matmul_dense(&x);
        // The cached layout is not part of the serialized form.
        assert_eq!(serde_json::to_string(&m).expect("serialize"), json, "{name}");
        let back: CsrMatrix = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(bits(back.matmul_dense(&x).data()), bits(m.matmul_dense(&x).data()), "{name}");
        // scale() must not reuse the unscaled layout.
        let half = m.scale(0.5);
        let reference = bits(&spmm_reference(&half, x.data(), feat));
        assert_eq!(bits(half.matmul_dense(&x).data()), reference, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_dense_roundtrip(triplets in triplet_strategy(8)) {
        let m = CsrMatrix::from_triplets(8, 8, &triplets);
        let dense = m.to_dense();
        let back = CsrMatrix::from_dense(dense.data(), 8, 8, 0.0);
        prop_assert_eq!(m.to_dense(), back.to_dense());
        prop_assert!(m.nnz() <= triplets.len());
    }

    #[test]
    fn transpose_involution(triplets in triplet_strategy(8)) {
        let m = CsrMatrix::from_triplets(8, 8, &triplets);
        prop_assert_eq!(m.transpose().transpose().to_dense(), m.to_dense());
        // Transposed get: m[r][c] == mT[c][r].
        for (r, c, v) in m.iter() {
            prop_assert!((m.transpose().get(c, r) - v).abs() < 1e-6);
        }
    }

    #[test]
    fn spmm_matches_dense_matmul(triplets in triplet_strategy(6)) {
        let m = CsrMatrix::from_triplets(6, 6, &triplets);
        let x = stsm_tensor::Tensor::from_vec(
            [6, 3],
            (0..18).map(|i| (i as f32) * 0.37 - 2.5).collect(),
        );
        let sparse = m.matmul_dense(&x);
        let dense = stsm_tensor::matmul(&m.to_dense(), &x);
        prop_assert!(sparse.allclose(&dense, 1e-3));
    }

    #[test]
    fn spmm_bitwise_equal_across_levels_and_to_the_row_loop(
        m in sparse_strategy(),
        feat in (0..SPMM_WIDTHS.len()).prop_map(|i| SPMM_WIDTHS[i]),
        seed in 0u64..u64::MAX,
        nan_at in (0u32..3, 0usize..12, 0usize..192),
    ) {
        // One case in three puts a NaN somewhere in x.
        let mut xd = fill(m.cols() * feat, seed);
        if let (0, c, j) = nan_at {
            xd[(c % m.cols()) * feat + j % feat] = f32::NAN;
        }
        let x = Tensor::from_vec([m.cols(), feat], xd);
        let reference = bits(&spmm_reference(&m, x.data(), feat));
        prop_assert_eq!(bits(m.matmul_dense(&x).data()), reference.clone());
        for lvl in simd::supported_levels() {
            let y = simd::with_level(lvl, || m.matmul_dense(&x));
            prop_assert_eq!(bits(y.data()), reference.clone(), "{:?}", lvl);
        }
    }

    #[test]
    fn row_normalization_rows_sum_to_one(triplets in triplet_strategy(8)) {
        let m = CsrMatrix::from_triplets(8, 8, &triplets);
        let norm = normalize_row(&m);
        for s in norm.row_sums() {
            prop_assert!((s - 1.0).abs() < 1e-4, "row sum {s}");
        }
    }

    #[test]
    fn gcn_normalization_finite_and_self_looped(triplets in triplet_strategy(8)) {
        let m = CsrMatrix::from_triplets(8, 8, &triplets);
        let norm = normalize_gcn(&m);
        for i in 0..8 {
            prop_assert!(norm.get(i, i) > 0.0, "missing self loop at {i}");
        }
        for (_, _, v) in norm.iter() {
            prop_assert!(v.is_finite());
        }
    }

    #[test]
    fn dijkstra_respects_triangle_inequality(triplets in triplet_strategy(8)) {
        // Symmetrize to make a metric-ish graph.
        let mut sym = triplets.clone();
        sym.extend(triplets.iter().map(|&(r, c, v)| (c, r, v)));
        let m = CsrMatrix::from_triplets(8, 8, &sym);
        let apsp = all_pairs_shortest_paths(&m, 2.0);
        for i in 0..8 {
            prop_assert_eq!(apsp[i * 8 + i], 0.0);
            for j in 0..8 {
                for k in 0..8 {
                    let direct = apsp[i * 8 + j];
                    let via = apsp[i * 8 + k] + apsp[k * 8 + j];
                    prop_assert!(direct <= via + 1e-2, "({i},{j}) direct {direct} > via {k}: {via}");
                }
            }
        }
    }

    #[test]
    fn bfs_hops_lower_bound_weighted_paths(triplets in triplet_strategy(8)) {
        let mut sym = triplets.clone();
        sym.extend(triplets.iter().map(|&(r, c, v)| (c, r, v)));
        let m = CsrMatrix::from_triplets(8, 8, &sym);
        let hops = bfs_hops(&m, 0);
        let dist = dijkstra(&m, 0);
        let min_w = triplets.iter().map(|t| t.2).fold(f32::INFINITY, f32::min);
        for i in 0..8 {
            if hops[i] != usize::MAX {
                prop_assert!(dist[i].is_finite());
                // Weighted distance is at least hops × min edge weight
                // (skip unreached/zero-hop cases where the bound is vacuous).
                if i != 0 && min_w.is_finite() {
                    prop_assert!(dist[i] >= hops[i] as f32 * min_w - 1e-3);
                }
            } else {
                prop_assert!(dist[i].is_infinite());
            }
        }
    }

    #[test]
    fn components_partition_nodes(triplets in triplet_strategy(10)) {
        let m = CsrMatrix::from_triplets(10, 10, &triplets);
        let comps = connected_components(&m);
        prop_assert_eq!(comps.len(), 10);
        // Component ids are contiguous from 0.
        let max = comps.iter().copied().max().unwrap();
        for id in 0..=max {
            prop_assert!(comps.contains(&id), "gap in component ids at {id}");
        }
        // Every edge joins nodes of the same component.
        for (r, c, _) in m.iter() {
            prop_assert_eq!(comps[r], comps[c]);
        }
    }
}
