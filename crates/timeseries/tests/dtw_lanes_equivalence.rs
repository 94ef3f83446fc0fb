//! The lane-parallel banded-DTW contract.
//!
//! 1. **Kernel.** `dtw_banded_lanes` gives, slot for slot, bitwise the
//!    scalar `dtw_banded_abandon` result (distance or abandon) at every SIMD
//!    level the host supports: batch sizes 1..=16, bands 0, 1, 6 and ≥ the
//!    length, an infinite cut and cuts that abandon some lanes, duplicate
//!    series (ties), and NaN/∞ or unequal-length series, which the kernel
//!    routes to the scalar recurrence.
//! 2. **Scalar recurrence.** The scalar kernel resets only the two
//!    band-edge cells per row, and loops of calls reuse its DP rows; it
//!    stays bitwise equal to the textbook form that refills every row,
//!    whatever lengths earlier calls left in the rows.
//! 3. **Search.** `dtw_top_q` rows, distances and `PruneStats` are identical
//!    at every SIMD level and at 1 and 3 threads (the batch width is 16 at
//!    every level), and the rows equal the dense ranking, on candidate
//!    lists of 1, 15, 16, 17 and 33 entries around the batch width.

use stsm_tensor::{pool, simd};
use stsm_timeseries::{
    dtw_all_pairs, dtw_banded_abandon, dtw_banded_lanes, dtw_cross, dtw_top_q,
    dtw_top_q_with_candidates, PruneStats, SparseNeighbors, DTW_LANES,
};

/// Deterministic series: a per-index wave plus LCG noise, so distinct
/// indices give distinct series.
fn series(index: usize, len: usize) -> Vec<f32> {
    let mut state = (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|t| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let noise = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            ((t * (index % 5 + 2)) as f32 * 0.21).sin() * (1.0 + index as f32 * 0.05) + noise * 0.4
        })
        .collect()
}

/// The scalar recurrence with fresh rows per call and a full ∞ refill of
/// every row: the reference the band-edge rule must match.
fn textbook(a: &[f32], b: &[f32], band: usize, cut: f32) -> Option<f32> {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return Some(if n == m { 0.0 } else { f32::INFINITY });
    }
    let band = band.max(n.abs_diff(m));
    let mut prev = vec![f32::INFINITY; m + 1];
    let mut curr = vec![f32::INFINITY; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        curr.fill(f32::INFINITY);
        let lo = i.saturating_sub(band).max(1);
        let hi = i.saturating_add(band).min(m);
        let mut row_min = f32::INFINITY;
        for j in lo..=hi {
            let cost = (a[i - 1] - b[j - 1]).abs();
            curr[j] = cost + prev[j].min(curr[j - 1]).min(prev[j - 1]);
            row_min = row_min.min(curr[j]);
        }
        if row_min > cut {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    Some(prev[m])
}

fn bits(d: Option<f32>) -> Option<u32> {
    d.map(f32::to_bits)
}

/// Scores `batch` through the lanes at every supported level and checks
/// every slot against the scalar kernel.
fn check_batch(query: &[f32], batch: &[Vec<f32>], band: usize, cut: f32, what: &str) {
    let slots: Vec<&[f32]> = batch.iter().map(Vec::as_slice).collect();
    let want: Vec<Option<u32>> =
        slots.iter().map(|b| bits(dtw_banded_abandon(query, b, band, cut))).collect();
    for level in simd::supported_levels() {
        let mut out = vec![Some(-1.0); slots.len()];
        simd::with_level(level, || dtw_banded_lanes(query, &slots, band, cut, &mut out));
        let got: Vec<Option<u32>> = out.into_iter().map(bits).collect();
        assert_eq!(got, want, "{what}, band {band}, cut {cut}, {level:?}");
    }
}

/// A cut between the batch's smallest and largest distances, so some lanes
/// abandon and some finish.
fn splitting_cut(query: &[f32], batch: &[Vec<f32>], band: usize) -> f32 {
    let mut d: Vec<f32> =
        batch.iter().map(|b| dtw_banded_abandon(query, b, band, f32::INFINITY).unwrap()).collect();
    d.sort_by(f32::total_cmp);
    d[d.len() / 2]
}

#[test]
fn lanes_match_scalar_kernel_bitwise() {
    for len in [1usize, 2, 7, 40, 72] {
        let query = series(1000 + len, len);
        for size in 1..=DTW_LANES {
            let batch: Vec<Vec<f32>> = (0..size).map(|s| series(s * 31 + len, len)).collect();
            for band in [0, 1, 6, len, len + 5, usize::MAX] {
                let what = format!("len {len}, batch {size}");
                check_batch(&query, &batch, band, f32::INFINITY, &what);
                check_batch(&query, &batch, band, splitting_cut(&query, &batch, band), &what);
                check_batch(&query, &batch, band, 0.0, &what);
            }
        }
    }
}

#[test]
fn lanes_keep_ties_and_the_query_itself() {
    let len = 48;
    let query = series(7, len);
    // Duplicates tie exactly, and the query scores exactly 0.
    let mut batch: Vec<Vec<f32>> = (0..12).map(|s| series(s % 4, len)).collect();
    batch.push(query.clone());
    for band in [0, 1, 6, usize::MAX] {
        check_batch(&query, &batch, band, f32::INFINITY, "duplicates");
        check_batch(&query, &batch, band, splitting_cut(&query, &batch, band), "duplicates");
    }
}

#[test]
fn non_finite_and_unequal_length_slots_take_the_scalar_route() {
    let len = 40;
    let query = series(3, len);
    let mut batch: Vec<Vec<f32>> = (0..DTW_LANES).map(|s| series(s + 50, len)).collect();
    batch[2][5] = f32::NAN;
    batch[5][0] = f32::INFINITY;
    batch[9][len - 1] = f32::NEG_INFINITY;
    batch[11] = series(61, len - 3);
    batch[14] = series(62, len + 9);
    for band in [0, 1, 6, usize::MAX] {
        for cut in [f32::INFINITY, 30.0, 0.0, f32::NAN] {
            check_batch(&query, &batch, band, cut, "mixed batch");
        }
    }
    // A non-finite query sends every slot to the scalar kernel.
    let mut bad_query = query.clone();
    bad_query[17] = f32::NAN;
    for band in [1, 6] {
        check_batch(&bad_query, &batch, band, f32::INFINITY, "NaN query");
        check_batch(&bad_query, &batch[..3], band, 10.0, "NaN query");
    }
    // Empty series on either side.
    check_batch(&[], &[vec![], vec![1.0]], 2, f32::INFINITY, "empty query");
    check_batch(&query, &[vec![], query.clone()], 2, f32::INFINITY, "empty candidate");
}

#[test]
fn scalar_recurrence_matches_the_full_refill_form() {
    // Long and short, equal and unequal lengths in one list: `dtw_all_pairs`
    // and `dtw_cross` reuse one pair of DP rows per chunk (a single chunk at
    // one thread), so nearly every pair runs on rows an earlier pair left
    // stale.
    let lens = [72usize, 3, 40, 1, 72, 17, 5, 60, 2, 33];
    let mixed: Vec<Vec<f32>> = lens.iter().enumerate().map(|(k, &n)| series(k, n)).collect();
    let k = mixed.len();
    for band in [0, 1, 6, 40, usize::MAX] {
        let (pairs, cross) = pool::with_max_threads(1, || {
            (dtw_all_pairs(&mixed, band), dtw_cross(&mixed, &mixed, band))
        });
        for i in 0..k {
            for j in 0..k {
                let (a, b) = (&mixed[i], &mixed[j]);
                let full = textbook(a, b, band, f32::INFINITY).unwrap();
                if i != j {
                    assert_eq!(
                        pairs[i * k + j].to_bits(),
                        full.to_bits(),
                        "pair {i},{j} band {band}"
                    );
                }
                assert_eq!(cross[i * k + j].to_bits(), full.to_bits(), "cross {i},{j} band {band}");
                let cut = full * 0.5;
                assert_eq!(
                    bits(dtw_banded_abandon(a, b, band, cut)),
                    bits(textbook(a, b, band, cut)),
                    "{i},{j}, band {band}, cut {cut}"
                );
            }
        }
    }
}

type Search = (SparseNeighbors, PruneStats);

/// Runs `search` at every SIMD level and at 1 and 3 threads, asserting one
/// result for all of them, and returns it.
fn same_everywhere(what: &str, search: impl Fn() -> Search) -> Search {
    let reference =
        pool::with_max_threads(1, || simd::with_level(simd::SimdLevel::Scalar, &search));
    for level in simd::supported_levels() {
        for threads in [1, 3] {
            let got = pool::with_max_threads(threads, || simd::with_level(level, &search));
            assert_eq!(got.0, reference.0, "{what}: rows differ at {level:?}, {threads} threads");
            assert_eq!(got.1, reference.1, "{what}: stats differ at {level:?}, {threads} threads");
        }
    }
    reference
}

/// Dense reference ranking of node `i` over `cands`, by `(distance, index)`.
fn dense_row(dense: &[f32], n: usize, i: usize, cands: &[u32], q: usize) -> Vec<(u32, u32)> {
    let mut row: Vec<(u32, f32)> = cands.iter().map(|&j| (j, dense[i * n + j as usize])).collect();
    row.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    row.into_iter().take(q).map(|(j, d)| (j, d.to_bits())).collect()
}

fn row_bits(sparse: &SparseNeighbors, i: usize) -> Vec<(u32, u32)> {
    sparse.row(i).map(|(j, d)| (j, d.to_bits())).collect()
}

#[test]
fn top_q_identical_across_levels_and_threads_around_the_batch_width() {
    let len = 36;
    for cand_count in [1usize, 15, 16, 17, 33] {
        // Full search: n − 1 candidates per node.
        let n = cand_count + 1;
        let profiles: Vec<Vec<f32>> = (0..n).map(|s| series(s, len)).collect();
        let dense = dtw_all_pairs(&profiles, 6);
        for q in [1, 3] {
            let what = format!("{cand_count} candidates, q {q}");
            let (sparse, stats) = same_everywhere(&what, || dtw_top_q(&profiles, 6, q));
            assert_eq!(
                stats.lb_kim_pruned + stats.lb_keogh_pruned + stats.full_dtw,
                (n * (n - 1)) as u64
            );
            for i in 0..n {
                let all: Vec<u32> = (0..n as u32).filter(|&j| j as usize != i).collect();
                assert_eq!(
                    row_bits(&sparse, i),
                    dense_row(&dense, n, i, &all, q),
                    "{what}, node {i}"
                );
            }
        }
        // Explicit lists of exactly `cand_count` entries out of 40 nodes.
        let pool_n = 40;
        let profiles: Vec<Vec<f32>> = (0..pool_n).map(|s| series(s + 7, len)).collect();
        let dense = dtw_all_pairs(&profiles, 6);
        let lists: Vec<Vec<u32>> = (0..pool_n)
            .map(|i| {
                (1..=cand_count)
                    .map(|k| ((i + k * 3) % pool_n) as u32)
                    .filter(|&j| j as usize != i)
                    .collect()
            })
            .collect();
        let what = format!("lists of {cand_count}");
        let (sparse, _) =
            same_everywhere(&what, || dtw_top_q_with_candidates(&profiles, 6, 2, &lists));
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(
                row_bits(&sparse, i),
                dense_row(&dense, pool_n, i, list, 2),
                "{what}, node {i}"
            );
        }
    }
}

#[test]
fn top_q_with_non_finite_and_ragged_series_is_level_independent() {
    let mut profiles: Vec<Vec<f32>> = (0..34).map(|s| series(s + 200, 30)).collect();
    profiles[4][7] = f32::NAN;
    profiles[9][0] = f32::INFINITY;
    profiles[20] = series(300, 24);
    profiles[27] = series(301, 41);
    for q in [1, 4] {
        same_everywhere(&format!("ragged, q {q}"), || dtw_top_q(&profiles, 3, q));
    }
}
