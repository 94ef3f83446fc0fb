//! Dynamic time warping (Berndt & Clifford, 1994) — the temporal-similarity
//! measure behind the paper's `A_dtw` adjacency (§3.4.1, following STFGNN).
//!
//! Both the exact O(T₁T₂) recurrence and a Sakoe–Chiba banded variant are
//! provided; the band makes the all-pairs computation over ~1000 sensors
//! tractable on daily profiles, and the all-pairs/cross products run on the
//! shared worker pool ([`stsm_tensor::pool`]).

use stsm_tensor::pool;

/// Exact DTW distance between two series with absolute-difference local cost.
pub fn dtw(a: &[f32], b: &[f32]) -> f32 {
    dtw_banded(a, b, usize::MAX)
}

/// DTW restricted to a Sakoe–Chiba band of half-width `band` around the
/// diagonal (`usize::MAX` = unconstrained). Distance is the sum of
/// `|a[i] - b[j]|` along the optimal monotone alignment. The effective band
/// is `band.max(a.len().abs_diff(b.len()))`: narrower, no complete warping
/// path exists.
pub fn dtw_banded(a: &[f32], b: &[f32], band: usize) -> f32 {
    dtw_banded_abandon(a, b, band, f32::INFINITY).expect("an infinite cut never abandons")
}

/// [`dtw_banded`] with early abandonment for the pruning cascade: returns
/// `None` as soon as some DP row's minimum exceeds `cut`. Every complete
/// warping path passes through at least one cell of every row, and a cell's
/// DP value lower-bounds any path through it, so a row whose minimum beats
/// the cut proves the final distance would too. A `Some` result is the
/// unabandoned distance (`cut = ∞` never abandons, and [`dtw_banded`] is
/// exactly that call).
pub fn dtw_banded_abandon(a: &[f32], b: &[f32], band: usize, cut: f32) -> Option<f32> {
    dtw_banded_in(&mut Vec::new(), a, b, band, cut)
}

/// The one scalar recurrence behind [`dtw_banded_abandon`], on caller-owned
/// DP rows so a loop of calls reuses one buffer. The lane kernel
/// ([`crate::dtw_banded_lanes`]) runs the same operations per SIMD lane.
pub(crate) fn dtw_banded_in(
    rows: &mut Vec<f32>,
    a: &[f32],
    b: &[f32],
    band: usize,
    cut: f32,
) -> Option<f32> {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return if n == m { Some(0.0) } else { Some(f32::INFINITY) };
    }
    let band = band.max(n.abs_diff(m));
    let inf = f32::INFINITY;
    if rows.len() < 2 * (m + 1) {
        rows.resize(2 * (m + 1), inf);
    }
    let (mut prev, mut curr) = rows[..2 * (m + 1)].split_at_mut(m + 1);
    // Row 0: only the origin is reachable. Row 1 reads cells 0..=hi₁.
    prev[0] = 0.0;
    prev[1..=band.saturating_add(1).min(m)].fill(inf);
    for i in 1..=n {
        // Sakoe–Chiba: |i - j| <= band (1-based indices on both axes).
        let lo = i.saturating_sub(band).max(1);
        let hi = i.saturating_add(band).min(m);
        // Band-edge rule: row i reads cells lo-1..=hi of the row above and
        // writes lo..=hi of its own. Resetting the two cells just outside
        // the band, lo-1 and hi+1, to ∞ is then all a full row fill would do
        // for any cell the next row reads (its window moves by at most one
        // cell at each end), so no stale value is ever read.
        curr[lo - 1] = inf;
        if hi < m {
            curr[hi + 1] = inf;
        }
        let mut row_min = inf;
        for j in lo..=hi {
            let cost = (a[i - 1] - b[j - 1]).abs();
            let best = prev[j].min(curr[j - 1]).min(prev[j - 1]);
            curr[j] = cost + best;
            row_min = row_min.min(curr[j]);
        }
        if row_min > cut {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    Some(prev[m])
}

/// Converts a DTW distance into a similarity in (0, 1]: `exp(-d / scale)`.
pub fn dtw_similarity(d: f32, scale: f32) -> f32 {
    (-d / scale.max(1e-12)).exp()
}

/// Approximate DP cells per banded DTW call, used to weight pool dispatch:
/// each of ~`t` rows fills ~`2·band + 1` cells. `t` is the *mean* length of
/// every series involved in the call — weighting by only the first series'
/// length mis-sized chunks for ragged inputs and for [`dtw_cross`], whose
/// `from`/`to` sets can have very different lengths.
fn dtw_work_estimate<'a>(series: impl Iterator<Item = &'a Vec<f32>>, band: usize) -> usize {
    let (mut total, mut count) = (0usize, 0usize);
    for s in series {
        total += s.len();
        count += 1;
    }
    let t = (total / count.max(1)).max(1);
    t * (2 * band.min(t) + 1)
}

/// Maps a flat index into the strict upper triangle of an `n × n` matrix
/// (row-major pair order: `(0,1), (0,2), …, (0,n-1), (1,2), …`) back to its
/// `(i, j)` pair. Row `i` starts at flat offset `i·(2n − i − 1)/2`.
fn pair_at(p: usize, n: usize) -> (usize, usize) {
    debug_assert!(p < n * (n - 1) / 2);
    // Binary-search the largest row whose starting offset is <= p.
    let row_start = |i: usize| i * (2 * n - i - 1) / 2;
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if row_start(mid) <= p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let i = if row_start(hi) <= p { hi } else { lo };
    (i, i + 1 + (p - row_start(i)))
}

/// All-pairs DTW distances over `series` (each a slice of equal or varying
/// length). Returns a row-major symmetric N×N matrix with a zero diagonal.
///
/// Work is dispatched over chunks of `(i, j)` *pairs* — not rows — so the
/// per-chunk cost is uniform (row `i` owns `n − 1 − i` pairs, which made
/// row-granularity chunks progressively lighter and left the last workers
/// idle), and small inputs take the pool's inline path instead of paying
/// dispatch overhead. The worker owning pair `(i, j)` writes both `(i,j)`
/// and its mirror `(j,i)`, so each cell is written by exactly one worker
/// and the result is identical for any thread count.
pub fn dtw_all_pairs(series: &[Vec<f32>], band: usize) -> Vec<f32> {
    let n = series.len();
    let mut out = vec![0.0f32; n * n];
    if n < 2 {
        return out;
    }
    let n_pairs = n * (n - 1) / 2;
    let writer = pool::SliceWriter::new(&mut out);
    pool::par_chunks_weighted(n_pairs, dtw_work_estimate(series.iter(), band), |ps| {
        let (mut i, mut j) = pair_at(ps.start, n);
        let mut rows = Vec::new();
        for _ in ps {
            let d = dtw_banded_in(&mut rows, &series[i], &series[j], band, f32::INFINITY)
                .expect("an infinite cut never abandons");
            // Safety: cell (i,j) with j>i and its mirror (j,i) belong to
            // this pair's worker alone.
            unsafe {
                writer.slice(i * n + j..i * n + j + 1)[0] = d;
                writer.slice(j * n + i..j * n + i + 1)[0] = d;
            }
            j += 1;
            if j == n {
                i += 1;
                j = i + 1;
            }
        }
    });
    out
}

/// DTW distances from each of `from` to each of `to` (rows = `from`).
/// Parallel over the `(i, j)` cells of the output, weighted like
/// [`dtw_all_pairs`] so small products stay inline.
pub fn dtw_cross(from: &[Vec<f32>], to: &[Vec<f32>], band: usize) -> Vec<f32> {
    let (n, m) = (from.len(), to.len());
    let mut out = vec![0.0f32; n * m];
    if n == 0 || m == 0 {
        return out;
    }
    let writer = pool::SliceWriter::new(&mut out);
    pool::par_chunks_weighted(
        n * m,
        dtw_work_estimate(from.iter().chain(to.iter()), band),
        |cells| {
            // Safety: cell ranges are disjoint output cells.
            let chunk = unsafe { writer.slice(cells.start..cells.end) };
            let mut rows = Vec::new();
            for (ci, c) in cells.enumerate() {
                chunk[ci] = dtw_banded_in(&mut rows, &from[c / m], &to[c % m], band, f32::INFINITY)
                    .expect("an infinite cut never abandons");
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_series_have_zero_distance() {
        let a = vec![1.0, 2.0, 3.0, 2.0, 1.0];
        assert_eq!(dtw(&a, &a), 0.0);
    }

    #[test]
    fn shifted_series_align_cheaply() {
        // DTW absorbs a pure time shift almost entirely, unlike Euclidean.
        let a = vec![0., 0., 1., 2., 3., 2., 1., 0., 0., 0.];
        let b = vec![0., 0., 0., 0., 1., 2., 3., 2., 1., 0.];
        let euclid: f32 = a.iter().zip(&b).map(|(x, y): (&f32, &f32)| (x - y).abs()).sum();
        let d = dtw(&a, &b);
        assert!(d < euclid, "dtw {d} not below euclid {euclid}");
        assert!(d <= 1e-6, "pure shift should align perfectly, got {d}");
    }

    #[test]
    fn dtw_upper_bounded_by_euclidean() {
        // For equal lengths the diagonal path is always available.
        let a = vec![0.3, -0.5, 1.2, 0.0, 2.2];
        let b = vec![1.0, 0.0, -0.2, 0.4, 2.0];
        let euclid: f32 = a.iter().zip(&b).map(|(x, y): (&f32, &f32)| (x - y).abs()).sum();
        assert!(dtw(&a, &b) <= euclid + 1e-6);
    }

    #[test]
    fn band_zero_equals_euclidean_for_equal_lengths() {
        let a = vec![0.3, -0.5, 1.2, 0.0];
        let b = vec![1.0, 0.0, -0.2, 0.4];
        let euclid: f32 = a.iter().zip(&b).map(|(x, y): (&f32, &f32)| (x - y).abs()).sum();
        assert!((dtw_banded(&a, &b, 0) - euclid).abs() < 1e-6);
    }

    #[test]
    fn widening_band_never_increases_distance() {
        let a: Vec<f32> = (0..30).map(|i| ((i as f32) * 0.4).sin()).collect();
        let b: Vec<f32> = (0..30).map(|i| ((i as f32) * 0.4 + 1.0).sin()).collect();
        let mut last = f32::INFINITY;
        for band in [0, 1, 2, 5, 10, usize::MAX] {
            let d = dtw_banded(&a, &b, band);
            assert!(d <= last + 1e-5, "band {band}: {d} > {last}");
            last = d;
        }
    }

    #[test]
    fn unequal_lengths_work() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 1.5, 2.0, 2.5, 3.0];
        let d = dtw(&a, &b);
        assert!(d.is_finite());
        assert!(d > 0.0);
        // Symmetric.
        assert!((dtw(&b, &a) - d).abs() < 1e-6);
    }

    #[test]
    fn empty_series_edge_cases() {
        assert_eq!(dtw(&[], &[]), 0.0);
        assert!(dtw(&[1.0], &[]).is_infinite());
    }

    #[test]
    fn pair_at_inverts_flat_enumeration() {
        for n in [2, 3, 5, 10, 17] {
            let mut p = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(pair_at(p, n), (i, j), "n={n} p={p}");
                    p += 1;
                }
            }
            assert_eq!(p, n * (n - 1) / 2);
        }
    }

    #[test]
    fn all_pairs_symmetric() {
        let series = vec![vec![1.0, 2.0], vec![2.0, 3.0], vec![0.0, 0.0]];
        let d = dtw_all_pairs(&series, usize::MAX);
        for i in 0..3 {
            assert_eq!(d[i * 3 + i], 0.0);
            for j in 0..3 {
                assert_eq!(d[i * 3 + j], d[j * 3 + i]);
            }
        }
    }

    #[test]
    fn cross_matches_pairwise() {
        let from = vec![vec![1.0, 2.0, 3.0]];
        let to = vec![vec![1.0, 2.0, 3.0], vec![3.0, 2.0, 1.0]];
        let d = dtw_cross(&from, &to, usize::MAX);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], 0.0);
        assert!((d[1] - dtw(&from[0], &to[1])).abs() < 1e-6);
    }

    #[test]
    fn all_pairs_and_cross_bit_identical_across_thread_counts() {
        let series: Vec<Vec<f32>> = (0..24)
            .map(|s| {
                (0..48).map(|i| ((i * (s + 3)) as f32 * 0.17).sin() + s as f32 * 0.01).collect()
            })
            .collect();
        let (head, tail) = series.split_at(9);
        let ref_pairs = pool::with_max_threads(1, || dtw_all_pairs(&series, 6));
        let ref_cross = pool::with_max_threads(1, || dtw_cross(head, tail, 6));
        for cap in [2, 7] {
            let pairs = pool::with_max_threads(cap, || dtw_all_pairs(&series, 6));
            let cross = pool::with_max_threads(cap, || dtw_cross(head, tail, 6));
            assert_eq!(ref_pairs, pairs, "all_pairs differs at cap {cap}");
            assert_eq!(ref_cross, cross, "cross differs at cap {cap}");
        }
    }

    #[test]
    fn similarity_decreases_with_distance() {
        let s0 = dtw_similarity(0.0, 1.0);
        let s1 = dtw_similarity(1.0, 1.0);
        let s2 = dtw_similarity(2.0, 1.0);
        assert_eq!(s0, 1.0);
        assert!(s0 > s1 && s1 > s2 && s2 > 0.0);
    }
}
