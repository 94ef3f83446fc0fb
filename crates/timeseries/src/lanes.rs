//! Lane-parallel banded DTW: one query scored against a batch of up to
//! [`DTW_LANES`] candidates at once, one candidate per SIMD lane.
//!
//! The banded recurrence of [`crate::dtw_banded_abandon`] is serial along each DP
//! row (cell `j` waits on cell `j − 1`), so a single pair cannot use vector
//! width. Sixteen pairs can: lane `l` of every register holds cell `(i, j)`
//! of candidate `l`'s table, and one pass over the band advances all sixteen
//! tables. Each lane runs the scalar recurrence operation for operation —
//! `|a − b|`, the min of the three neighbours, one add, the row minimum and
//! the abandon test against `cut` — so every distance is bitwise the scalar
//! one, and a lane abandons at exactly the row where the scalar call would.
//!
//! Dispatch follows [`simd::level`]: one 16-lane ZMM register on AVX-512F,
//! two 8-lane YMM halves on AVX2, and the scalar kernel once per slot at
//! the `Scalar` level. A slot the lanes cannot take bitwise goes through the
//! scalar kernel at every level:
//!
//! * **Unequal length.** Lanes share one band geometry, so a candidate whose
//!   length differs from the query's (effective band
//!   `band.max(n.abs_diff(m))`) is scored alone.
//! * **NaN or ∞ in either series.** `f32::min` returns the non-NaN operand,
//!   the vector `min` returns its second operand whenever either is NaN. On
//!   finite inputs no DP cell is ever NaN — costs are `|a − b| ≥ +0` (at
//!   worst +∞ on overflow) and every cell is a sum of those, +0 and +∞ — so
//!   the two rules pick the same value. With neither NaN nor −0 in play, the
//!   min of three is also exact in any order, which lets the lanes take
//!   `min(up, diag)` off the serial `left → add` chain.

use crate::dtw::dtw_banded_in;
use stsm_tensor::simd::{self, SimdLevel};

/// Candidates scored per lane batch: one AVX-512 `f32` vector, or two AVX2
/// halves. The pruned search batches this many at every SIMD level, so its
/// counters do not depend on the level.
pub const DTW_LANES: usize = 16;

/// One DP cell (or one series sample) for every lane.
type Cell16 = [f32; DTW_LANES];

/// Scores `query` against every series of `batch` (at most [`DTW_LANES`]),
/// writing `out[s] = dtw_banded_abandon(query, batch[s], band, cut)`
/// bitwise: `None` for a slot whose DP row minimum exceeded `cut`.
pub fn dtw_banded_lanes(
    query: &[f32],
    batch: &[&[f32]],
    band: usize,
    cut: f32,
    out: &mut [Option<f32>],
) {
    LaneScratch::default().score(query, batch, band, cut, out);
}

/// The rows one search reuses across its batches: `n` transposed candidate
/// samples and the two rolling DP rows of `n + 1` cells for the lanes, and
/// the scalar kernel's two rows for slots on the scalar route. Stale DP
/// cells from earlier batches are never read: each DP row resets the two
/// cells just outside its band. Owned by the search and dropped with it, so
/// nothing outlives a search.
#[derive(Default)]
pub(crate) struct LaneScratch {
    lanes: Vec<Cell16>,
    scalar: Vec<f32>,
}

impl LaneScratch {
    /// [`dtw_banded_lanes`] on this scratch.
    pub(crate) fn score(
        &mut self,
        query: &[f32],
        batch: &[&[f32]],
        band: usize,
        cut: f32,
        out: &mut [Option<f32>],
    ) {
        assert!(batch.len() <= DTW_LANES, "at most {DTW_LANES} candidates per batch");
        assert_eq!(batch.len(), out.len(), "one output slot per candidate");
        let n = query.len();
        let level = simd::level();
        let lanes_ok = level != SimdLevel::Scalar && n > 0 && query.iter().all(|v| v.is_finite());
        let need = if lanes_ok { 3 * n + 2 } else { 0 };
        if self.lanes.len() < need {
            self.lanes.resize(need, [0.0; DTW_LANES]);
        }
        let rows = &mut self.lanes[..need];
        let mut active = 0u16;
        for (s, (&b, o)) in batch.iter().zip(out.iter_mut()).enumerate() {
            if lanes_ok && b.len() == n && transpose_finite(b, &mut rows[..n], s) {
                active |= 1 << s;
            } else {
                *o = dtw_banded_in(&mut self.scalar, query, b, band, cut);
            }
        }
        if active == 0 {
            return;
        }
        // Lanes outside `active` run on whatever the scratch holds; lanes
        // never mix, and the mask keeps those results out.
        let band = band.min(n);
        let mut dist = [0.0f32; DTW_LANES];
        let done = match level {
            // SAFETY (both arms): `level()` only returns levels the CPU
            // has, and `rows` holds the 3n + 2 cells the kernels index.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => unsafe {
                avx512::lanes(query, rows, band, cut, active, &mut dist)
            },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => unsafe { avx2::lanes(query, rows, band, cut, active, &mut dist) },
            _ => unreachable!("the scalar level scores every slot with the scalar kernel"),
        };
        for (s, o) in out.iter_mut().enumerate() {
            if active >> s & 1 == 1 {
                *o = (done >> s & 1 == 1).then_some(dist[s]);
            }
        }
    }
}

/// Writes `series` into lane `lane` of `cols` and reports whether every
/// sample is finite (one pass for both).
fn transpose_finite(series: &[f32], cols: &mut [Cell16], lane: usize) -> bool {
    let mut finite = true;
    for (col, &v) in cols.iter_mut().zip(series) {
        col[lane] = v;
        finite &= v.is_finite();
    }
    finite
}

/// The row range `lo..=hi` of DP row `i` (1-based) for equal lengths `n`,
/// exactly as [`crate::dtw_banded_abandon`] computes it.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn band_rows(i: usize, band: usize, n: usize) -> (usize, usize) {
    (i.saturating_sub(band).max(1), (i + band).min(n))
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{band_rows, Cell16};
    use std::arch::x86_64::*;

    /// The lane recurrence on one ZMM register per cell. `rows` holds the
    /// `n` transposed candidate samples, then the two DP rows. Returns the
    /// mask of `active` lanes that finished without abandoning; their
    /// distances are in `dist`.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime; `rows.len() == 3 · a.len() + 2` and
    /// `band <= a.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn lanes(
        a: &[f32],
        rows: &mut [Cell16],
        band: usize,
        cut: f32,
        active: u16,
        dist: &mut Cell16,
    ) -> u16 {
        let n = a.len();
        let (cols, tables) = rows.split_at_mut(n);
        let (mut prev, mut curr) = tables.split_at_mut(n + 1);
        assert!(band <= n && curr.len() == n + 1, "lane scratch shape");
        // SAFETY (every load and store below): each pointer comes from a
        // bounds-checked `Cell16` element, which is 16 contiguous floats.
        let load = |c: &Cell16| unsafe { _mm512_loadu_ps(c.as_ptr()) };
        let inf = _mm512_set1_ps(f32::INFINITY);
        let cutv = _mm512_set1_ps(cut);
        unsafe { _mm512_storeu_ps(prev[0].as_mut_ptr(), _mm512_setzero_ps()) };
        for cell in &mut prev[1..=(band + 1).min(n)] {
            unsafe { _mm512_storeu_ps(cell.as_mut_ptr(), inf) };
        }
        let mut alive = active;
        for i in 1..=n {
            let (lo, hi) = band_rows(i, band, n);
            unsafe { _mm512_storeu_ps(curr[lo - 1].as_mut_ptr(), inf) };
            if hi < n {
                unsafe { _mm512_storeu_ps(curr[hi + 1].as_mut_ptr(), inf) };
            }
            let ai = _mm512_set1_ps(a[i - 1]);
            let mut left = inf;
            let mut diag = load(&prev[lo - 1]);
            let mut row_min = inf;
            for j in lo..=hi {
                let up = load(&prev[j]);
                let cost = _mm512_abs_ps(_mm512_sub_ps(ai, load(&cols[j - 1])));
                left = _mm512_add_ps(cost, _mm512_min_ps(_mm512_min_ps(up, diag), left));
                unsafe { _mm512_storeu_ps(curr[j].as_mut_ptr(), left) };
                row_min = _mm512_min_ps(row_min, left);
                diag = up;
            }
            alive &= !_mm512_cmp_ps_mask::<_CMP_GT_OQ>(row_min, cutv);
            if alive == 0 {
                return 0;
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        unsafe { _mm512_storeu_ps(dist.as_mut_ptr(), load(&prev[n])) };
        alive
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{band_rows, Cell16};
    use std::arch::x86_64::*;

    /// The AVX-512 lane recurrence on two 8-lane YMM halves per cell,
    /// advanced side by side so the two serial chains overlap.
    ///
    /// # Safety
    /// Requires AVX2 at runtime; `rows.len() == 3 · a.len() + 2` and
    /// `band <= a.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lanes(
        a: &[f32],
        rows: &mut [Cell16],
        band: usize,
        cut: f32,
        active: u16,
        dist: &mut Cell16,
    ) -> u16 {
        let n = a.len();
        let (cols, tables) = rows.split_at_mut(n);
        let (mut prev, mut curr) = tables.split_at_mut(n + 1);
        assert!(band <= n && curr.len() == n + 1, "lane scratch shape");
        // SAFETY (every load and store below): each pointer is at offset 0
        // or 8 of a bounds-checked `Cell16`, which is 16 contiguous floats.
        let load = |c: &Cell16, h: usize| unsafe { _mm256_loadu_ps(c.as_ptr().add(8 * h)) };
        let store = |c: &mut Cell16, h: usize, v: __m256| unsafe {
            _mm256_storeu_ps(c.as_mut_ptr().add(8 * h), v)
        };
        let inf = _mm256_set1_ps(f32::INFINITY);
        let cutv = _mm256_set1_ps(cut);
        let sign = _mm256_set1_ps(-0.0);
        for h in 0..2 {
            store(&mut prev[0], h, _mm256_setzero_ps());
            for cell in &mut prev[1..=(band + 1).min(n)] {
                store(cell, h, inf);
            }
        }
        let mut alive = active;
        for i in 1..=n {
            let (lo, hi) = band_rows(i, band, n);
            for h in 0..2 {
                store(&mut curr[lo - 1], h, inf);
                if hi < n {
                    store(&mut curr[hi + 1], h, inf);
                }
            }
            let ai = _mm256_set1_ps(a[i - 1]);
            let mut left = [inf; 2];
            let mut diag = [load(&prev[lo - 1], 0), load(&prev[lo - 1], 1)];
            let mut row_min = [inf; 2];
            for j in lo..=hi {
                for h in 0..2 {
                    let up = load(&prev[j], h);
                    // `andnot` with the sign bit is `f32::abs`, lane-wise.
                    let cost = _mm256_andnot_ps(sign, _mm256_sub_ps(ai, load(&cols[j - 1], h)));
                    let best = _mm256_min_ps(_mm256_min_ps(up, diag[h]), left[h]);
                    left[h] = _mm256_add_ps(cost, best);
                    store(&mut curr[j], h, left[h]);
                    row_min[h] = _mm256_min_ps(row_min[h], left[h]);
                    diag[h] = up;
                }
            }
            let over = |h: usize| {
                _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(row_min[h], cutv)) as u16 & 0xff
            };
            alive &= !(over(0) | over(1) << 8);
            if alive == 0 {
                return 0;
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        store(dist, 0, load(&prev[n], 0));
        store(dist, 1, load(&prev[n], 1));
        alive
    }
}
