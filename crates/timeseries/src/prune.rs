//! Lower-bound-pruned sparse top-q DTW neighbour search.
//!
//! The paper builds `A_dtw` from all-pairs banded DTW — O(N²·T·band) time
//! and an O(N²) distance matrix. Only the `q` nearest neighbours of each
//! node ever reach the adjacency, so this module computes exactly those,
//! without materializing the N² buffer, via a cascade of *admissible* lower
//! bounds evaluated against the current q-th-best distance of the node
//! under search:
//!
//! 1. **LB_Kim** (constant time): every complete warping path matches the
//!    first cells and the last cells of both series, so
//!    `|a₀−b₀| + |a_end−b_end|` never exceeds the DTW distance (the two
//!    cells coincide only when both series have length 1, where the single
//!    term is used).
//! 2. **LB_Keogh** (O(T)): with `U/L` the running max/min of `b` over a
//!    window of half-width `band`, every `aᵢ` is matched to some `b_j`
//!    within the band, so `Σᵢ max(0, aᵢ−Uᵢ, Lᵢ−aᵢ)` lower-bounds the
//!    banded DTW for equal-length series. Both directions (query against
//!    candidate envelope and candidate against query envelope) are tried.
//! 3. **Full banded DTW** only for survivors, scored 16 at a time by the
//!    lane kernel ([`crate::dtw_banded_lanes`]), which is bitwise the
//!    scalar [`crate::dtw_banded`] per candidate — so surviving distances are
//!    bitwise identical to [`crate::dtw_all_pairs`] entries and the selected
//!    top-q sets (ranked by distance, ties by index) match the dense ranking
//!    exactly.
//!
//! Pruning compares a lower bound against the threshold with a small
//! inflation margin ([`beats_threshold`]): the bounds are exact over the
//! reals but both sides are f32 sums, so a few ulps of slack guarantees a
//! rounded-up bound can never evict a true neighbour. Everything the
//! cascade skips or keeps is counted in the `dtw.lb_kim_pruned`,
//! `dtw.lb_keogh_pruned` and `dtw.full_dtw` telemetry counters, and the
//! whole search runs under a `dtw.top_q` span.

use crate::lanes::{LaneScratch, DTW_LANES};
use stsm_tensor::{pool, telemetry};

/// Per-series precomputation for the pruning cascade: the Keogh envelope at
/// a given band half-width plus the endpoint values LB_Kim needs.
#[derive(Clone, Debug)]
pub struct DtwEnvelope {
    /// Running minimum of the series over `[i−band, i+band]`.
    pub lower: Vec<f32>,
    /// Running maximum of the series over `[i−band, i+band]`.
    pub upper: Vec<f32>,
    first: f32,
    last: f32,
}

impl DtwEnvelope {
    /// Series length the envelope was built from.
    pub fn len(&self) -> usize {
        self.lower.len()
    }

    /// True when built from an empty series.
    pub fn is_empty(&self) -> bool {
        self.lower.is_empty()
    }
}

/// Builds the Sakoe–Chiba envelope of `series` with half-width `band` in
/// O(T) via monotonic deques (`usize::MAX` = global min/max).
pub fn dtw_envelope(series: &[f32], band: usize) -> DtwEnvelope {
    let t = series.len();
    if t == 0 {
        return DtwEnvelope { lower: Vec::new(), upper: Vec::new(), first: 0.0, last: 0.0 };
    }
    let r = band.min(t);
    let mut lower = vec![0.0f32; t];
    let mut upper = vec![0.0f32; t];
    // Monotonic deques of indices; front = current window extremum. Window
    // for position i is [i-r, i+r] clamped to the series.
    let mut max_dq: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut min_dq: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut pushed = 0;
    for i in 0..t {
        let end = (i + r).min(t - 1);
        while pushed <= end {
            while max_dq.back().is_some_and(|&b| series[b] <= series[pushed]) {
                max_dq.pop_back();
            }
            max_dq.push_back(pushed);
            while min_dq.back().is_some_and(|&b| series[b] >= series[pushed]) {
                min_dq.pop_back();
            }
            min_dq.push_back(pushed);
            pushed += 1;
        }
        let start = i.saturating_sub(r);
        while max_dq.front().is_some_and(|&f| f < start) {
            max_dq.pop_front();
        }
        while min_dq.front().is_some_and(|&f| f < start) {
            min_dq.pop_front();
        }
        upper[i] = series[*max_dq.front().expect("non-empty window")];
        lower[i] = series[*min_dq.front().expect("non-empty window")];
    }
    DtwEnvelope { lower, upper, first: series[0], last: series[t - 1] }
}

/// Builds envelopes for every series in parallel on the shared pool.
pub fn dtw_envelopes(series: &[Vec<f32>], band: usize) -> Vec<DtwEnvelope> {
    pool::par_map_chunks(series.len(), 64, |rows| {
        rows.map(|i| dtw_envelope(&series[i], band)).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Constant-time endpoint lower bound on `dtw_banded(a, b, ·)` for any band:
/// every complete warping path contains the cells `(0,0)` and
/// `(n−1, m−1)`, which are distinct unless both series are singletons.
pub fn lb_kim(a: &[f32], b: &[f32]) -> f32 {
    lb_kim_endpoints(a.first().copied(), a.last().copied(), b.first().copied(), b.last().copied())
}

fn lb_kim_endpoints(af: Option<f32>, al: Option<f32>, bf: Option<f32>, bl: Option<f32>) -> f32 {
    match (af, al, bf, bl) {
        (Some(af), Some(al), Some(bf), Some(bl)) => {
            let head = (af - bf).abs();
            let tail = (al - bl).abs();
            // Both endpoints map to the same single cell only when both
            // series are singletons; then the path cost is exactly `head`.
            if af.to_bits() == al.to_bits() && bf.to_bits() == bl.to_bits() {
                head.max(tail)
            } else {
                head + tail
            }
        }
        _ => 0.0,
    }
}

/// Envelope lower bound on `dtw_banded(query, b, band)` where `env` is the
/// envelope of `b` built with the same (or larger) half-width. Returns the
/// *tighter* of the Keogh sum and [`lb_kim`], so the cascade invariant
/// `lb_kim ≤ lb_keogh ≤ dtw_banded` holds by construction. The Keogh sum
/// applies to equal-length series; for unequal lengths only the endpoint
/// part is used.
pub fn lb_keogh(query: &[f32], env: &DtwEnvelope) -> f32 {
    let kim = lb_kim_endpoints(
        query.first().copied(),
        query.last().copied(),
        if env.is_empty() { None } else { Some(env.first) },
        if env.is_empty() { None } else { Some(env.last) },
    );
    if query.len() != env.len() || query.is_empty() {
        return kim;
    }
    let mut sum = 0.0f32;
    for ((&q, &u), &l) in query.iter().zip(&env.upper).zip(&env.lower) {
        if q > u {
            sum += q - u;
        } else if q < l {
            sum += l - q;
        }
    }
    sum.max(kim)
}

/// True when lower bound `lb` proves a candidate cannot beat threshold
/// `tau` (the current q-th best distance). The margin absorbs f32 rounding:
/// the bounds are admissible over the reals, but the bound and the DTW
/// kernel accumulate in different orders, so a bound a few ulps above the
/// true distance must never prune a candidate that ties the threshold.
#[inline]
fn threshold_cut(tau: f32) -> f32 {
    tau * (1.0 + 1e-5) + 1e-6
}

#[inline]
fn beats_threshold(lb: f32, tau: f32) -> bool {
    lb > threshold_cut(tau)
}

/// Early-abandoning cascade form of [`lb_keogh`]: decides
/// `beats_threshold(lb_keogh(query, env), tau)` without always summing the
/// whole series. The partial Keogh sum is itself a lower bound and only
/// grows, so the first prefix beating the cut settles the decision; the
/// endpoint (`lb_kim`) part of `lb_keogh` is irrelevant here because the
/// caller only reaches this check after LB_Kim failed to prune.
fn lb_keogh_beats(query: &[f32], env: &DtwEnvelope, tau: f32) -> bool {
    if query.len() != env.len() || query.is_empty() {
        return false;
    }
    let cut = threshold_cut(tau);
    let mut sum = 0.0f32;
    for ((&q, &u), &l) in query.iter().zip(&env.upper).zip(&env.lower) {
        if q > u {
            sum += q - u;
        } else if q < l {
            sum += l - q;
        }
        if sum > cut {
            return true;
        }
    }
    false
}

/// Sparse top-q neighbour structure: for each of `n` nodes, up to `q`
/// `(neighbour, distance)` entries sorted by ascending `(distance, index)` —
/// exactly the first entries of the dense [`crate::dtw_all_pairs`] ranking.
/// Storage is O(N·q); no N² buffer exists at any point.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseNeighbors {
    q: usize,
    offsets: Vec<usize>,
    idx: Vec<u32>,
    dist: Vec<f32>,
}

impl SparseNeighbors {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the structure covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() <= 1
    }

    /// The `q` requested at construction (rows may hold fewer entries when
    /// a node has fewer candidates).
    pub fn q(&self) -> usize {
        self.q
    }

    /// Neighbour indices of node `i`, ascending by `(distance, index)`.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.idx[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Distances aligned with [`Self::neighbors`].
    pub fn distances(&self, i: usize) -> &[f32] {
        &self.dist[self.offsets[i]..self.offsets[i + 1]]
    }

    /// `(neighbour, distance)` pairs of node `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.neighbors(i).iter().copied().zip(self.distances(i).iter().copied())
    }

    fn from_rows(q: usize, rows: Vec<Vec<(u32, f32)>>) -> SparseNeighbors {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0usize);
        let total: usize = rows.iter().map(Vec::len).sum();
        let mut idx = Vec::with_capacity(total);
        let mut dist = Vec::with_capacity(total);
        for row in rows {
            for (j, d) in row {
                idx.push(j);
                dist.push(d);
            }
            offsets.push(idx.len());
        }
        SparseNeighbors { q, offsets, idx, dist }
    }
}

/// Aggregated cascade outcome counts for one search (also exported through
/// the telemetry counters `dtw.lb_kim_pruned` / `dtw.lb_keogh_pruned` /
/// `dtw.full_dtw`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Candidates discarded by the constant-time endpoint bound.
    pub lb_kim_pruned: u64,
    /// Candidates discarded by the envelope bound (either direction).
    pub lb_keogh_pruned: u64,
    /// Candidates that entered the full banded-DTW kernel: lanes of a
    /// scored batch, counted whether or not they abandoned.
    pub full_dtw: u64,
}

impl PruneStats {
    fn add(&mut self, other: PruneStats) {
        self.lb_kim_pruned += other.lb_kim_pruned;
        self.lb_keogh_pruned += other.lb_keogh_pruned;
        self.full_dtw += other.full_dtw;
    }

    /// Fraction of candidates pruned before the full kernel (0 when no
    /// candidates were examined).
    pub fn pruning_rate(&self) -> f64 {
        let total = self.lb_kim_pruned + self.lb_keogh_pruned + self.full_dtw;
        if total == 0 {
            0.0
        } else {
            (self.lb_kim_pruned + self.lb_keogh_pruned) as f64 / total as f64
        }
    }

    fn publish(&self) {
        telemetry::count("dtw.lb_kim_pruned", self.lb_kim_pruned);
        telemetry::count("dtw.lb_keogh_pruned", self.lb_keogh_pruned);
        telemetry::count("dtw.full_dtw", self.full_dtw);
    }
}

/// Bounded best-q set ordered by `(distance, index)`; the max-heap root is
/// the current worst kept entry, i.e. the pruning threshold.
struct BestQ {
    q: usize,
    // (distance bits don't order correctly; keep f32 and compare lexically)
    heap: std::collections::BinaryHeap<HeapEntry>,
}

struct HeapEntry {
    d: f32,
    idx: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.d.total_cmp(&other.d).then(self.idx.cmp(&other.idx))
    }
}

impl BestQ {
    fn new(q: usize) -> BestQ {
        BestQ { q, heap: std::collections::BinaryHeap::with_capacity(q + 1) }
    }

    /// Current threshold: no candidate whose distance provably exceeds this
    /// can enter the set. `None` until `q` entries are held.
    fn threshold(&self) -> Option<f32> {
        if self.heap.len() < self.q {
            None
        } else {
            self.heap.peek().map(|e| e.d)
        }
    }

    fn offer(&mut self, idx: u32, d: f32) {
        if self.heap.len() < self.q {
            self.heap.push(HeapEntry { d, idx });
        } else if let Some(worst) = self.heap.peek() {
            if (HeapEntry { d, idx }) < *worst {
                self.heap.pop();
                self.heap.push(HeapEntry { d, idx });
            }
        }
    }

    fn into_sorted(self) -> Vec<(u32, f32)> {
        let mut v: Vec<HeapEntry> = self.heap.into_vec();
        v.sort();
        v.into_iter().map(|e| (e.idx, e.d)).collect()
    }
}

/// One node's sorted `(neighbour, distance)` entries.
type NeighborRow = Vec<(u32, f32)>;

/// Runs the cascade for `query` against the listed candidates, returning the
/// exact top-`q` `(candidate, distance)` pairs by ascending
/// `(distance, index)`. `envelopes[c]` must be the envelope of `series[c]`
/// built with half-width ≥ `band`; `query_env` is the query's own envelope
/// (used for the reverse Keogh bound).
///
/// Survivors of the lower bounds are scored [`DTW_LANES`] at a time by the
/// lane kernel ([`crate::dtw_banded_lanes`]): each one joins a fixed-width batch,
/// and a full batch (or the last, partial one) is scored against the
/// threshold as it stands at that moment, then offered in candidate order.
/// A threshold that is stale within a batch is never lower than the fresh
/// one would be, so it only prunes and abandons less; every candidate of
/// the true top-q still reaches `BestQ` with its exact distance, and the
/// set stays exact.
#[allow(clippy::too_many_arguments)]
pub fn dtw_nearest(
    query: &[f32],
    query_env: &DtwEnvelope,
    series: &[Vec<f32>],
    envelopes: &[DtwEnvelope],
    candidates: &[u32],
    band: usize,
    q: usize,
    stats: &mut PruneStats,
) -> Vec<(u32, f32)> {
    debug_assert_eq!(series.len(), envelopes.len());
    if q == 0 {
        return Vec::new();
    }
    let mut best = BestQ::new(q.min(candidates.len().max(1)));
    let mut scratch = LaneScratch::default();
    let mut batch = [0u32; DTW_LANES];
    let mut filled = 0;
    for &c in candidates {
        let cs = &series[c as usize];
        if let Some(tau) = best.threshold() {
            let kim = lb_kim(query, cs);
            if beats_threshold(kim, tau) {
                stats.lb_kim_pruned += 1;
                continue;
            }
            if lb_keogh_beats(query, &envelopes[c as usize], tau)
                || lb_keogh_beats(cs, query_env, tau)
            {
                stats.lb_keogh_pruned += 1;
                continue;
            }
        }
        stats.full_dtw += 1;
        batch[filled] = c;
        filled += 1;
        if filled == DTW_LANES {
            score_batch(&mut scratch, query, series, &batch, band, &mut best);
            filled = 0;
        }
    }
    score_batch(&mut scratch, query, series, &batch[..filled], band, &mut best);
    best.into_sorted()
}

/// Scores one batch of cascade survivors and offers them to `best` in
/// candidate order. Survivors still early-abandon inside the kernel: a row
/// minimum beating the cut proves the distance cannot enter the top-q, and
/// an unabandoned result is bitwise equal to [`crate::dtw_banded`].
fn score_batch(
    scratch: &mut LaneScratch,
    query: &[f32],
    series: &[Vec<f32>],
    batch: &[u32],
    band: usize,
    best: &mut BestQ,
) {
    if batch.is_empty() {
        return;
    }
    let cut = best.threshold().map_or(f32::INFINITY, threshold_cut);
    let mut slots: [&[f32]; DTW_LANES] = [&[]; DTW_LANES];
    for (slot, &c) in slots.iter_mut().zip(batch) {
        *slot = &series[c as usize];
    }
    let mut out = [None; DTW_LANES];
    scratch.score(query, &slots[..batch.len()], band, cut, &mut out[..batch.len()]);
    for (&c, d) in batch.iter().zip(out) {
        if let Some(d) = d {
            best.offer(c, d);
        }
    }
}

/// Exact sparse top-`q` DTW neighbours of every series against every other,
/// replacing the dense [`crate::dtw_all_pairs`] + per-row sort route. Nodes
/// fan out over the shared worker pool; each node's scan is independent, so
/// results (and the pruning counters) are identical for any thread count.
pub fn dtw_top_q(series: &[Vec<f32>], band: usize, q: usize) -> (SparseNeighbors, PruneStats) {
    dtw_top_q_with_envelopes(series, &dtw_envelopes(series, band), band, q, None)
}

/// [`dtw_top_q`] restricted to per-node candidate lists (e.g. spatial
/// k-nearest sensors): node `i` only considers `candidates[i]`. Self-links
/// are ignored. Top-q selection within the listed candidates is still exact.
pub fn dtw_top_q_with_candidates(
    series: &[Vec<f32>],
    band: usize,
    q: usize,
    candidates: &[Vec<u32>],
) -> (SparseNeighbors, PruneStats) {
    dtw_top_q_with_envelopes(series, &dtw_envelopes(series, band), band, q, Some(candidates))
}

/// [`dtw_top_q`] (`candidates = None`) or [`dtw_top_q_with_candidates`]
/// over envelopes the caller already holds, so a caller that keeps them for
/// later scans builds them once. `envelopes[i]` must be
/// `dtw_envelope(&series[i], band)`.
pub fn dtw_top_q_with_envelopes(
    series: &[Vec<f32>],
    envelopes: &[DtwEnvelope],
    band: usize,
    q: usize,
    candidates: Option<&[Vec<u32>]>,
) -> (SparseNeighbors, PruneStats) {
    let _span = telemetry::span("dtw.top_q");
    let n = series.len();
    assert_eq!(envelopes.len(), n, "one envelope per series");
    if let Some(lists) = candidates {
        assert_eq!(lists.len(), n, "one candidate list per series");
    }
    // Per-chunk stats merge order is fixed by chunk order, and u64 sums are
    // associative, so totals are thread-count independent.
    let chunk_results: Vec<(Vec<NeighborRow>, PruneStats)> = pool::par_map_chunks(n, 8, |rows| {
        let mut stats = PruneStats::default();
        let rows_out: Vec<NeighborRow> = rows
            .map(|i| {
                let all: Vec<u32>;
                let cands: &[u32] = match candidates {
                    Some(lists) => &lists[i],
                    None => {
                        all = (0..n as u32).filter(|&j| j as usize != i).collect();
                        &all
                    }
                };
                // Defensive: drop self-links from caller-provided lists.
                let filtered: Vec<u32>;
                let cands = if cands.iter().any(|&c| c as usize == i) {
                    filtered = cands.iter().copied().filter(|&c| c as usize != i).collect();
                    &filtered
                } else {
                    cands
                };
                dtw_nearest(
                    &series[i],
                    &envelopes[i],
                    series,
                    envelopes,
                    cands,
                    band,
                    q,
                    &mut stats,
                )
            })
            .collect();
        (rows_out, stats)
    });
    let mut stats = PruneStats::default();
    let mut rows = Vec::with_capacity(n);
    for (chunk_rows, chunk_stats) in chunk_results {
        rows.extend(chunk_rows);
        stats.add(chunk_stats);
    }
    stats.publish();
    (SparseNeighbors::from_rows(q, rows), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::{dtw_all_pairs, dtw_banded};

    fn wavy(n: usize, t: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|s| {
                (0..t)
                    .map(|i| {
                        ((i * (s % 7 + 3)) as f32 * 0.13).sin() + (s as f32 * 0.41).cos() * 0.5
                    })
                    .collect()
            })
            .collect()
    }

    /// Dense reference ranking: sort each row of `dtw_all_pairs` by
    /// `(distance, index)` and truncate to `q`.
    fn dense_top_q(series: &[Vec<f32>], band: usize, q: usize) -> Vec<Vec<(u32, f32)>> {
        let n = series.len();
        let d = dtw_all_pairs(series, band);
        (0..n)
            .map(|i| {
                let mut row: Vec<(u32, f32)> = (0..n as u32)
                    .filter(|&j| j as usize != i)
                    .map(|j| (j, d[i * n + j as usize]))
                    .collect();
                row.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                row.truncate(q);
                row
            })
            .collect()
    }

    #[test]
    fn envelope_bounds_series() {
        let s: Vec<f32> = (0..40).map(|i| ((i as f32) * 0.3).sin()).collect();
        for band in [0, 1, 3, 10, usize::MAX] {
            let e = dtw_envelope(&s, band);
            for i in 0..s.len() {
                assert!(e.lower[i] <= s[i] && s[i] <= e.upper[i], "band {band} i {i}");
                let lo = i.saturating_sub(band.min(s.len()));
                let hi = (i + band.min(s.len())).min(s.len() - 1);
                let wmin = s[lo..=hi].iter().copied().fold(f32::INFINITY, f32::min);
                let wmax = s[lo..=hi].iter().copied().fold(f32::NEG_INFINITY, f32::max);
                assert_eq!(e.lower[i], wmin, "band {band} i {i}");
                assert_eq!(e.upper[i], wmax, "band {band} i {i}");
            }
        }
    }

    #[test]
    fn envelope_band_zero_is_series() {
        let s = vec![3.0f32, -1.0, 2.0];
        let e = dtw_envelope(&s, 0);
        assert_eq!(e.lower, s);
        assert_eq!(e.upper, s);
    }

    #[test]
    fn bounds_are_admissible_on_fixed_cases() {
        let cases: Vec<(Vec<f32>, Vec<f32>)> = vec![
            (vec![0.0, 0.0], vec![1.0, 0.0]),
            (vec![1.0], vec![-2.0]),
            (vec![0.0, 5.0, 0.0], vec![5.0, 0.0, 5.0]),
            (
                (0..30).map(|i| (i as f32 * 0.4).sin()).collect(),
                (0..30).map(|i| (i as f32 * 0.4 + 1.0).cos()).collect(),
            ),
        ];
        for (a, b) in &cases {
            for band in [0usize, 1, 2, 8, usize::MAX] {
                let d = dtw_banded(a, b, band);
                let kim = lb_kim(a, b);
                let keogh = lb_keogh(a, &dtw_envelope(b, band));
                assert!(kim <= keogh + 1e-5, "kim {kim} > keogh {keogh}");
                assert!(keogh <= d * (1.0 + 1e-5) + 1e-5, "keogh {keogh} > dtw {d} (band {band})");
            }
        }
    }

    #[test]
    fn singleton_series_bound_is_exact_not_doubled() {
        let a = vec![3.0f32];
        let b = vec![1.0f32];
        assert_eq!(lb_kim(&a, &b), 2.0);
        assert_eq!(dtw_banded(&a, &b, usize::MAX), 2.0);
    }

    #[test]
    fn top_q_matches_dense_ranking_bitwise() {
        let series = wavy(60, 48);
        for (band, q) in [(4usize, 1usize), (8, 3), (usize::MAX, 5)] {
            let (sparse, stats) = dtw_top_q(&series, band, q);
            let dense = dense_top_q(&series, band, q);
            assert_eq!(sparse.len(), series.len());
            for (i, dense_row) in dense.iter().enumerate() {
                let got: Vec<(u32, u32)> = sparse.row(i).map(|(j, d)| (j, d.to_bits())).collect();
                let want: Vec<(u32, u32)> =
                    dense_row.iter().map(|&(j, d)| (j, d.to_bits())).collect();
                assert_eq!(got, want, "node {i} band {band} q {q}");
            }
            assert!(stats.lb_kim_pruned + stats.lb_keogh_pruned > 0, "no pruning at all");
        }
    }

    #[test]
    fn candidate_lists_restrict_search() {
        let series = wavy(20, 32);
        let cands: Vec<Vec<u32>> =
            (0..20u32).map(|i| (0..20u32).filter(|&j| j != i && j % 2 == 0).collect()).collect();
        let (sparse, _) = dtw_top_q_with_candidates(&series, 4, 3, &cands);
        for i in 0..20 {
            for j in sparse.neighbors(i) {
                assert_eq!(j % 2, 0, "node {i} linked odd candidate {j}");
            }
        }
        // Within the candidate set the selection is still the exact top-q.
        let dense = dense_top_q(&series, 4, 20);
        for (i, dense_row) in dense.iter().enumerate() {
            let want: Vec<u32> = dense_row
                .iter()
                .map(|&(j, _)| j)
                .filter(|&j| j % 2 == 0 && j as usize != i)
                .take(3)
                .collect();
            assert_eq!(sparse.neighbors(i), &want[..], "node {i}");
        }
    }

    #[test]
    fn top_q_identical_across_thread_counts() {
        let series = wavy(40, 40);
        let reference = pool::with_max_threads(1, || dtw_top_q(&series, 6, 3));
        for cap in [2, 5] {
            let got = pool::with_max_threads(cap, || dtw_top_q(&series, 6, 3));
            assert_eq!(reference.0, got.0, "neighbours differ at cap {cap}");
            assert_eq!(reference.1, got.1, "stats differ at cap {cap}");
        }
    }

    #[test]
    fn handles_fewer_candidates_than_q() {
        let series = wavy(3, 16);
        let (sparse, _) = dtw_top_q(&series, 4, 10);
        for i in 0..3 {
            assert_eq!(sparse.neighbors(i).len(), 2);
        }
    }
}
