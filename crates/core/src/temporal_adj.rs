//! Temporal-similarity adjacency `A_dtw` (§3.4.1).
//!
//! DTW distances between daily profiles pick, for each location, its most
//! temporally similar peers. Links are directed: observed↔observed links are
//! allowed, but pseudo-observed locations (masked at training, unobserved at
//! testing) only *receive* messages from observed locations — their noisy
//! pseudo-profiles never pollute observed embeddings.
//!
//! Only the `q` nearest neighbours of each node ever reach the adjacency,
//! so the context stores a lower-bound-pruned sparse top-`q` structure
//! (O(N·q) memory) instead of the former N×N distance matrix plus full
//! per-node rankings. Selections stay bitwise identical to the dense
//! ranking: the sparse rows are exact prefixes of it, and whenever a
//! masked-subset scan exhausts a truncated row the node is rescanned
//! against the full eligible candidate set (counted by the
//! `dtw.fallback_rescan` telemetry counter).

use crate::config::DtwCandidates;
use crate::problem::ProblemInstance;
use crate::pseudo::{blend_series, inverse_distance_weights};
use stsm_graph::{grid_knn, CsrMatrix};
use stsm_tensor::{pool, telemetry};
use stsm_timeseries::{
    daily_profile, dtw_banded, dtw_envelope, dtw_envelopes, dtw_nearest, dtw_top_q_with_envelopes,
    DtwEnvelope, PruneStats, SparseNeighbors,
};

/// How many ranked neighbours each sparse row holds relative to the largest
/// `q` the adjacency builders will request. The headroom absorbs masked
/// entries (mask ratio 0.5 leaves a `2^-depth`-ish chance of exhausting a
/// row); exactness never depends on it thanks to the fallback rescan.
const DEPTH_FACTOR: usize = 8;
const MIN_DEPTH: usize = 16;

/// Precomputed DTW state for one problem: real observed profiles, their
/// Keogh envelopes, and the exact sparse top-`q` neighbour ranking per node
/// (computed once; the per-epoch masked adjacencies reuse all three).
pub struct DtwContext {
    /// Daily profiles of the observed locations (order of `problem.observed`).
    profiles: Vec<Vec<f32>>,
    /// Keogh envelopes of `profiles` at half-width `band`, reused by every
    /// pruned scan (construction, pseudo-profile scoring, rescans).
    envelopes: Vec<DtwEnvelope>,
    /// Exact top-`depth` DTW neighbours of every node, ascending by
    /// `(distance, index)` — the first entries of the dense ranking.
    neighbors: SparseNeighbors,
    /// Spatial candidate lists when [`DtwCandidates::Spatial`] is active
    /// (`None` = every pair eligible).
    candidates: Option<Vec<Vec<u32>>>,
    /// Cascade outcome counts from the construction-time search.
    stats: PruneStats,
    band: usize,
}

impl DtwContext {
    /// [`Self::with_options`] with exact candidates and the paper's `q = 1`.
    pub fn new(problem: &ProblemInstance, band: usize, downsample: usize) -> Self {
        Self::with_options(problem, band, downsample, DtwCandidates::Exact, 1)
    }

    /// Builds profiles from the scaled training-period series of every
    /// observed location and runs the pruned sparse top-q neighbour search
    /// (LB_Kim → LB_Keogh → full banded DTW, in parallel on the shared
    /// pool). `q_needed` is the largest neighbour count the adjacency
    /// builders will request (`max(q_kk, q_ku)`); rows are ranked several
    /// times deeper so masked-subset scans rarely fall back to a rescan.
    pub fn with_options(
        problem: &ProblemInstance,
        band: usize,
        downsample: usize,
        candidates: DtwCandidates,
        q_needed: usize,
    ) -> Self {
        let spd = problem.steps_per_day();
        let downsample = effective_downsample(spd, downsample);
        let profiles: Vec<Vec<f32>> = problem
            .observed
            .iter()
            .map(|&g| {
                let series =
                    problem.scaled_range(g, problem.train_time.start, problem.train_time.end);
                if series.iter().all(|v| v.is_finite()) {
                    daily_profile(series, spd, downsample)
                } else {
                    // Dropped/corrupted readings would poison the profile
                    // (and every DTW distance touching it); carry the last
                    // finite value through the gaps first.
                    let mut owned = series.to_vec();
                    crate::resilience::carry_impute(&mut owned, 0.0);
                    daily_profile(&owned, spd, downsample)
                }
            })
            .collect();
        let n = profiles.len();
        let depth = (q_needed.max(1) * DEPTH_FACTOR).max(MIN_DEPTH).min(n.saturating_sub(1));
        let candidates = match candidates {
            DtwCandidates::Exact => None,
            DtwCandidates::Spatial { per_node } => {
                let coords: Vec<[f64; 2]> =
                    problem.observed.iter().map(|&g| problem.dataset.coords[g]).collect();
                Some(grid_knn(&coords, per_node))
            }
        };
        let envelopes = dtw_envelopes(&profiles, band);
        let (neighbors, stats) =
            dtw_top_q_with_envelopes(&profiles, &envelopes, band, depth, candidates.as_deref());
        DtwContext { profiles, envelopes, neighbors, candidates, stats, band }
    }

    /// Number of observed locations.
    pub fn n_observed(&self) -> usize {
        self.profiles.len()
    }

    /// Cascade outcome counts (pruned/full kernel calls) from construction.
    pub fn prune_stats(&self) -> PruneStats {
        self.stats
    }

    /// The DTW distance between observed locals `i` and `j`. Top-`q`
    /// neighbour distances come from the sparse structure; anything beyond
    /// it is recomputed on demand with the same kernel, so the value is
    /// identical either way.
    pub fn distance(&self, i: usize, j: usize) -> f32 {
        if i == j {
            return 0.0;
        }
        if let Some((_, d)) = self.neighbors.row(i).find(|&(c, _)| c as usize == j) {
            return d;
        }
        dtw_banded(&self.profiles[i], &self.profiles[j], self.band)
    }

    /// First `count` neighbours of `i` (ascending DTW distance, ties by
    /// index) satisfying `keep`. A filtered prefix of the exact ranking is
    /// the exact filtered ranking's prefix, so scanning the sparse row
    /// suffices whenever it either yields `count` survivors or was never
    /// truncated; otherwise the node rescans its eligible candidates with
    /// the same pruned search.
    fn ranked(&self, i: usize, count: usize, keep: &dyn Fn(usize) -> bool) -> Vec<u32> {
        let row = self.neighbors.neighbors(i);
        let hits: Vec<u32> =
            row.iter().copied().filter(|&j| keep(j as usize)).take(count).collect();
        if hits.len() == count || row.len() < self.neighbors.q() {
            return hits;
        }
        let eligible: Vec<u32> =
            self.candidate_ids(i).into_iter().filter(|&j| keep(j as usize)).collect();
        if eligible.len() <= hits.len() {
            return hits;
        }
        telemetry::count("dtw.fallback_rescan", 1);
        let mut stats = PruneStats::default();
        let found = dtw_nearest(
            &self.profiles[i],
            &self.envelopes[i],
            &self.profiles,
            &self.envelopes,
            &eligible,
            self.band,
            count,
            &mut stats,
        );
        publish_stats(&stats);
        found.into_iter().map(|(j, _)| j).collect()
    }

    fn candidate_ids(&self, i: usize) -> Vec<u32> {
        match &self.candidates {
            Some(lists) => lists[i].iter().copied().filter(|&j| j as usize != i).collect(),
            None => (0..self.n_observed() as u32).filter(|&j| j as usize != i).collect(),
        }
    }

    /// Training-time adjacency over the observed graph with a masked subset
    /// (§3.4.1): unmasked↔unmasked top-`q_kk` links, plus incoming links to
    /// each masked location from its `q_ku` most similar unmasked locations
    /// (similarity of the masked location's *pseudo* profile).
    ///
    /// `pseudo_weights` are the inverse-distance weights (masked × unmasked)
    /// used to blend pseudo-profiles; rows follow the order of masked locals,
    /// columns the order of unmasked locals.
    pub fn train_adjacency(
        &self,
        masked: &[bool],
        pseudo_weights: &[f32],
        q_kk: usize,
        q_ku: usize,
    ) -> CsrMatrix {
        let n = self.n_observed();
        assert_eq!(masked.len(), n, "mask length mismatch");
        let unmasked: Vec<usize> = (0..n).filter(|&i| !masked[i]).collect();
        let masked_ids: Vec<usize> = (0..n).filter(|&i| masked[i]).collect();
        assert_eq!(
            pseudo_weights.len(),
            masked_ids.len() * unmasked.len(),
            "pseudo weight shape mismatch"
        );
        let mut triplets = Vec::new();
        // Unmasked -> unmasked: top q_kk most similar per node (incoming).
        for &i in &unmasked {
            for j in self.ranked(i, q_kk, &|j| !masked[j]) {
                triplets.push((i, j as usize, 1.0));
            }
        }
        // Masked <- unmasked: DTW between the pseudo profile and real
        // profiles, through the same pruned cascade (exact top-q_ku, same
        // kernel and tie order as the former sort-everything route). Nodes
        // score independently, so they fan out over the pool; chunk results
        // concatenated in order keep the serial triplet order.
        // Pseudo-profiles blend the unmasked profiles (daily profiling is
        // linear, so blending profiles equals profiling the blended series),
        // gathered once into one row-major matrix.
        let plen = self.profiles.first().map_or(0, Vec::len);
        let sources: Vec<f32> =
            unmasked.iter().flat_map(|&u| self.profiles[u].iter().copied()).collect();
        let unmasked_u32: Vec<u32> = unmasked.iter().map(|&u| u as u32).collect();
        let scored = pool::par_map_chunks(masked_ids.len(), 1, |rows| {
            let mut links: Vec<(usize, usize, f32)> = Vec::new();
            let mut stats = PruneStats::default();
            for row in rows {
                let m = masked_ids[row];
                let weights = &pseudo_weights[row * unmasked.len()..(row + 1) * unmasked.len()];
                let pseudo = blend_series(weights, &sources, unmasked.len(), plen);
                let pseudo_env = dtw_envelope(&pseudo, self.band);
                // In spatial-candidate mode a masked node only links to
                // unmasked peers within its spatial candidate list.
                let restricted: Vec<u32>;
                let cands: &[u32] = match &self.candidates {
                    None => &unmasked_u32,
                    Some(lists) => {
                        restricted =
                            lists[m].iter().copied().filter(|&j| !masked[j as usize]).collect();
                        &restricted
                    }
                };
                let top = dtw_nearest(
                    &pseudo,
                    &pseudo_env,
                    &self.profiles,
                    &self.envelopes,
                    cands,
                    self.band,
                    q_ku,
                    &mut stats,
                );
                for (j, _) in top {
                    links.push((m, j as usize, 1.0));
                }
            }
            (links, stats)
        });
        let mut pseudo_stats = PruneStats::default();
        for (links, stats) in scored {
            triplets.extend(links);
            merge_stats(&mut pseudo_stats, &stats);
        }
        publish_stats(&pseudo_stats);
        CsrMatrix::from_triplets(n, n, &triplets)
    }

    /// Test-time adjacency over the full graph (`N × N`, global indices
    /// remapped to `layout`): observed↔observed top-`q_kk` links plus
    /// incoming links to each unobserved location from its `q_ku` most
    /// similar observed locations. `layout[i]` gives the full-graph row of
    /// observed local `i`; `unobs_layout[u]` the row of unobserved local `u`;
    /// `pseudo_weights` is `unobserved × observed`.
    pub fn test_adjacency(
        &self,
        n_total: usize,
        layout: &[usize],
        unobs_layout: &[usize],
        pseudo_weights: &[f32],
        q_kk: usize,
        q_ku: usize,
    ) -> CsrMatrix {
        let n_obs = self.n_observed();
        assert_eq!(layout.len(), n_obs);
        assert_eq!(pseudo_weights.len(), unobs_layout.len() * n_obs);
        let mut triplets = Vec::new();
        // Observed -> observed: the sparse rows already rank the top peers.
        for i in 0..n_obs {
            for j in self.ranked(i, q_kk, &|_| true) {
                triplets.push((layout[i], layout[j as usize], 1.0));
            }
        }
        // Unobserved <- observed: pseudo-profile scoring fans out per node,
        // exactly like the masked loop in [`Self::train_adjacency`]. All
        // observed locations stay eligible in both candidate modes — the
        // spatial lists only cover observed↔observed pairs.
        let plen = self.profiles.first().map_or(0, Vec::len);
        let sources = self.profiles.concat();
        let all_obs_u32: Vec<u32> = (0..n_obs as u32).collect();
        let scored = pool::par_map_chunks(unobs_layout.len(), 1, |rows| {
            let mut links: Vec<(usize, usize, f32)> = Vec::new();
            let mut stats = PruneStats::default();
            for u in rows {
                let row = unobs_layout[u];
                let weights = &pseudo_weights[u * n_obs..(u + 1) * n_obs];
                let pseudo = blend_series(weights, &sources, n_obs, plen);
                let pseudo_env = dtw_envelope(&pseudo, self.band);
                let top = dtw_nearest(
                    &pseudo,
                    &pseudo_env,
                    &self.profiles,
                    &self.envelopes,
                    &all_obs_u32,
                    self.band,
                    q_ku,
                    &mut stats,
                );
                for (j, _) in top {
                    links.push((row, layout[j as usize], 1.0));
                }
            }
            (links, stats)
        });
        let mut pseudo_stats = PruneStats::default();
        for (links, stats) in scored {
            triplets.extend(links);
            merge_stats(&mut pseudo_stats, &stats);
        }
        publish_stats(&pseudo_stats);
        CsrMatrix::from_triplets(n_total, n_total, &triplets)
    }
}

fn merge_stats(into: &mut PruneStats, from: &PruneStats) {
    into.lb_kim_pruned += from.lb_kim_pruned;
    into.lb_keogh_pruned += from.lb_keogh_pruned;
    into.full_dtw += from.full_dtw;
}

fn publish_stats(stats: &PruneStats) {
    telemetry::count("dtw.lb_kim_pruned", stats.lb_kim_pruned);
    telemetry::count("dtw.lb_keogh_pruned", stats.lb_keogh_pruned);
    telemetry::count("dtw.full_dtw", stats.full_dtw);
}

/// Builds inverse-distance pseudo weights for DTW/adjacency purposes from a
/// problem: rows = targets (global ids), cols = sources (global ids).
pub fn pseudo_weights_for(
    problem: &ProblemInstance,
    targets: &[usize],
    sources: &[usize],
) -> Vec<f32> {
    let dist = problem.sub_distances(targets, sources, true);
    inverse_distance_weights(&dist, targets.len(), sources.len())
}

fn effective_downsample(steps_per_day: usize, requested: usize) -> usize {
    // Choose the largest divisor of steps_per_day not exceeding `requested`.
    let mut d = requested.min(steps_per_day).max(1);
    while !steps_per_day.is_multiple_of(d) {
        d -= 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistanceMode;
    use stsm_synth::{space_split, DatasetConfig, NetworkKind, SignalKind, SplitAxis};

    fn problem() -> ProblemInstance {
        let d = DatasetConfig {
            name: "tiny".into(),
            network: NetworkKind::Highway,
            sensors: 40,
            extent: 15_000.0,
            steps_per_day: 24,
            interval_minutes: 60,
            days: 6,
            kind: SignalKind::TrafficSpeed,
            latent_scale: 4_000.0,
            poi_radius: 300.0,
            seed: 13,
        }
        .generate();
        let split = space_split(&d.coords, SplitAxis::Horizontal, false);
        ProblemInstance::new(d, split, DistanceMode::Euclidean)
    }

    #[test]
    fn pairwise_symmetric_zero_diagonal() {
        let p = problem();
        let ctx = DtwContext::new(&p, 4, 2);
        let n = ctx.n_observed();
        assert_eq!(n, p.n_observed());
        for i in 0..n {
            assert_eq!(ctx.distance(i, i), 0.0);
            for j in 0..n {
                assert_eq!(ctx.distance(i, j), ctx.distance(j, i));
            }
        }
    }

    /// 160 sensors (about 80 observed): enough that the top-`depth`
    /// threshold sits well below most candidates and stored rows are
    /// truncated (at tiny N nearly every candidate is kept).
    fn wide_problem() -> ProblemInstance {
        let d = DatasetConfig {
            name: "prune".into(),
            network: NetworkKind::Highway,
            sensors: 160,
            extent: 30_000.0,
            steps_per_day: 24,
            interval_minutes: 60,
            days: 6,
            kind: SignalKind::TrafficSpeed,
            latent_scale: 6_000.0,
            poi_radius: 300.0,
            seed: 29,
        }
        .generate();
        let split = space_split(&d.coords, SplitAxis::Horizontal, false);
        ProblemInstance::new(d, split, DistanceMode::Euclidean)
    }

    #[test]
    fn construction_prunes_candidates() {
        let ctx = DtwContext::new(&wide_problem(), 4, 2);
        let stats = ctx.prune_stats();
        assert!(stats.full_dtw > 0, "some candidates must reach the kernel");
        assert!(
            stats.lb_kim_pruned + stats.lb_keogh_pruned > 0,
            "lower bounds should prune at least one candidate"
        );
    }

    #[test]
    fn train_adjacency_respects_direction() {
        let p = problem();
        let ctx = DtwContext::new(&p, 4, 2);
        let n = ctx.n_observed();
        let masked: Vec<bool> = (0..n).map(|i| i < n / 3).collect();
        let masked_ids: Vec<usize> = (0..n).filter(|&i| masked[i]).collect();
        let unmasked: Vec<usize> = (0..n).filter(|&i| !masked[i]).collect();
        let mg: Vec<usize> = masked_ids.iter().map(|&l| p.observed[l]).collect();
        let ug: Vec<usize> = unmasked.iter().map(|&l| p.observed[l]).collect();
        let w = pseudo_weights_for(&p, &mg, &ug);
        let a = ctx.train_adjacency(&masked, &w, 1, 2);
        for (r, c, _) in a.iter() {
            assert!(!masked[c], "masked location {c} must never send messages");
            if !masked[r] {
                assert!(!masked[c]);
            }
        }
        // Every masked location receives exactly q_ku links.
        for &m in &masked_ids {
            assert_eq!(a.row(m).count(), 2, "masked {m} should have 2 in-links");
        }
        // Every unmasked location receives exactly q_kk links.
        for &u in &unmasked {
            assert_eq!(a.row(u).count(), 1);
        }
    }

    #[test]
    fn train_links_match_dense_reference_under_heavy_masking() {
        // Mask every peer node 0's truncated row stores, so that row holds
        // no unmasked survivor: `ranked` must fall back to the rescan, and
        // every node's links must still equal the brute-force dense
        // selection.
        let p = wide_problem();
        let ctx = DtwContext::new(&p, 4, 2);
        let n = ctx.n_observed();
        let row0 = ctx.neighbors.neighbors(0);
        let masked: Vec<bool> = (0..n).map(|i| row0.contains(&(i as u32))).collect();
        let unmasked: Vec<usize> = (0..n).filter(|&i| !masked[i]).collect();
        let masked_ids: Vec<usize> = (0..n).filter(|&i| masked[i]).collect();
        let mg: Vec<usize> = masked_ids.iter().map(|&l| p.observed[l]).collect();
        let ug: Vec<usize> = unmasked.iter().map(|&l| p.observed[l]).collect();
        let w = pseudo_weights_for(&p, &mg, &ug);
        let q_kk = 2;
        assert!(unmasked.len() > q_kk, "need more than q_kk unmasked nodes");
        let short_rows = unmasked
            .iter()
            .filter(|&&i| {
                let row = ctx.neighbors.neighbors(i);
                row.len() == ctx.neighbors.q()
                    && row.iter().filter(|&&j| !masked[j as usize]).count() < q_kk
            })
            .count();
        assert!(short_rows > 0, "some truncated row must hold fewer than q_kk unmasked peers");
        let rescans = telemetry::counter_value("dtw.fallback_rescan");
        let a = telemetry::with_telemetry(true, || ctx.train_adjacency(&masked, &w, q_kk, 1));
        assert!(telemetry::counter_value("dtw.fallback_rescan") > rescans, "no rescan ran");
        for &i in &unmasked {
            let got: Vec<usize> = a.row(i).map(|(c, _)| c).collect();
            // Dense reference: rank every unmasked peer by (distance, index).
            let mut want: Vec<(f32, usize)> =
                unmasked.iter().filter(|&&j| j != i).map(|&j| (ctx.distance(i, j), j)).collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut want: Vec<usize> = want.into_iter().take(q_kk).map(|(_, j)| j).collect();
            want.sort_unstable();
            let mut got_sorted = got.clone();
            got_sorted.sort_unstable();
            assert_eq!(got_sorted, want, "node {i}");
        }
    }

    #[test]
    fn spatial_candidates_restrict_links() {
        let p = problem();
        let exact = DtwContext::new(&p, 4, 2);
        let per_node = 6;
        let spatial = DtwContext::with_options(&p, 4, 2, DtwCandidates::Spatial { per_node }, 1);
        let n = spatial.n_observed();
        assert_eq!(n, exact.n_observed());
        let masked = vec![false; n];
        let a = spatial.train_adjacency(&masked, &[], 1, 1);
        // Every link must point at one of the node's spatial candidates.
        let coords: Vec<[f64; 2]> = p.observed.iter().map(|&g| p.dataset.coords[g]).collect();
        let lists = grid_knn(&coords, per_node);
        for (r, c, _) in a.iter() {
            assert!(lists[r].contains(&(c as u32)), "link {r}->{c} outside spatial candidates");
        }
    }

    #[test]
    fn test_adjacency_covers_full_graph() {
        let p = problem();
        let ctx = DtwContext::new(&p, 4, 2);
        let n_total = p.n();
        let w = pseudo_weights_for(&p, &p.unobserved, &p.observed);
        let a = ctx.test_adjacency(n_total, &p.observed, &p.unobserved, &w, 1, 1);
        assert_eq!(a.rows(), n_total);
        let unobs: std::collections::HashSet<usize> = p.unobserved.iter().copied().collect();
        for (r, c, _) in a.iter() {
            assert!(!unobs.contains(&c), "unobserved {c} must never send");
            let _ = r;
        }
        for &u in &p.unobserved {
            assert_eq!(a.row(u).count(), 1, "unobserved {u} needs exactly q_ku in-links");
        }
    }

    #[test]
    fn similar_locations_link() {
        // The top-1 DTW link of a location must have minimal DTW distance.
        let p = problem();
        let ctx = DtwContext::new(&p, usize::MAX, 1);
        let n = ctx.n_observed();
        let masked = vec![false; n];
        let a = ctx.train_adjacency(&masked, &[], 1, 1);
        for i in 0..n {
            let links: Vec<usize> = a.row(i).map(|(c, _)| c).collect();
            assert_eq!(links.len(), 1);
            let linked = links[0];
            let best = (0..n)
                .filter(|&j| j != i)
                .map(|j| ctx.distance(i, j))
                .fold(f32::INFINITY, f32::min);
            assert!((ctx.distance(i, linked) - best).abs() < 1e-6);
        }
    }

    #[test]
    fn adjacencies_identical_across_thread_counts() {
        let p = problem();
        let run = |cap: usize| {
            pool::with_max_threads(cap, || {
                let ctx = DtwContext::new(&p, 4, 2);
                let n = ctx.n_observed();
                let masked: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
                let mg: Vec<usize> = (0..n).filter(|&i| masked[i]).map(|l| p.observed[l]).collect();
                let ug: Vec<usize> =
                    (0..n).filter(|&i| !masked[i]).map(|l| p.observed[l]).collect();
                let w = pseudo_weights_for(&p, &mg, &ug);
                let train: Vec<(usize, usize, f32)> =
                    ctx.train_adjacency(&masked, &w, 2, 2).iter().collect();
                let wt = pseudo_weights_for(&p, &p.unobserved, &p.observed);
                let test: Vec<(usize, usize, f32)> = ctx
                    .test_adjacency(p.n(), &p.observed, &p.unobserved, &wt, 2, 2)
                    .iter()
                    .collect();
                (train, test)
            })
        };
        let reference = run(1);
        for cap in [2, 7] {
            assert_eq!(reference, run(cap), "adjacency differs at cap {cap}");
        }
    }

    #[test]
    fn downsample_adapts_to_steps_per_day() {
        assert_eq!(effective_downsample(24, 4), 4);
        assert_eq!(effective_downsample(24, 5), 4);
        assert_eq!(effective_downsample(96, 7), 6);
        assert_eq!(effective_downsample(10, 4), 2);
        assert_eq!(effective_downsample(7, 3), 1);
    }
}
