//! Pseudo-observations (Eq. 3): inverse-distance-weighted blends of observed
//! locations' values, filling in masked and unobserved locations so the
//! GCNs have something to propagate and DTW has something to compare.

/// Inverse-distance weights from each target (row) to each source (column):
/// `α_ij = d_ij^{-1} / Σ_l d_il^{-1}` (Eq. 3). `dist` is row-major
/// `targets × sources`.
pub fn inverse_distance_weights(dist: &[f32], targets: usize, sources: usize) -> Vec<f32> {
    assert_eq!(dist.len(), targets * sources, "distance matrix shape mismatch");
    assert!(sources > 0, "need at least one source location");
    let mut w = vec![0.0f32; targets * sources];
    for ti in 0..targets {
        let row = &dist[ti * sources..(ti + 1) * sources];
        let mut sum = 0.0f64;
        for (j, &d) in row.iter().enumerate() {
            let inv = 1.0 / (d.max(1e-3)) as f64;
            w[ti * sources + j] = inv as f32;
            sum += inv;
        }
        let inv_sum = (1.0 / sum) as f32;
        for j in 0..sources {
            w[ti * sources + j] *= inv_sum;
        }
    }
    w
}

/// Computes pseudo-observation series for targets given source series.
///
/// * `weights` — from [`inverse_distance_weights`], `targets × sources`;
/// * `source_values` — `sources × t` (row per source);
/// * returns `targets × t`.
pub fn blend_series(weights: &[f32], source_values: &[f32], sources: usize, t: usize) -> Vec<f32> {
    assert_eq!(source_values.len(), sources * t, "source values shape mismatch");
    blend_series_strided(weights, source_values, sources, t, t, 0)
}

/// Strided variant of [`blend_series`]: source row `j` covers
/// `source_values[j·row_stride + offset ..][..t]`, so a time window of a
/// pre-gathered `sources × T_total` matrix blends in place with no window
/// copy. Identical arithmetic, element order and zero-weight skipping as
/// the contiguous entry point (which forwards here with `row_stride = t`,
/// `offset = 0`).
pub fn blend_series_strided(
    weights: &[f32],
    source_values: &[f32],
    sources: usize,
    t: usize,
    row_stride: usize,
    offset: usize,
) -> Vec<f32> {
    assert!(sources > 0 || weights.is_empty(), "weights without sources");
    if sources == 0 {
        return Vec::new();
    }
    assert!(offset + t <= row_stride.max(t), "window exceeds source row");
    assert!(
        (sources - 1) * row_stride + offset + t <= source_values.len(),
        "source values shape mismatch"
    );
    assert!(weights.len().is_multiple_of(sources), "weights not divisible by sources");
    let targets = weights.len() / sources;
    let mut out = vec![0.0f32; targets * t];
    for ti in 0..targets {
        let wrow = &weights[ti * sources..(ti + 1) * sources];
        let orow = &mut out[ti * t..(ti + 1) * t];
        for (j, &w) in wrow.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let sbase = j * row_stride + offset;
            let srow = &source_values[sbase..sbase + t];
            for (o, &s) in orow.iter_mut().zip(srow) {
                *o += w * s;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_a_distribution() {
        let dist = vec![1.0, 2.0, 4.0, 10.0, 10.0, 10.0];
        let w = inverse_distance_weights(&dist, 2, 3);
        for ti in 0..2 {
            let sum: f32 = w[ti * 3..(ti + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Closer sources weigh more.
        assert!(w[0] > w[1] && w[1] > w[2]);
        // Equidistant sources weigh equally.
        assert!((w[3] - w[4]).abs() < 1e-6);
    }

    #[test]
    fn zero_distance_is_floored() {
        let w = inverse_distance_weights(&[0.0, 1.0], 1, 2);
        assert!(w[0].is_finite() && w[0] > w[1]);
    }

    #[test]
    fn blend_is_weighted_average() {
        // Two sources, constant series 10 and 30; weights 0.75 / 0.25.
        let w = inverse_distance_weights(&[1.0, 3.0], 1, 2);
        let sources = vec![10.0, 10.0, 30.0, 30.0];
        let out = blend_series(&w, &sources, 2, 2);
        for &v in &out {
            assert!((v - 15.0).abs() < 1e-4, "expected 0.75*10+0.25*30 = 15, got {v}");
        }
    }

    #[test]
    fn blend_preserves_time_structure() {
        let w = vec![1.0, 0.0]; // copy source 0 exactly
        let sources = vec![1.0, 2.0, 3.0, 9.0, 9.0, 9.0];
        let out = blend_series(&w, &sources, 2, 3);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn pseudo_observation_interpolates_smooth_field() {
        // Sources on a line with values = x coordinate; a target in the middle
        // should get an intermediate value.
        let sources_x = [0.0f32, 1.0, 2.0, 3.0];
        let target_x = 1.4f32;
        let dist: Vec<f32> = sources_x.iter().map(|&x| (x - target_x).abs()).collect();
        let w = inverse_distance_weights(&dist, 1, 4);
        let values: Vec<f32> = sources_x.to_vec();
        let out = blend_series(&w, &values, 4, 1);
        assert!(out[0] > 0.8 && out[0] < 2.0, "interpolated {}", out[0]);
    }
}
