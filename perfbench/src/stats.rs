//! Order statistics over per-op samples.

/// Sorted copy of `v` (total order, so a stray NaN cannot panic the sort).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile `q` in `[0, 1]`; 0 when empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Throughputs of equal-count slices of a run.
///
/// `done_s` holds each op's completion time in seconds since the timed
/// start. Ops are ordered by completion and cut into slices of
/// `ops_per_slice`; a slice's throughput is its work over the time from the
/// previous slice's last completion to its own. A slow burst of the host
/// then spoils the slices it overlaps instead of pulling a whole-run mean.
/// With fewer ops than one slice, the whole run is the only slice.
pub fn slice_rates(done_s: &[f64], work_per_op: f64, ops_per_slice: usize) -> Vec<f64> {
    let done = sorted(done_s);
    let k = ops_per_slice.max(1);
    if done.is_empty() {
        return Vec::new();
    }
    if done.len() < k {
        return vec![done.len() as f64 * work_per_op / done[done.len() - 1].max(f64::MIN_POSITIVE)];
    }
    (0..done.len() / k)
        .map(|j| {
            let begin = if j == 0 { 0.0 } else { done[j * k - 1] };
            let span = (done[(j + 1) * k - 1] - begin).max(f64::MIN_POSITIVE);
            k as f64 * work_per_op / span
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slices_ignore_one_slow_burst() {
        // 10 ops at 10/s, except one slice of 2 ops that took 1 s.
        let mut done = Vec::new();
        let mut t = 0.0;
        for i in 0..10 {
            t += if i == 4 || i == 5 { 0.5 } else { 0.1 };
            done.push(t);
        }
        let rates = slice_rates(&done, 1.0, 2);
        assert_eq!(rates.len(), 5);
        assert!((median(&rates) - 10.0).abs() < 1e-9);
    }
}
