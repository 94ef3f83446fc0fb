//! Measures DTW-adjacency construction at metro scale — the pruned sparse
//! top-q search vs the dense all-pairs route — and writes `BENCH_scale.json`
//! at the repository root.
//!
//! For each sensor count the metro-area generator lays out several urban
//! grids linked by highway corridors, daily profiles are extracted exactly
//! like `DtwContext` does, and the sparse search
//! (`stsm_timeseries::dtw_top_q`) is timed against `dtw_all_pairs` + a
//! per-row sort. The dense route is skipped above `DENSE_MAX` sensors (its
//! N² f32 buffer alone is 1.6 GB at 20k); where both run, the selected
//! top-q sets are asserted bitwise identical before the report is written.
//! Peak RSS per phase comes from the `VmHWM` watermark (Linux; `null`
//! elsewhere).
//!
//! ```bash
//! cargo run -p stsm-bench --release --bin bench_scale            # full sweep
//! cargo run -p stsm-bench --release --bin bench_scale -- --smoke # seconds
//! ```

use serde_json::{json, Value};
use std::time::Instant;
use stsm_bench::{peak_rss_bytes, reset_peak_rss, Scale};
use stsm_synth::presets;
use stsm_timeseries::{daily_profile, dtw_all_pairs, dtw_top_q, SparseNeighbors};

const BAND: usize = 6;
const TOP_Q: usize = 8;
const DOWNSAMPLE: usize = 4;
const DENSE_MAX: usize = 5_000;

struct Case {
    n: usize,
    sparse_secs: f64,
    sparse_peak_rss: Option<u64>,
    lb_kim_pruned: u64,
    lb_keogh_pruned: u64,
    full_dtw: u64,
    pruning_rate: f64,
    dense_secs: Option<f64>,
    dense_peak_rss: Option<u64>,
    verified: Option<bool>,
}

/// Dense reference: full pairwise matrix, then each row sorted by
/// `(distance, index)` and truncated — the pre-sparse adjacency route.
fn dense_top_q(profiles: &[Vec<f32>], band: usize, q: usize) -> Vec<Vec<(u32, f32)>> {
    let n = profiles.len();
    let d = dtw_all_pairs(profiles, band);
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

fn rows_match(sparse: &SparseNeighbors, dense: &[Vec<(u32, f32)>]) -> bool {
    (0..dense.len()).all(|i| {
        let got: Vec<(u32, u32)> = sparse.row(i).map(|(j, d)| (j, d.to_bits())).collect();
        let want: Vec<(u32, u32)> = dense[i].iter().map(|&(j, d)| (j, d.to_bits())).collect();
        got == want
    })
}

fn run_case(n: usize, days: usize, with_dense: bool) -> Case {
    let t0 = Instant::now();
    let dataset = presets::metro(n, days, 7).generate();
    let spd = dataset.steps_per_day;
    let profiles: Vec<Vec<f32>> =
        (0..n).map(|i| daily_profile(dataset.series(i), spd, DOWNSAMPLE)).collect();
    println!(
        "n={n}: generated metro dataset + {} profiles of length {} in {:.1}s",
        profiles.len(),
        profiles.first().map_or(0, Vec::len),
        t0.elapsed().as_secs_f64()
    );
    drop(dataset);

    reset_peak_rss();
    let t0 = Instant::now();
    let (sparse, stats) = dtw_top_q(&profiles, BAND, TOP_Q);
    let sparse_secs = t0.elapsed().as_secs_f64();
    let sparse_peak_rss = peak_rss_bytes();
    println!(
        "n={n}: sparse top-{TOP_Q} in {sparse_secs:.2}s, pruning rate {:.1}% \
         (kim {}, keogh {}, full {})",
        stats.pruning_rate() * 100.0,
        stats.lb_kim_pruned,
        stats.lb_keogh_pruned,
        stats.full_dtw
    );

    let (dense_secs, dense_peak_rss, verified) = if with_dense {
        reset_peak_rss();
        let t0 = Instant::now();
        let dense = dense_top_q(&profiles, BAND, TOP_Q);
        let secs = t0.elapsed().as_secs_f64();
        let peak = peak_rss_bytes();
        let ok = rows_match(&sparse, &dense);
        assert!(ok, "n={n}: pruned top-{TOP_Q} differs from the dense ranking");
        println!("n={n}: dense all-pairs in {secs:.2}s, top-{TOP_Q} sets bitwise identical");
        (Some(secs), peak, Some(ok))
    } else {
        println!("n={n}: dense route skipped (N² buffer would be {:.1} GB)", {
            (n * n * 4) as f64 / 1e9
        });
        (None, None, None)
    };

    Case {
        n,
        sparse_secs,
        sparse_peak_rss,
        lb_kim_pruned: stats.lb_kim_pruned,
        lb_keogh_pruned: stats.lb_keogh_pruned,
        full_dtw: stats.full_dtw,
        pruning_rate: stats.pruning_rate(),
        dense_secs,
        dense_peak_rss,
        verified,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke") || Scale::from_env() == Scale::Smoke;
    let (sizes, days): (&[usize], usize) =
        if smoke { (&[60, 200], 1) } else { (&[200, 1_000, 5_000, 20_000], 2) };
    let rss_supported = reset_peak_rss();
    println!(
        "DTW adjacency scaling on the metro-area generator (band {BAND}, top-{TOP_Q}, \
         profile downsample {DOWNSAMPLE}){}\n",
        if rss_supported { "" } else { " — peak-RSS watermark unavailable, reporting null" }
    );
    let cases: Vec<Case> = sizes.iter().map(|&n| run_case(n, days, n <= DENSE_MAX)).collect();

    println!(
        "\n{:>7}  {:>10}  {:>10}  {:>8}  {:>9}",
        "n", "sparse s", "dense s", "speedup", "pruned %"
    );
    for c in &cases {
        println!(
            "{:>7}  {:>10.2}  {:>10}  {:>8}  {:>8.1}%",
            c.n,
            c.sparse_secs,
            c.dense_secs.map_or("-".into(), |d| format!("{d:.2}")),
            c.dense_secs.map_or("-".into(), |d| format!("{:.1}x", d / c.sparse_secs)),
            c.pruning_rate * 100.0
        );
    }

    let case_values: Vec<Value> = cases
        .iter()
        .map(|c| {
            json!({
                "n": c.n,
                "sparse": {
                    "seconds": c.sparse_secs,
                    "peak_rss_bytes": c.sparse_peak_rss,
                    "lb_kim_pruned": c.lb_kim_pruned,
                    "lb_keogh_pruned": c.lb_keogh_pruned,
                    "full_dtw": c.full_dtw,
                    "pruning_rate": c.pruning_rate,
                },
                "dense": c.dense_secs.map_or(Value::Null, |secs| json!({
                    "seconds": secs,
                    "peak_rss_bytes": c.dense_peak_rss,
                })),
                "speedup": c.dense_secs.map_or(Value::Null, |d| json!(d / c.sparse_secs)),
                "top_q_bitwise_identical": c.verified,
            })
        })
        .collect();
    let report = json!({
        "workload": format!(
            "metro-area generator -> daily profiles -> top-{TOP_Q} DTW neighbours \
             (band {BAND}, downsample {DOWNSAMPLE}); sparse = LB_Kim/LB_Keogh-pruned \
             search, dense = all-pairs matrix + per-row sort"
        ),
        "smoke": smoke,
        "threads": stsm_tensor::pool::num_threads(),
        "host_cpus": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "peak_rss_supported": rss_supported,
        "note": "single-CPU container; seconds are indicative, pruning counts are exact and \
                 thread-count independent. Dense route skipped above 5k sensors; where both \
                 run, top-q sets are asserted bitwise identical before this file is written.",
        "cases": case_values,
    });
    if smoke {
        println!("\nsmoke run: BENCH_scale.json left untouched");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).expect("serialize report"))
        .expect("write BENCH_scale.json");
    println!("\nwrote {path}");
}
