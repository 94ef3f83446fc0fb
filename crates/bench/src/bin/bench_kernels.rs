//! Times the pool-parallelized hot-path kernels against their serial paths
//! and writes `BENCH_kernels.json` at the repository root.
//!
//! The serial measurements run under `pool::with_max_threads(1)`, which
//! forces the inline path without touching the environment, so one process
//! measures both sides. Results are bit-identical by the pool's determinism
//! contract; this binary only compares wall-clock. Cases with a known
//! floating-op count also report GFLOP/s so kernel changes can be judged
//! against machine peak, not just against the previous run. The kernels
//! with a body per SIMD level (matmul, bmm, conv, spmm, sigmoid) are timed
//! at every level the host supports, so one run shows what each tier buys
//! and what a host without the top one gets.
//!
//! ```bash
//! cargo run -p stsm-bench --release --bin bench_kernels            # full run
//! cargo run -p stsm-bench --release --bin bench_kernels -- --smoke # CI wiring check
//! ```
//!
//! `--smoke` runs every case once at tiny sizes and does *not* overwrite
//! `BENCH_kernels.json` — it exists so `scripts/check.sh` can prove the
//! bench binary still builds and runs without paying full-size timings.

use serde_json::json;
use std::time::Instant;
use stsm_core::{DistanceMode, ProblemInstance, StsmConfig};
use stsm_graph::normalize_gcn;
use stsm_synth::{presets, space_split, SplitAxis};
use stsm_tensor::simd::{self, SimdLevel};
use stsm_tensor::{bmm, conv1d_ntc, matmul, pool, sigmoid, Tensor};
use stsm_timeseries::dtw_all_pairs;

/// Deterministic pseudo-random fill in [-0.5, 0.5) — no RNG state needed.
fn fill(len: usize, mul: usize, modulo: usize) -> Vec<f32> {
    (0..len).map(|i| ((i * mul) % modulo) as f32 / modulo as f32 - 0.5).collect()
}

/// Best-of-`reps` wall-clock of `f`, in milliseconds.
fn best_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn gflops(flops: Option<f64>, ms: f64) -> Option<f64> {
    flops.map(|fl| fl / (ms * 1e-3) / 1e9)
}

/// One serial-vs-pool case, run at SIMD `level` when one is given. `flops`
/// is the floating-op count of a single call (2·m·k·n for a matmul) when
/// one is meaningful.
fn bench_case(
    name: &str,
    level: Option<SimdLevel>,
    size: &str,
    reps: usize,
    flops: Option<f64>,
    mut f: impl FnMut(),
) -> serde_json::Value {
    let (serial_ms, parallel_ms) = simd::with_level(level.unwrap_or_else(simd::level), || {
        (pool::with_max_threads(1, || best_ms(reps, &mut f)), best_ms(reps, &mut f))
    });
    let speedup = serial_ms / parallel_ms;
    let gf = gflops(flops, parallel_ms);
    let gf_col = gf.map_or(String::from("        -"), |g| format!("{g:>7.2} GF/s"));
    let label = level.map_or(name.to_string(), |l| format!("{name} [{l:?}]"));
    println!(
        "{label:<28} {size:<24} serial {serial_ms:>9.2} ms   pool {parallel_ms:>9.2} ms   speedup {speedup:>5.2}x   {gf_col}"
    );
    json!({
        "name": name,
        "level": level.map(|l| format!("{l:?}")),
        "size": size,
        "serial_ms": serial_ms,
        "parallel_ms": parallel_ms,
        "speedup": speedup,
        "gflops_serial": gflops(flops, serial_ms),
        "gflops_parallel": gf,
    })
}

/// [`bench_case`] once per SIMD level the host supports.
fn bench_levels(
    cases: &mut Vec<serde_json::Value>,
    name: &str,
    size: &str,
    reps: usize,
    flops: Option<f64>,
    mut f: impl FnMut(),
) {
    for lvl in simd::supported_levels() {
        cases.push(bench_case(name, Some(lvl), size, reps, flops, &mut f));
    }
}

/// Two named routes to the same result (no serial/pool split): used for the
/// view-vs-copy window-gather comparison. Reported in the same JSON shape
/// with `speedup = baseline / candidate`.
fn bench_pair(
    name: &str,
    size: &str,
    reps: usize,
    mut baseline: impl FnMut(),
    mut candidate: impl FnMut(),
) -> serde_json::Value {
    let base_ms = best_ms(reps, &mut baseline);
    let cand_ms = best_ms(reps, &mut candidate);
    let speedup = base_ms / cand_ms;
    println!(
        "{name:<28} {size:<24} copy   {base_ms:>9.2} ms   view {cand_ms:>9.2} ms   speedup {speedup:>5.2}x           -"
    );
    json!({
        "name": name,
        "size": size,
        "serial_ms": base_ms,
        "parallel_ms": cand_ms,
        "speedup": speedup,
        "gflops_serial": null,
        "gflops_parallel": null,
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let threads = pool::num_threads();
    println!("SIMD levels timed: {:?}", simd::supported_levels());
    println!("pool threads: {threads} (STSM_NUM_THREADS overrides){}\n", {
        if smoke {
            "   [smoke: tiny sizes, JSON not written]"
        } else {
            ""
        }
    });
    let mut cases = Vec::new();

    // matmul at two sizes, both past the packing threshold.
    let matmul_dims: &[usize] = if smoke { &[64] } else { &[256, 512] };
    for &dim in matmul_dims {
        let a = Tensor::from_vec([dim, dim], fill(dim * dim, 2654435761, 1000003));
        let b = Tensor::from_vec([dim, dim], fill(dim * dim, 40503, 999983));
        let reps = if smoke {
            1
        } else if dim >= 512 {
            3
        } else {
            5
        };
        let flops = 2.0 * (dim * dim * dim) as f64;
        bench_levels(
            &mut cases,
            "matmul",
            &format!("{dim}x{dim}x{dim}"),
            reps,
            Some(flops),
            || {
                matmul(&a, &b);
            },
        );
    }

    // Batched matmul: packing shared across batch entries when possible.
    {
        let (bs, m, k, n) =
            if smoke { (2usize, 24usize, 24usize, 24usize) } else { (16, 96, 96, 96) };
        let a = Tensor::from_vec([bs, m, k], fill(bs * m * k, 97, 999979));
        let b = Tensor::from_vec([bs, k, n], fill(bs * k * n, 89, 999961));
        let flops = 2.0 * (bs * m * k * n) as f64;
        let reps = if smoke { 1 } else { 5 };
        bench_levels(&mut cases, "bmm", &format!("{bs}x{m}x{k}x{n}"), reps, Some(flops), || {
            bmm(&a, &b);
        });
    }

    // The TCN conv as the model runs it, channels-last (N, T, C) with bias:
    // STSM's shape on PEMS-08 (400 nodes, 12 steps, hidden 16, K = 2) and a
    // daily-length sequence (64 series, 288 steps, 32 channels, K = 3).
    let conv_shapes: &[(usize, usize, usize, usize, usize)] = if smoke {
        &[(8, 12, 4, 2, 1), (4, 48, 8, 3, 2)]
    } else {
        &[(400, 12, 16, 2, 1), (64, 288, 32, 3, 2)]
    };
    for &(n, t, c, k, d) in conv_shapes {
        let x = Tensor::from_vec([n, t, c], fill(n * t * c, 31, 999959));
        let w = Tensor::from_vec([c, c, k], fill(c * c * k, 7, 997));
        let b = Tensor::from_vec([c], fill(c, 3, 101));
        let flops = 2.0 * (n * t * k * c * c) as f64;
        let reps = if smoke {
            1
        } else if t > 12 {
            5
        } else {
            50
        };
        bench_levels(
            &mut cases,
            "conv1d_ntc",
            &format!("{n}x{t}x{c}->{c} k{k} d{d}"),
            reps,
            Some(flops),
            || {
                conv1d_ntc(&x, &w, Some(&b), d);
            },
        );
    }

    // A_s propagation: the PEMS-08 preset's normalized spatial adjacency
    // (400 nodes) against a T·H = 192 wide feature matrix.
    {
        let (sensors, feat) = if smoke { (40usize, 24usize) } else { (400, 192) };
        let data = presets::pems_08(sensors, 1, 1).generate();
        let split = space_split(&data.coords, SplitAxis::Vertical, false);
        let problem = ProblemInstance::new(data, split, DistanceMode::Euclidean);
        let cfg = StsmConfig::default().for_dataset("PEMS-08");
        let nodes: Vec<usize> = (0..problem.n()).collect();
        let adj = normalize_gcn(&problem.spatial_adjacency(&nodes, cfg.epsilon_s));
        let x = Tensor::from_vec([sensors, feat], fill(sensors * feat, 53, 999953));
        let flops = 2.0 * (adj.nnz() * feat) as f64;
        let reps = if smoke { 1 } else { 200 };
        let groups = adj.row_groups().groups();
        bench_levels(
            &mut cases,
            "spmm",
            &format!("{sensors}x{sensors} nnz{} f{feat} groups{groups}", adj.nnz()),
            reps,
            Some(flops),
            || {
                adj.matmul_dense(&x);
            },
        );
    }

    // The gated GCN's sigmoid over one PEMS-08 window: N·T·H = 400×12×16.
    {
        let (n, t, h) = if smoke { (40usize, 12usize, 16usize) } else { (400, 12, 16) };
        let x = Tensor::from_vec(
            [n, t, h],
            fill(n * t * h, 2654435761, 1000003).iter().map(|v| 16.0 * v).collect(),
        );
        let reps = if smoke { 1 } else { 500 };
        bench_levels(&mut cases, "sigmoid", &format!("{n}x{t}x{h}"), reps, None, || {
            sigmoid(&x);
        });
    }

    // All-pairs DTW at the paper's daily-profile scale (band 16), pair-chunk
    // dispatch.
    let dtw_sizes: &[usize] = if smoke { &[20] } else { &[100, 200] };
    for &n_series in dtw_sizes {
        let steps = if smoke { 48usize } else { 288 };
        let series: Vec<Vec<f32>> = (0..n_series)
            .map(|s| {
                (0..steps)
                    .map(|i| ((i * (s + 3)) as f32 * 0.021).sin() + (s as f32 * 0.013).cos())
                    .collect()
            })
            .collect();
        let reps = if smoke {
            1
        } else if n_series >= 200 {
            2
        } else {
            3
        };
        cases.push(bench_case(
            "dtw_all_pairs",
            None,
            &format!("{n_series}x{steps} band16"),
            reps,
            None,
            || {
                dtw_all_pairs(&series, 16);
            },
        ));
    }

    // Trainer-style window gathers: materialize every window as a fresh
    // tensor (old route) vs stream a stride-aware view into one reused
    // buffer (new route). Same bytes either way.
    {
        let (rows, t_total, t_in) =
            if smoke { (16usize, 96usize, 12usize) } else { (200, 2016, 24) };
        let mat = Tensor::from_vec([rows, t_total], fill(rows * t_total, 53, 999953));
        let starts: Vec<usize> = (0..(t_total - t_in)).step_by(3).collect();
        let reps = if smoke { 1 } else { 5 };
        let copy_route = || {
            for &s in &starts {
                std::hint::black_box(mat.view().slice(1, s, s + t_in).to_tensor());
            }
        };
        let mut buf: Vec<f32> = Vec::with_capacity(rows * t_in);
        let view_route = || {
            for &s in &starts {
                buf.clear();
                let w = mat.view().slice(1, s, s + t_in);
                for r in 0..rows {
                    w.index(0, r).extend_into(&mut buf);
                }
                std::hint::black_box(&buf);
            }
        };
        cases.push(bench_pair(
            "gather_view_vs_copy",
            &format!("{rows}x{t_in} of T{t_total}"),
            reps,
            copy_route,
            view_route,
        ));
    }

    if smoke {
        println!("\nsmoke run complete (BENCH_kernels.json left untouched)");
        return;
    }

    let report = json!({
        "threads": threads,
        "host_cpus": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "simd_level": format!("{:?}", simd::level()),
        "note": "serial = pool::with_max_threads(1); results bit-identical, only wall-clock differs; gflops from 2mkn-style op counts",
        "cases": cases,
    });
    // crates/bench -> repo root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).expect("serialize report"))
        .expect("write BENCH_kernels.json");
    println!("\nwrote {path}");
}
