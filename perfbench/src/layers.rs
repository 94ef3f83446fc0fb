//! Per-layer metrics of the traced run.
//!
//! Two sources: probes that call one layer's public functions at the
//! workload's shapes and time them, and totals of the program's existing
//! telemetry spans and counters over the timed ops. [`CATALOG`] names every
//! metric and its unit; a layer a workload does not reach reads 0.

use crate::stats::{median, slice_rates};
use crate::throughput;
use crate::trace::Tracer;
use crate::workload::{Outcome, ProbeCtx, Workload};
use std::time::Instant;
use stsm_core::{DtwContext, MaskingContext, Predictor};
use stsm_graph::normalize_gcn;
use stsm_tensor::telemetry::TelemetryReport;
use stsm_tensor::{addmm, conv1d_dilated, DType, Tape, Tensor};

/// Every per-layer metric, with its unit, in output order.
pub const CATALOG: &[(&str, &str)] = &[
    ("run.latency_ms_p50", "ms"),
    ("run.throughput_per_s_p50", "1/s"),
    ("synth.generate_s", "s"),
    ("core.problem_s", "s"),
    ("core.masking_context_s", "s"),
    ("core.predictor_new_s", "s"),
    ("core.fit_s", "s"),
    ("core.train_forward_s", "s"),
    ("core.train_backward_s", "s"),
    ("core.train_step_s", "s"),
    ("core.predict_window_ms_p50", "ms"),
    ("core.predict_window_ms_p99", "ms"),
    ("core.predict_window_samples", "count"),
    ("core.imputed_share", "ratio"),
    ("core.unattributed_share", "ratio"),
    ("timeseries.dtw_context_s", "s"),
    ("timeseries.dtw_full_calls", "count"),
    ("timeseries.dtw_pruned_share", "ratio"),
    ("graph.spmm_us", "us"),
    ("tensor.conv1d_us", "us"),
    ("tensor.conv1d_bwd_us", "us"),
    ("tensor.addmm_us", "us"),
    ("tensor.conv_share", "ratio"),
    ("tensor.gemm_share", "ratio"),
    ("tensor.alloc_fresh_per_op", "count"),
    ("tensor.alloc_reuse_ratio", "ratio"),
    ("tensor.pool_parallel_share", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.handoff_ms_p50", "ms"),
    ("serve.ingest_us_p50", "us"),
    ("serve.latency_ms_p99", "ms"),
    ("serve.latency_samples", "count"),
    ("serve.breaker_trips", "count"),
    ("serve.rejected", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Repetitions of each set-up-scale probe (a context or predictor build).
const BUILD_REPS: usize = 3;
/// Minimum repetitions and minimum time of each kernel probe.
const KERNEL_REPS: usize = 30;
const KERNEL_MIN_S: f64 = 0.2;

/// Telemetry spans whose time counts as attributed, per workload: the
/// trainer's phase spans for a fit, the kernel spans for a forecast.
const TRAIN_SPANS: &[&str] =
    &["train.gather", "train.forward", "train.backward", "train.step", "dtw.top_q"];
const KERNEL_SPANS: &[&str] = &[
    "kernel.conv1d",
    "kernel.conv1d_bwd",
    "kernel.matmul",
    "kernel.bmm",
    "kernel.addmm",
    "kernel.softmax",
    "kernel.log_softmax",
];

fn span_s(t: &TelemetryReport, name: &str) -> f64 {
    t.spans.get(name).map_or(0.0, |s| s.total_nanos as f64 * 1e-9)
}

fn counter(t: &TelemetryReport, name: &str) -> f64 {
    t.counters.get(name).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Seconds one call of `f` takes.
fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let s = Instant::now();
    std::hint::black_box(f());
    s.elapsed().as_secs_f64()
}

/// Median seconds of `reps` calls of `f`.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f)).collect();
    median(&times)
}

/// Median microseconds of a kernel call, over at least [`KERNEL_REPS`]
/// calls and [`KERNEL_MIN_S`] seconds.
fn kernel_us(mut f: impl FnMut() -> f64) -> f64 {
    let mut times = Vec::new();
    let t0 = Instant::now();
    while times.len() < KERNEL_REPS || t0.elapsed().as_secs_f64() < KERNEL_MIN_S {
        times.push(f());
    }
    median(&times) * 1e6
}

/// A deterministic tensor with entries in `[-1, 1)`.
fn filled(shape: &[usize], salt: u64) -> Tensor {
    let n: usize = shape.iter().product();
    let mut z = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
    let data = (0..n)
        .map(|_| {
            z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((z >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect();
    Tensor::from_vec(shape.to_vec(), data)
}

/// Times each layer's public functions on the workload's problem and at
/// the shapes its model forward uses: `nodes` × window × hidden width.
fn probe(ctx: &ProbeCtx) -> Vec<(&'static str, f64)> {
    let (p, cfg) = (&*ctx.problem, &ctx.cfg);
    let masking_s = time_median(BUILD_REPS, || {
        MaskingContext::new(p, cfg.epsilon_sg, cfg.mask_ratio, cfg.top_k)
    });
    let build_dtw = || {
        DtwContext::with_options(
            p,
            cfg.dtw_band,
            cfg.dtw_downsample,
            cfg.dtw_candidates,
            cfg.q_kk.max(cfg.q_ku),
        )
    };
    let dtw_s = time_median(BUILD_REPS, build_dtw);
    let prune = build_dtw().prune_stats();
    let predictor_s =
        time_median(BUILD_REPS, || Predictor::new_with_dtype(&ctx.model, p, DType::F32));

    let (n, h, t) = (ctx.nodes.len(), cfg.hidden, cfg.t_in);
    let adj = normalize_gcn(&p.spatial_adjacency(&ctx.nodes, cfg.epsilon_s));
    let feats = filled(&[n, t * h], 1);
    let spmm = kernel_us(|| timed(|| adj.matmul_dense(&feats)));
    let x = filled(&[n, h, t], 2);
    let w = filled(&[h, h, 2], 3);
    let b = filled(&[h], 4);
    let conv = kernel_us(|| timed(|| conv1d_dilated(&x, &w, Some(&b), 1)));
    let conv_bwd = kernel_us(|| {
        let tape = Tape::new();
        let (xv, wv, bv) = (tape.leaf(x.clone()), tape.leaf(w.clone()), tape.leaf(b.clone()));
        let y = tape.conv1d(xv, wv, Some(bv), 1);
        let loss = tape.sum_all(y);
        timed(|| tape.backward(loss))
    });
    let rows = filled(&[n * t, h], 5);
    let wl = filled(&[h, h], 6);
    let gemm = kernel_us(|| timed(|| addmm(&rows, &wl, &b)));
    let examined = (prune.lb_kim_pruned + prune.lb_keogh_pruned + prune.full_dtw) as f64;
    vec![
        ("core.masking_context_s", masking_s),
        ("core.predictor_new_s", predictor_s),
        ("timeseries.dtw_context_s", dtw_s),
        ("timeseries.dtw_full_calls", prune.full_dtw as f64),
        ("timeseries.dtw_pruned_share", ratio(examined - prune.full_dtw as f64, examined)),
        ("graph.spmm_us", spmm),
        ("tensor.conv1d_us", conv),
        ("tensor.conv1d_bwd_us", conv_bwd),
        ("tensor.addmm_us", gemm),
    ]
}

/// All per-layer metrics of a traced run: `base` is the untraced pass,
/// `traced` the traced one.
pub fn derive(
    workload: Workload,
    base: &Outcome,
    traced: &Outcome,
    tracer: &Tracer,
) -> Vec<(&'static str, f64, &'static str)> {
    let tel = &traced.telemetry;
    let ops = traced.attempted as f64;
    let busy = traced.busy_s;
    let attributed_spans =
        if workload == Workload::TrainPemsbay { TRAIN_SPANS } else { KERNEL_SPANS };
    let attributed: f64 = attributed_spans.iter().map(|s| span_s(tel, s)).sum();
    let (fresh, reused) = (counter(tel, "alloc.fresh"), counter(tel, "alloc.reused"));
    let (inline, parallel) =
        (counter(tel, "pool.region.inline"), counter(tel, "pool.region.parallel"));
    let base_rates = slice_rates(&base.done_s, base.work_per_op, base.ops_per_slice);
    let mut values: Vec<(&'static str, f64)> = vec![
        ("run.latency_ms_p50", median(&base.latency_s) * 1e3),
        ("run.throughput_per_s_p50", median(&base_rates)),
        ("synth.generate_s", median(&tracer.durations("synth.generate"))),
        ("core.problem_s", median(&tracer.durations("core.problem"))),
        ("core.fit_s", median(&tracer.durations("core.fit"))),
        ("core.train_forward_s", ratio(span_s(tel, "train.forward"), ops)),
        ("core.train_backward_s", ratio(span_s(tel, "train.backward"), ops)),
        ("core.train_step_s", ratio(span_s(tel, "train.step"), ops)),
        ("core.unattributed_share", (1.0 - ratio(attributed, busy)).clamp(0.0, 1.0)),
        (
            "tensor.conv_share",
            ratio(span_s(tel, "kernel.conv1d") + span_s(tel, "kernel.conv1d_bwd"), busy),
        ),
        (
            "tensor.gemm_share",
            ratio(
                span_s(tel, "kernel.matmul")
                    + span_s(tel, "kernel.bmm")
                    + span_s(tel, "kernel.addmm"),
                busy,
            ),
        ),
        ("tensor.alloc_fresh_per_op", ratio(fresh, ops)),
        ("tensor.alloc_reuse_ratio", ratio(reused, fresh + reused)),
        ("tensor.pool_parallel_share", ratio(parallel, inline + parallel)),
        ("trace.overhead_share", 1.0 - ratio(throughput(traced), throughput(base))),
    ];
    values.extend(probe(&traced.probe));
    values.extend(traced.layer.iter().copied());
    CATALOG
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            (name, v, unit)
        })
        .collect()
}
