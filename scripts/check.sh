#!/usr/bin/env bash
# Local gate: build, tests, and lints. Run from anywhere in the repo.
#
#   scripts/check.sh              full gate (everything below)
#   CHECK_FAST=1 scripts/check.sh equivalence tier only: the named bitwise /
#                                 equivalence suites, skipping the full
#                                 workspace test run, bench smokes and lints
set -euo pipefail
cd "$(dirname "$0")/.."

fast="${CHECK_FAST:-0}"

if [[ "$fast" != "1" ]]; then
  cargo fmt --check
  cargo build --release
  cargo test --workspace -q
fi
# The fused-kernel contract (fused addmm / GRU gates bitwise equal to the
# composed ops, training bitwise equal across thread counts), exercised
# explicitly so a test filter can never silently skip it.
cargo test -q -p stsm-tensor --test fused_equivalence
cargo test -q -p stsm-core --test pool_equivalence
# The Train/Infer execution-mode bit-identity contract (DESIGN.md,
# "Execution modes"), likewise pinned by name.
cargo test -q -p stsm-tensor --test infer_equivalence
cargo test -q -p stsm-core --test infer_equivalence
# Fault-tolerance contracts (DESIGN.md, "Fault tolerance"): kill-and-resume
# bit-identity, checkpoint rejection, guard survival under injected faults,
# degraded-input sanitization — pinned by name.
cargo test -q -p stsm-synth --test fault_injection
cargo test -q -p stsm-core --test resilience
# The STSM_TELEMETRY zero-overhead contract (DESIGN.md, "Telemetry"):
# telemetry on/off bit-identity at the kernel level and over a full
# train + evaluate, plus guard-counter agreement with TrainReport.
cargo test -q -p stsm-tensor --test telemetry_overhead
cargo test -q -p stsm-core --test telemetry_equivalence
# Closed-form metric values, banded-DTW exactness/monotonicity, and the
# baseline trainers' learn-and-determinism smoke tests.
cargo test -q -p stsm-timeseries --test metrics_closed_form
cargo test -q -p stsm-timeseries --test dtw_band_properties
# The pruned sparse top-q contract (DESIGN.md, "Scaling"): LB_Kim/LB_Keogh
# admissibility against the banded kernel, and bitwise top-q equality with
# the dense all-pairs ranking at ~200 nodes — pinned by name.
cargo test -q -p stsm-timeseries --test dtw_prune_properties
cargo test -q -p stsm-baselines --test baseline_training
# The blocked-SIMD kernel contract (DESIGN.md, "Kernel architecture"):
# packed-vs-naive tolerance on odd shapes, bitwise thread-count and
# run-to-run determinism, view-route equality — at every SIMD level the
# host supports (the suite forces Scalar internally; STSM_SIMD=off is the
# process-wide switch). Pinned by name, plus a bench-binary wiring smoke.
# Also the conv-as-GEMM contract (the channels-last core within 1e-5 of the
# scalar conv loop, 1-vs-3-thread and half-upcast bit-identity) and the
# spmm contract (bitwise equal across SIMD levels, to the plain row loop and
# across thread counts, NaN through explicit zeros; on matrices that form
# multi-row groups a NaN stays in the rows that store its column), and the
# polynomial sigmoid contract (scalar == AVX2 bitwise over a bit-pattern
# sweep, exp within 1 ulp and sigmoid within 3 ulp of f64, every caller on
# the one kernel).
cargo test -q -p stsm-tensor --test kernel_tiling_equivalence
cargo test -q -p stsm-tensor --test conv_equivalence
cargo test -q -p stsm-graph --test graph_properties
cargo test -q -p stsm-tensor --test sigmoid_kernel
# The precision/quantization contract (DESIGN.md, "Precision &
# quantization"): exhaustive f16/bf16 round-trip + RNE rounding +
# scalar-vs-F16C bitwise equivalence, and quantize→save→load→predict
# bitwise stability with the RMSE accuracy ε-gate — pinned by name.
cargo test -q -p stsm-tensor --test dtype_convert
cargo test -q -p stsm-core --test quantized_equivalence
# The serving contracts (DESIGN.md, "Serving"): every request terminates in
# a forecast or a typed rejection under injected chaos (NaN bursts,
# blackouts, worker panics, overload, hot-swap under load), post-chaos
# bitwise recovery, telemetry-gate invisibility, quantized<->f32 hot-swap
# compatibility, fingerprint-mismatch rejection, and the online-refresh
# hot-swap — pinned by name.
# `cargo clippy --workspace --all-targets` below covers the stsm-serve crate
# too.
cargo test -q -p stsm-serve --test serve_chaos
cargo test -q -p stsm-serve --test serve_equivalence
# The online-adaptation contracts (DESIGN.md, "Online adaptation"): rolling
# DTW frontier/row bitwise identity with the batch search under grown
# series and churn, churn-renormalized pseudo-weights vs a fresh survivor
# fit, one fine-tune epoch vs the batch-resumed epoch, and the scenario
# matrix ({growth, churn, regime shift} × {STSM, baseline}) with finite,
# bit-deterministic accuracy curves and post-churn recovery — pinned by
# name.
cargo test -q -p stsm-timeseries --test rolling_properties
cargo test -q -p stsm-core --test online_equivalence
cargo test -q --test scenario_matrix

if [[ "$fast" == "1" ]]; then
  echo "CHECK_FAST=1: equivalence tier green (full build/test, bench smokes and lints skipped)"
  exit 0
fi

cargo run -q -p stsm-bench --release --bin bench_kernels -- --smoke
# Bench-binary wiring smokes: infer asserts its Train/Infer and telemetry
# on/off bitwise contracts in-process (and the per-dtype f32/f16/bf16
# serving pass with its f32-row bitwise assert);
# scale asserts pruned-vs-dense top-q identity on a small metro layout;
# online asserts rolling-vs-refit row identity after every appended window.
# Smoke runs never rewrite the BENCH_*.json artefacts.
cargo run -q -p stsm-bench --release --bin bench_infer -- --smoke
cargo run -q -p stsm-bench --release --bin bench_scale -- --smoke
# Serving load-generator wiring: telemetry on/off forecast bits asserted
# identical in-process; smoke never rewrites BENCH_serve.json.
cargo run -q -p stsm-bench --release --bin bench_serve -- --smoke
cargo run -q -p stsm-bench --release --bin bench_online -- --smoke
cargo clippy --workspace --all-targets -q -- -D warnings
