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
# The fused-kernel contract (fused addmm / GRU gates / gated GCN node bitwise
# equal to the composed ops in forward and backward, training bitwise equal
# across thread counts), exercised explicitly so a test filter can never
# silently skip it. The model-level gated-GCN oracle (a full STSM batch
# against StModel::forward_reference) runs in stsm-core's infer_equivalence
# below.
cargo test -q -p stsm-tensor --test fused_equivalence
cargo test -q -p stsm-core --test pool_equivalence
# The pool-admission contract: repeated fits and fine-tune epochs leave the
# buffer pool's per-class occupancy unchanged (no per-fit growth).
cargo test -q -p stsm-core --test pool_steady
# The Train/Infer execution modes (DESIGN.md, "Execution modes") run the one
# Tape op set, so their bit-identity holds by construction; these suites
# guard it against regressions, likewise pinned by name.
cargo test -q -p stsm-tensor --test infer_equivalence
cargo test -q -p stsm-core --test infer_equivalence
# The readout pass (contrastive full view) bitwise equal to the full forward's
# graph_repr. A filter that matches nothing still exits 0, so the name must
# match exactly and be the one test that ran.
readout="$(cargo test -q -p stsm-core --test infer_equivalence \
  readout_pass_stsm_batch_bitwise_matches_full_forward -- --exact)"
echo "$readout"
grep -q "test result: ok. 1 passed" <<<"$readout" \
  || { echo "readout_pass_stsm_batch_bitwise_matches_full_forward did not run exactly once" >&2; exit 1; }
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
# The lane-parallel DTW contract (DESIGN.md, "Lane-parallel scoring"): the
# 16-lane kernel bitwise equal to the scalar recurrence at every supported
# SIMD level (NaN/∞ and unequal-length slots on the scalar route), and
# top-q rows, distances and pruning counters identical across levels and
# thread counts — pinned by name.
cargo test -q -p stsm-timeseries --test dtw_lanes_equivalence
cargo test -q -p stsm-baselines --test baseline_training
# The blocked-SIMD kernel contract (DESIGN.md, "Kernel architecture"):
# the one packed path within 1e-5 of the i-k-j oracle on odd shapes, large
# and tiny, NaN through zeros at every size, bitwise thread-count and
# run-to-run determinism, view-route equality, AVX-512 == AVX2 bitwise — at
# every SIMD level the host supports (the suites force each level
# internally; STSM_SIMD=off is the process-wide switch). The first suite
# prints those levels, so this log says which bodies ran. Pinned by name,
# plus a bench-binary wiring smoke.
# Also the conv-as-GEMM contract (the channels-last core within 1e-5 of the
# scalar conv loop, 1-vs-3-thread and half-upcast bit-identity) and the
# spmm contract (bitwise equal across every supported SIMD level, to the
# plain row loop and across thread counts, NaN through explicit zeros; on
# matrices that form multi-row groups a NaN stays in the rows that store
# its column), and the polynomial sigmoid contract (every supported level
# bitwise equal to scalar over a bit-pattern sweep, exp within 1 ulp and
# sigmoid within 3 ulp of f64, every caller on the one kernel).
cargo test -q -p stsm-tensor --test kernel_tiling_equivalence -- --nocapture
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
# fit, one fine-tune epoch vs the batch-resumed epoch (both run the one
# shared epoch body, so this checks the replay slice and the checkpoint
# hand-off), and the scenario
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
cargo run -q -p stsm-bench --release --bin bench_online -- --smoke
# The paper's evaluation harness: every registered experiment in one process
# at smoke scale (seconds). Smoke must leave results/ and EXPERIMENTS.md
# untouched, and an unknown experiment id must exit 2.
recorded="$(cat EXPERIMENTS.md results/*.json | cksum)"
STSM_SCALE=smoke cargo run -q -p stsm-bench --release --bin repro
[[ "$(cat EXPERIMENTS.md results/*.json | cksum)" == "$recorded" ]] \
  || { echo "repro at smoke scale rewrote results/ or EXPERIMENTS.md" >&2; exit 1; }
status=0
STSM_SCALE=smoke cargo run -q -p stsm-bench --release --bin repro -- no-such-id 2>/dev/null \
  || status=$?
[[ "$status" == 2 ]] || { echo "repro no-such-id exited $status, expected 2" >&2; exit 1; }
cargo clippy --workspace --all-targets -q -- -D warnings
# The subtraction measure: Rust lines in the source trees (print only).
# A file walk, so a plain copy without git history counts the same lines.
echo "rust lines (crates/ src/ tests/ offline/): $(find crates src tests offline -name '*.rs' -type f -print0 | xargs -0 cat | wc -l)"
