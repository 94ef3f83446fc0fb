//! Tiling/packing equivalence contract for the blocked SIMD matmul path
//! (DESIGN.md, "Kernel architecture"), pinned by name in `scripts/check.sh`:
//!
//! * the packed blocked kernel — the one path every product takes — agrees
//!   with the i-k-j test oracle `matmul_raw` within 1e-5 relative tolerance
//!   on shapes that are not multiples of the tile sizes, large and tiny, at
//!   every SIMD level the host can run;
//! * every product is bitwise deterministic across thread counts and across
//!   repeated runs at a fixed SIMD level;
//! * transpose-view routes (`matmul_nt`/`matmul_tn`/`bmm_nt`/`bmm_tn`) are
//!   bitwise identical to their materialized-transpose counterparts;
//! * non-finite values in `b` propagate through zeros in `a` at every size
//!   (no product skips a term).

use stsm_tensor::simd::{self, SimdLevel};
use stsm_tensor::{bmm, bmm_nt, bmm_tn, matmul, matmul_nt, matmul_raw, matmul_tn, pool, Tensor};

/// SplitMix64-based deterministic fill in roughly [-1, 1] — no external RNG
/// so the suite's inputs are stable across toolchains.
fn pseudo_random(n: usize, seed: u64) -> Vec<f32> {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            (x >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
        })
        .collect()
}

fn tensor(dims: [usize; 2], seed: u64) -> Tensor {
    Tensor::from_vec(dims, pseudo_random(dims[0] * dims[1], seed))
}

fn tensor3(dims: [usize; 3], seed: u64) -> Tensor {
    Tensor::from_vec(dims, pseudo_random(dims[0] * dims[1] * dims[2], seed))
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-5 * w.abs().max(1.0);
        assert!((g - w).abs() <= tol, "{what}: element {i} differs: {g} vs {w}");
    }
}

/// Odd shapes (no dimension a multiple of the 8×16 tile), from past 2^15
/// multiply-adds down to tiny ones.
const SHAPES: [(usize, usize, usize); 6] =
    [(33, 37, 41), (65, 9, 129), (129, 17, 31), (8, 513, 9), (3, 5, 7), (20, 1, 33)];

#[test]
fn packed_matches_naive_reference_on_odd_shapes_at_every_level() {
    for lvl in simd::supported_levels() {
        simd::with_level(lvl, || {
            for (m, k, n) in SHAPES {
                let a = tensor([m, k], 1 + m as u64);
                let b = tensor([k, n], 2 + n as u64);
                let reference = matmul_raw(a.data(), b.data(), m, k, n);
                let got = matmul(&a, &b);
                assert_close(got.data(), &reference, &format!("{m}x{k}x{n} @ {lvl:?}"));
            }
        });
    }
}

#[test]
fn matmul_bitwise_deterministic_across_thread_counts_and_runs() {
    for lvl in simd::supported_levels() {
        simd::with_level(lvl, || {
            let a = tensor([161, 93], 7);
            let b = tensor([93, 117], 8);
            let reference = pool::with_max_threads(1, || matmul(&a, &b));
            for cap in [2, 3, 7] {
                let got = pool::with_max_threads(cap, || matmul(&a, &b));
                assert_eq!(reference, got, "matmul differs at cap {cap} ({lvl:?})");
            }
            // Run-to-run on the default pool.
            assert_eq!(matmul(&a, &b), matmul(&a, &b), "matmul not reproducible ({lvl:?})");
        });
    }
}

#[test]
fn bmm_bitwise_deterministic_across_thread_counts() {
    for lvl in simd::supported_levels() {
        simd::with_level(lvl, || {
            let a = tensor3([6, 33, 29], 11);
            let b = tensor3([6, 29, 35], 12);
            let reference = pool::with_max_threads(1, || bmm(&a, &b));
            for cap in [2, 5] {
                let got = pool::with_max_threads(cap, || bmm(&a, &b));
                assert_eq!(reference, got, "bmm differs at cap {cap} ({lvl:?})");
            }
        });
    }
}

#[test]
fn view_routes_bitwise_match_materialized_transposes() {
    for lvl in simd::supported_levels() {
        simd::with_level(lvl, || {
            // One product past 2^15 multiply-adds, one tiny.
            for (m, k, n) in [(33, 37, 41), (5, 6, 7)] {
                let a = tensor([m, k], 21);
                let bt = tensor([n, k], 22); // (n, k): b = btᵀ
                let at = tensor([k, m], 23); // (k, m): a2 = atᵀ
                let b2 = tensor([k, n], 24);
                assert_eq!(
                    matmul_nt(&a, &bt),
                    matmul(&a, &bt.t()),
                    "matmul_nt {m}x{k}x{n} ({lvl:?})"
                );
                assert_eq!(
                    matmul_tn(&at, &b2),
                    matmul(&at.t(), &b2),
                    "matmul_tn {m}x{k}x{n} ({lvl:?})"
                );
            }
            let q = tensor3([4, 18, 22], 31);
            let kk = tensor3([4, 26, 22], 32);
            assert_eq!(bmm_nt(&q, &kk), bmm(&q, &kk.permute(&[0, 2, 1])), "bmm_nt ({lvl:?})");
            let g = tensor3([4, 18, 26], 33);
            assert_eq!(bmm_tn(&q, &g), bmm(&q.permute(&[0, 2, 1]), &g), "bmm_tn ({lvl:?})");
        });
    }
}

#[test]
fn non_finite_b_propagates_through_packed_path() {
    // Zeros in `a` must not swallow a NaN in `b` at any size: m·k·n past
    // 2^15 multiply-adds, and a tiny product far below it.
    for lvl in simd::supported_levels() {
        simd::with_level(lvl, || {
            for (m, k, n) in [(33, 37, 41), (2, 3, 4)] {
                let a = Tensor::zeros([m, k]);
                let mut bv = pseudo_random(k * n, 5);
                bv[n - 1] = f32::NAN;
                let b = Tensor::from_vec([k, n], bv);
                let out = matmul(&a, &b);
                assert!(
                    out.data().chunks_exact(n).all(|row| row[n - 1].is_nan()),
                    "NaN swallowed at {m}x{k}x{n} ({lvl:?})"
                );
            }
        });
    }
}

#[test]
fn vector_levels_are_bitwise_equal() {
    // Every vector tile accumulates one FMA per k from 0.0 in ascending
    // order, whatever its lane width, so the vector levels agree bit for
    // bit on every route: plain, transposed-view and batched.
    let vector: Vec<SimdLevel> =
        simd::supported_levels().into_iter().filter(|&l| l != SimdLevel::Scalar).collect();
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    for (m, k, n) in SHAPES {
        let a = tensor([m, k], 51 + m as u64);
        let b = tensor([k, n], 52 + n as u64);
        let bt = tensor([n, k], 53 + k as u64);
        let at = tensor([k, m], 54 + k as u64);
        let run = |lvl| {
            simd::with_level(lvl, || {
                [matmul(&a, &b), matmul_nt(&a, &bt), matmul_tn(&at, &b)].map(|t| bits(&t))
            })
        };
        for &lvl in vector.iter().skip(1) {
            assert_eq!(run(lvl), run(vector[0]), "{m}x{k}x{n}: {lvl:?} vs {:?}", vector[0]);
        }
    }
    let (q, kk) = (tensor3([4, 18, 22], 55), tensor3([4, 22, 35], 56));
    for &lvl in vector.iter().skip(1) {
        let got = simd::with_level(lvl, || bmm(&q, &kk));
        let want = simd::with_level(vector[0], || bmm(&q, &kk));
        assert_eq!(bits(&got), bits(&want), "bmm: {lvl:?} vs {:?}", vector[0]);
    }
}

/// Names the levels every suite here compares; `scripts/check.sh` runs
/// this file with `--nocapture`, so a green log says which bodies ran.
#[test]
fn supported_levels_start_at_scalar() {
    let levels = simd::supported_levels();
    println!("SIMD levels compared on this host: {levels:?}");
    assert_eq!(levels[0], SimdLevel::Scalar);
}

#[test]
fn scalar_and_simd_levels_agree_within_tolerance() {
    let a = tensor([47, 65], 41);
    let b = tensor([65, 53], 42);
    let scalar = simd::with_level(SimdLevel::Scalar, || matmul(&a, &b));
    let native = simd::with_level(simd::level(), || matmul(&a, &b));
    assert_close(native.data(), scalar.data(), "scalar vs native level");
}
