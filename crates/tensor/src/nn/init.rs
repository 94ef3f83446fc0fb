//! Weight initializers. `rand` 0.10 ships no Normal distribution, so
//! Gaussian samples come from the Box–Muller transform.

use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::{Rng, RngExt};

/// Uniform samples in `[lo, hi)`.
pub fn uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
    let shape = shape.into();
    let n = shape.numel();
    let mut data = crate::alloc::buf_with_capacity(n);
    data.extend((0..n).map(|_| lo + (hi - lo) * rng.random::<f32>()));
    Tensor::from_vec(shape, data)
}

/// Standard-normal samples scaled by `std`, via Box–Muller.
pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut impl Rng) -> Tensor {
    let shape = shape.into();
    let n = shape.numel();
    let mut data = crate::alloc::buf_with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.random::<f32>().max(1e-12);
        let u2: f32 = rng.random::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(std * r * theta.cos());
        if data.len() < n {
            data.push(std * r * theta.sin());
        }
    }
    Tensor::from_vec(shape, data)
}

/// Glorot/Xavier uniform init for a weight with `fan_in` inputs and
/// `fan_out` outputs.
pub fn glorot_uniform(
    shape: impl Into<Shape>,
    fan_in: usize,
    fan_out: usize,
    rng: &mut impl Rng,
) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(shape, -limit, limit, rng)
}

/// He/Kaiming uniform init (ReLU-friendly) for a weight with `fan_in` inputs.
pub fn he_uniform(shape: impl Into<Shape>, fan_in: usize, rng: &mut impl Rng) -> Tensor {
    let limit = (6.0 / fan_in as f32).sqrt();
    uniform(shape, -limit, limit, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = uniform([1000], -0.5, 0.5, &mut rng);
        assert!(t.max_value() < 0.5);
        assert!(t.min_value() >= -0.5);
        assert!(t.mean().abs() < 0.05);
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = randn([10_000], 2.0, &mut rng);
        assert!(t.mean().abs() < 0.1, "mean {}", t.mean());
        let var = t.data().iter().map(|&x| x * x).sum::<f32>() / 10_000.0;
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn glorot_limit_depends_on_fans() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = glorot_uniform([100, 100], 100, 100, &mut rng);
        let limit = (6.0f32 / 200.0).sqrt();
        assert!(t.max_value() <= limit);
        assert!(t.min_value() >= -limit);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(randn([16], 1.0, &mut a), randn([16], 1.0, &mut b));
    }
}
