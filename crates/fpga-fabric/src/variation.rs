//! Per-device process variation.
//!
//! No two dies are identical: every wire segment and carry element carries
//! a small static delay offset fixed at manufacturing time. The TDC's
//! ten-trace θ-sweep averaging exists precisely to suppress this kind of
//! architectural irregularity, so the fabric must model it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic per-element delay-variation generator.
///
/// Variation factors are reproducible functions of `(device_seed, element
/// index)`, so the same device always exhibits the same silicon, while
/// different devices differ — which is what lets the cloud crate model
/// device fingerprinting.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationModel {
    device_seed: u64,
    /// Relative standard deviation of element delays (e.g. 0.03 = 3 %).
    sigma: f64,
}

impl VariationModel {
    /// Creates a variation model for one physical device.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    #[must_use]
    pub fn new(device_seed: u64, sigma: f64) -> Self {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be finite and non-negative"
        );
        Self { device_seed, sigma }
    }

    /// The multiplicative delay factor for element `index`, always
    /// positive, with mean ≈ 1 and relative spread `sigma`.
    #[must_use]
    pub fn factor(&self, index: u64) -> f64 {
        let mut rng =
            StdRng::seed_from_u64(self.device_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Sum of uniforms approximates a Gaussian (Irwin–Hall, n = 12).
        let gaussian: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
        (1.0 + self.sigma * gaussian).max(0.5)
    }

    /// The configured relative standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The device seed (the silicon identity).
    #[must_use]
    pub fn device_seed(&self) -> u64 {
        self.device_seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_are_deterministic_per_device() {
        let v = VariationModel::new(99, 0.03);
        assert_eq!(v.factor(7), v.factor(7));
        let w = VariationModel::new(99, 0.03);
        assert_eq!(v.factor(7), w.factor(7));
    }

    #[test]
    fn different_devices_differ() {
        let a = VariationModel::new(1, 0.03);
        let b = VariationModel::new(2, 0.03);
        let differs = (0..32).any(|i| (a.factor(i) - b.factor(i)).abs() > 1e-12);
        assert!(differs);
    }

    #[test]
    fn spread_is_about_sigma() {
        let v = VariationModel::new(5, 0.05);
        let n = 4000;
        let factors: Vec<f64> = (0..n).map(|i| v.factor(i)).collect();
        let mean = factors.iter().sum::<f64>() / n as f64;
        let var = factors.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean = {mean}");
        assert!((var.sqrt() - 0.05).abs() < 0.01, "sd = {}", var.sqrt());
    }

    #[test]
    fn zero_sigma_is_exactly_one() {
        let v = VariationModel::new(5, 0.0);
        for i in 0..16 {
            assert_eq!(v.factor(i), 1.0);
        }
    }

    #[test]
    fn factors_never_collapse_to_zero() {
        let v = VariationModel::new(5, 0.5);
        for i in 0..256 {
            assert!(v.factor(i) >= 0.5);
        }
    }
}
