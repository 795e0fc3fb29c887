//! Device wear: why cloud FPGAs show weaker pentimenti than new boards.
//!
//! The paper's Experiment 2 observes roughly an order of magnitude less
//! burn-in drift on an AWS F1 device (in service for up to four years)
//! than on a factory-new ZCU102. Transistors that already accumulated
//! threshold-voltage shift respond more weakly to fresh stress. We model
//! this with a saturating power law on the *fresh-stress sensitivity*.

use crate::Hours;

/// Maps a device's total prior service time to a fresh-stress
/// sensitivity factor in `(0, 1]`.
///
/// `factor = (1 + age / h0)^(-gamma)`; a new device has factor 1.0.
///
/// # Example
///
/// ```
/// use bti_physics::{Hours, WearModel};
///
/// let wear = WearModel::default();
/// let four_years = Hours::new(4.0 * 365.0 * 24.0);
/// let f = wear.sensitivity_factor(four_years);
/// assert!(f > 0.05 && f < 0.15, "aged cloud device ~10x weaker, got {f}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearModel {
    /// Characteristic service time, in hours, at which wear becomes
    /// significant.
    pub h0: f64,
    /// Power-law exponent of the sensitivity reduction.
    pub gamma: f64,
}

impl WearModel {
    /// Creates a wear model.
    ///
    /// # Panics
    ///
    /// Panics if `h0` is not positive or `gamma` is negative.
    #[must_use]
    pub fn new(h0: f64, gamma: f64) -> Self {
        assert!(h0 > 0.0, "h0 must be positive");
        assert!(gamma >= 0.0, "gamma must be non-negative");
        Self { h0, gamma }
    }

    /// The sensitivity factor for a device with `age` of prior service.
    ///
    /// Negative ages are clamped to zero (factory-new).
    #[must_use]
    pub fn sensitivity_factor(&self, age: Hours) -> f64 {
        let age = age.value().max(0.0);
        (1.0 + age / self.h0).powf(-self.gamma)
    }
}

impl Default for WearModel {
    /// Calibrated so that a ~4-year-old F1 device responds ≈10× more
    /// weakly than a new part (Experiment 2 vs Experiment 1).
    fn default() -> Self {
        Self::new(2000.0, 0.8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_device_has_full_sensitivity() {
        let w = WearModel::default();
        assert!((w.sensitivity_factor(Hours::ZERO) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn factor_is_monotone_decreasing() {
        let w = WearModel::default();
        let mut prev = 1.1;
        for age in [0.0, 100.0, 1000.0, 10_000.0, 40_000.0] {
            let f = w.sensitivity_factor(Hours::new(age));
            assert!(f < prev);
            assert!(f > 0.0);
            prev = f;
        }
    }

    #[test]
    fn negative_age_clamped() {
        let w = WearModel::default();
        assert_eq!(w.sensitivity_factor(Hours::new(-5.0)), 1.0);
    }

    #[test]
    fn zero_gamma_means_no_wear() {
        let w = WearModel::new(1000.0, 0.0);
        assert_eq!(w.sensitivity_factor(Hours::new(1e6)), 1.0);
    }
}
