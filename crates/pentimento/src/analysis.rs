//! Statistical analysis: kernel regression and least squares.
//!
//! The paper smooths every time series in Figures 6–8 with the kernel
//! regression from Python's `statsmodels` ("continuous mode with a local
//! linear estimator"). [`KernelRegression`] reimplements both the
//! Nadaraya–Watson and the local-linear estimator with a Gaussian kernel;
//! [`ols_slope`] provides the slope estimates the bit classifiers use.

/// Which local estimator the kernel regression fits at each query point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelEstimator {
    /// Locally constant (Nadaraya–Watson): a kernel-weighted mean.
    LocallyConstant,
    /// Locally linear: a kernel-weighted straight-line fit, evaluated at
    /// the query point. Unbiased at the boundaries, which matters for the
    /// first/last hours of the paper's plots.
    LocallyLinear,
}

/// Where the banded smoother truncates the Gaussian kernel, in
/// bandwidths. Weights beyond ±8σ are at most `exp(−32) ≈ 1.3e-14` of
/// the peak, so dropping them perturbs the result by well under the
/// `1e-9` relative-equivalence budget even for the longest fig6-scale
/// series.
pub const TRUNCATION_SIGMAS: f64 = 8.0;

/// Gaussian-kernel regression over scattered `(x, y)` samples.
///
/// Borrows its samples: fitting allocates nothing, and the regression is
/// `Copy`. Keep the sample slices alive for as long as you query it.
///
/// # Example
///
/// ```
/// use pentimento::analysis::{KernelEstimator, KernelRegression};
///
/// let x: Vec<f64> = (0..100).map(f64::from).collect();
/// let y: Vec<f64> = x.iter().map(|v| 0.1 * v + ((v * 17.0).sin())).collect();
/// let kr = KernelRegression::fit(&x, &y, 5.0, KernelEstimator::LocallyLinear)?;
/// // Smoothing recovers the trend within the noise amplitude.
/// assert!((kr.predict(50.0) - 5.0).abs() < 1.0);
/// # Ok::<(), pentimento::PentimentoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRegression<'a> {
    x: &'a [f64],
    y: &'a [f64],
    bandwidth: f64,
    estimator: KernelEstimator,
}

impl<'a> KernelRegression<'a> {
    /// Fits a regression with an explicit bandwidth (in x units).
    ///
    /// # Errors
    ///
    /// Returns [`crate::PentimentoError::InvalidConfig`] when the inputs
    /// are empty, mismatched, or the bandwidth is not positive.
    pub fn fit(
        x: &'a [f64],
        y: &'a [f64],
        bandwidth: f64,
        estimator: KernelEstimator,
    ) -> Result<Self, crate::PentimentoError> {
        if x.is_empty() || x.len() != y.len() {
            return Err(crate::PentimentoError::InvalidConfig(
                "kernel regression needs equal-length, non-empty x and y".to_owned(),
            ));
        }
        if bandwidth.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || !bandwidth.is_finite()
        {
            return Err(crate::PentimentoError::InvalidConfig(
                "kernel bandwidth must be positive".to_owned(),
            ));
        }
        Ok(Self {
            x,
            y,
            bandwidth,
            estimator,
        })
    }

    /// Fits with Silverman's rule-of-thumb bandwidth
    /// ([`silverman_bandwidth`]). Callers fitting the same `x` grid
    /// repeatedly should compute that bandwidth once and use
    /// [`fit`](Self::fit) — the rule is a full pass over `x`.
    ///
    /// # Errors
    ///
    /// As [`fit`](Self::fit).
    pub fn fit_auto(
        x: &'a [f64],
        y: &'a [f64],
        estimator: KernelEstimator,
    ) -> Result<Self, crate::PentimentoError> {
        Self::fit(x, y, silverman_bandwidth(x), estimator)
    }

    /// The bandwidth in use.
    #[must_use]
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// The kernel-weighted local fit at `x0` over one sample window.
    fn predict_over(&self, x0: f64, xs: &[f64], ys: &[f64]) -> f64 {
        let mut s0 = 0.0; // Σ w
        let mut s1 = 0.0; // Σ w·dx
        let mut s2 = 0.0; // Σ w·dx²
        let mut t0 = 0.0; // Σ w·y
        let mut t1 = 0.0; // Σ w·dx·y
        for (&xi, &yi) in xs.iter().zip(ys) {
            let u = (xi - x0) / self.bandwidth;
            let w = (-0.5 * u * u).exp();
            let dx = xi - x0;
            s0 += w;
            s1 += w * dx;
            s2 += w * dx * dx;
            t0 += w * yi;
            t1 += w * dx * yi;
        }
        if s0 <= f64::MIN_POSITIVE {
            return f64::NAN;
        }
        match self.estimator {
            KernelEstimator::LocallyConstant => t0 / s0,
            KernelEstimator::LocallyLinear => {
                let det = s0 * s2 - s1 * s1;
                if det.abs() < 1e-12 {
                    t0 / s0
                } else {
                    // Intercept of the weighted linear fit at dx = 0.
                    (s2 * t0 - s1 * t1) / det
                }
            }
        }
    }

    /// Predicts the smoothed value at `x0` using every sample.
    #[must_use]
    pub fn predict(&self, x0: f64) -> f64 {
        self.predict_over(x0, self.x, self.y)
    }

    /// Predicts the smoothed series at each of the original sample
    /// positions.
    ///
    /// When the x grid is sorted (the universal case — every
    /// `RouteSeries` stores hours in measurement order) the Gaussian is
    /// truncated at ±[`TRUNCATION_SIGMAS`]·bandwidth and evaluated over a
    /// sliding window: O(n·w) instead of the dense O(n²), within `1e-9`
    /// relative of [`smooth_dense`](Self::smooth_dense). Unsorted or
    /// NaN-bearing grids (and infinite truncation radii) fall back to the
    /// dense path.
    #[must_use]
    pub fn smooth(&self) -> Vec<f64> {
        let radius = TRUNCATION_SIGMAS * self.bandwidth;
        if !radius.is_finite() || !self.x.is_sorted() {
            return self.smooth_dense();
        }
        let n = self.x.len();
        let mut out = Vec::with_capacity(n);
        let mut lo = 0;
        let mut hi = 0;
        for &x0 in self.x {
            // Both bounds only ever move right because x0 is
            // non-decreasing, so the whole sweep is O(n) window motion.
            while lo < n && self.x[lo] < x0 - radius {
                lo += 1;
            }
            if hi < lo {
                hi = lo;
            }
            while hi < n && self.x[hi] <= x0 + radius {
                hi += 1;
            }
            out.push(self.predict_over(x0, &self.x[lo..hi], &self.y[lo..hi]));
        }
        out
    }

    /// The reference smoother: every query point weighs every sample.
    /// Kept for the fast path's equivalence proofs (`kernel_bench`, the
    /// property suite) and as the fallback for unsorted grids.
    #[must_use]
    pub fn smooth_dense(&self) -> Vec<f64> {
        self.x.iter().map(|&x0| self.predict(x0)).collect()
    }
}

/// Silverman's rule-of-thumb bandwidth for a sample grid: `1.06 · σ ·
/// n^(−1/5)`.
///
/// The result is **always positive and finite**, floored at `1e-9`. The
/// rule's raw value collapses to zero on a constant grid (σ = 0) and on
/// single-point or empty input; an unfloored zero bandwidth would divide
/// the kernel weights by zero and poison every smoothed point with NaN,
/// which is exactly what a TM2 campaign hands [`KernelRegression::fit_auto`]
/// when a route's observation window degenerates. (A NaN σ from non-finite
/// samples also lands on the floor: `f64::max` ignores NaN operands.)
#[must_use]
pub fn silverman_bandwidth(x: &[f64]) -> f64 {
    let n = x.len().max(1) as f64;
    let mean = x.iter().sum::<f64>() / n;
    let sd = (x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
    (1.06 * sd * n.powf(-0.2)).max(1e-9)
}

/// Median by in-place selection: O(n), zero allocation, permutes
/// `values`. Bit-identical to [`median_sorted`] on the same data —
/// `select_nth_unstable_by` with [`f64::total_cmp`] puts the true upper
/// middle at `n/2`, and for even lengths the lower middle is the maximum
/// of the left partition.
///
/// Empty input yields 0.0.
#[must_use]
pub fn median_in_place(values: &mut [f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mid = n / 2;
    let (left, upper, _) = values.select_nth_unstable_by(mid, f64::total_cmp);
    let upper = *upper;
    if !n.is_multiple_of(2) {
        upper
    } else {
        let lower = left
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .expect("even length ≥ 2 leaves a non-empty left partition");
        (lower + upper) / 2.0
    }
}

/// The reference median: sort a copy, average the middle. O(n log n)
/// with one allocation; kept in-tree as the equivalence oracle for
/// [`median_in_place`].
///
/// Empty input yields 0.0.
#[must_use]
pub fn median_sorted(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if !sorted.len().is_multiple_of(2) {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Ordinary-least-squares slope of `y` against `x`, in y-units per x-unit.
///
/// Returns 0.0 for fewer than two points or degenerate x.
#[must_use]
pub fn ols_slope(x: &[f64], y: &[f64]) -> f64 {
    ols_fit(x, y).0
}

/// Ordinary-least-squares line fit: returns `(slope, intercept)` of the
/// best-fit line `y ≈ intercept + slope · x`.
///
/// Degenerate inputs (no points, a single point, or zero x-variance) get
/// a zero slope and the mean of `y` as intercept — the best constant fit.
#[must_use]
pub fn ols_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    let n = x.len().min(y.len());
    if n == 0 {
        return (0.0, 0.0);
    }
    let nf = n as f64;
    let mx = x[..n].iter().sum::<f64>() / nf;
    let my = y[..n].iter().sum::<f64>() / nf;
    if n < 2 {
        return (0.0, my);
    }
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        sxx += dx * dx;
        sxy += dx * (y[i] - my);
    }
    if sxx <= 0.0 {
        return (0.0, my);
    }
    let slope = sxy / sxx;
    (slope, my - slope * mx)
}

/// Mean of a slice (0.0 when empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation of a slice (0.0 when fewer than two).
#[must_use]
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ols_recovers_exact_lines() {
        let x: Vec<f64> = (0..50).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        assert!((ols_slope(&x, &y) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ols_degenerate_inputs() {
        assert_eq!(ols_slope(&[], &[]), 0.0);
        assert_eq!(ols_slope(&[1.0], &[2.0]), 0.0);
        assert_eq!(ols_slope(&[2.0, 2.0], &[1.0, 5.0]), 0.0);
    }

    #[test]
    fn ols_fit_recovers_slope_and_intercept() {
        let x: Vec<f64> = (0..50).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        let (slope, intercept) = ols_fit(&x, &y);
        assert!((slope - 3.0).abs() < 1e-12);
        assert!((intercept + 7.0).abs() < 1e-9);
    }

    #[test]
    fn ols_fit_degenerates_to_the_best_constant() {
        assert_eq!(ols_fit(&[], &[]), (0.0, 0.0));
        assert_eq!(ols_fit(&[1.0], &[2.0]), (0.0, 2.0));
        assert_eq!(ols_fit(&[2.0, 2.0], &[1.0, 5.0]), (0.0, 3.0));
    }

    #[test]
    fn nadaraya_watson_smooths_noise() {
        let x: Vec<f64> = (0..200).map(f64::from).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| {
                if (v as u64).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        let kr = KernelRegression::fit(&x, &y, 10.0, KernelEstimator::LocallyConstant).unwrap();
        assert!(kr.predict(100.0).abs() < 0.05);
    }

    #[test]
    fn locally_linear_is_unbiased_at_boundaries() {
        let x: Vec<f64> = (0..100).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        let nw = KernelRegression::fit(&x, &y, 10.0, KernelEstimator::LocallyConstant).unwrap();
        let ll = KernelRegression::fit(&x, &y, 10.0, KernelEstimator::LocallyLinear).unwrap();
        // NW flattens at the left boundary of a ramp; local-linear does not.
        assert!((nw.predict(0.0) - 0.0).abs() > 1.0);
        assert!((ll.predict(0.0) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn smooth_returns_one_value_per_sample() {
        let x = [0.0, 1.0, 2.0];
        let y = [0.0, 1.0, 4.0];
        let kr = KernelRegression::fit(&x, &y, 1.0, KernelEstimator::LocallyLinear).unwrap();
        assert_eq!(kr.smooth().len(), 3);
    }

    #[test]
    fn auto_bandwidth_is_positive() {
        let x: Vec<f64> = (0..30).map(f64::from).collect();
        let y = vec![1.0; 30];
        let kr = KernelRegression::fit_auto(&x, &y, KernelEstimator::LocallyConstant).unwrap();
        assert!(kr.bandwidth() > 0.0);
        assert!((kr.predict(15.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(KernelRegression::fit(&[], &[], 1.0, KernelEstimator::LocallyConstant).is_err());
        assert!(
            KernelRegression::fit(&[1.0], &[1.0, 2.0], 1.0, KernelEstimator::LocallyConstant)
                .is_err()
        );
        assert!(
            KernelRegression::fit(&[1.0], &[1.0], 0.0, KernelEstimator::LocallyConstant).is_err()
        );
    }

    #[test]
    fn banded_smooth_matches_dense_within_tolerance() {
        let x: Vec<f64> = (0..500).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|&v| 0.05 * v + (v * 0.3).sin()).collect();
        for estimator in [
            KernelEstimator::LocallyConstant,
            KernelEstimator::LocallyLinear,
        ] {
            // Bandwidth 2.0 makes the ±8σ window much narrower than the
            // grid, so the banded path genuinely truncates.
            let kr = KernelRegression::fit(&x, &y, 2.0, estimator).unwrap();
            for (banded, dense) in kr.smooth().iter().zip(kr.smooth_dense()) {
                assert!(
                    (banded - dense).abs() <= 1e-9 * dense.abs().max(1.0),
                    "banded {banded} vs dense {dense}"
                );
            }
        }
    }

    #[test]
    fn unsorted_grid_falls_back_to_dense() {
        let x = [3.0, 0.0, 1.0, 2.0];
        let y = [9.0, 0.0, 1.0, 4.0];
        let kr = KernelRegression::fit(&x, &y, 0.01, KernelEstimator::LocallyConstant).unwrap();
        assert_eq!(kr.smooth(), kr.smooth_dense());
    }

    #[test]
    fn fit_auto_uses_the_silverman_rule() {
        let x: Vec<f64> = (0..30).map(f64::from).collect();
        let y = vec![1.0; 30];
        let kr = KernelRegression::fit_auto(&x, &y, KernelEstimator::LocallyConstant).unwrap();
        assert_eq!(kr.bandwidth(), silverman_bandwidth(&x));
    }

    #[test]
    fn silverman_bandwidth_is_floored_on_degenerate_grids() {
        assert_eq!(silverman_bandwidth(&[]), 1e-9, "empty grid hits the floor");
        assert_eq!(silverman_bandwidth(&[42.0]), 1e-9, "single point");
        assert_eq!(silverman_bandwidth(&[7.0; 50]), 1e-9, "constant grid");
        // NaN samples also land on the floor rather than propagating.
        assert_eq!(silverman_bandwidth(&[1.0, f64::NAN]), 1e-9);
        // A healthy grid clears the floor.
        let x: Vec<f64> = (0..30).map(f64::from).collect();
        assert!(silverman_bandwidth(&x) > 1.0);
    }

    #[test]
    fn fit_auto_on_a_flat_grid_degrades_gracefully() {
        // All observations at the same hour: the raw Silverman bandwidth
        // is zero. The floor keeps the fit defined — every smoothed value
        // must come back finite, not NaN.
        let x = [5.0; 8];
        let y = [1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0];
        for estimator in [
            KernelEstimator::LocallyConstant,
            KernelEstimator::LocallyLinear,
        ] {
            let kr = KernelRegression::fit_auto(&x, &y, estimator).unwrap();
            assert_eq!(kr.bandwidth(), 1e-9);
            for v in kr.smooth() {
                assert!(v.is_finite(), "flat-grid smooth must stay finite: {v}");
            }
        }
    }

    #[test]
    fn selection_median_matches_sort_median() {
        for values in [
            vec![],
            vec![4.0],
            vec![2.0, 1.0],
            vec![5.0, -1.0, 3.0],
            vec![1.0, 1.0, 8.0, -2.0],
            vec![0.25, -0.0, 0.0, 7.5, 7.5, -3.0, 2.0],
        ] {
            let mut scratch = values.clone();
            assert_eq!(
                median_in_place(&mut scratch).to_bits(),
                median_sorted(&values).to_bits(),
                "median mismatch on {values:?}"
            );
        }
    }

    #[test]
    fn mean_and_sd_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }
}
