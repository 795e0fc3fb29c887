//! Regenerating per-bit route-length populations from order statistics.

use crate::RouteLengthStats;

/// A piecewise-linear inverse CDF fitted through an asset's published
/// quantiles `(0 → min, 0.25 → q25, 0.5 → q50, 0.75 → q75, 1 → max)`.
///
/// Sampling the fit at stratified probabilities regenerates a route-length
/// population whose quantile columns reproduce Table 1 exactly and whose
/// mean/SD come out close (the paper does not publish the full shape).
///
/// # Example
///
/// ```
/// use opentitan::{earl_grey_assets, QuantileFit};
///
/// let asset = &earl_grey_assets()[0];
/// let fit = QuantileFit::from_stats(&asset.paper_stats);
/// let lengths = fit.stratified_samples(asset.bus_width as usize);
/// assert_eq!(lengths.len(), 320);
/// assert!(lengths.iter().all(|&l| l >= 39.0 && l <= 509.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileFit {
    knots_p: [f64; 5],
    knots_v: [f64; 5],
}

impl QuantileFit {
    /// Fits the inverse CDF of one asset's published statistics.
    ///
    /// # Panics
    ///
    /// Panics if the quantiles are not monotone non-decreasing.
    #[must_use]
    pub fn from_stats(stats: &RouteLengthStats) -> Self {
        let knots_v = [
            stats.min_ps,
            stats.q25_ps,
            stats.q50_ps,
            stats.q75_ps,
            stats.max_ps,
        ];
        assert!(
            knots_v.windows(2).all(|w| w[0] <= w[1]),
            "quantiles must be monotone"
        );
        Self {
            knots_p: [0.0, 0.25, 0.5, 0.75, 1.0],
            knots_v,
        }
    }

    /// Evaluates the inverse CDF at probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let i = match self.knots_p.iter().rposition(|&k| k <= p) {
            Some(4) => 3,
            Some(i) => i,
            None => 0,
        };
        let (p0, p1) = (self.knots_p[i], self.knots_p[i + 1]);
        let (v0, v1) = (self.knots_v[i], self.knots_v[i + 1]);
        if p1 == p0 {
            return v0;
        }
        v0 + (v1 - v0) * (p - p0) / (p1 - p0)
    }

    /// Draws `n` stratified samples: one at the midpoint of each of `n`
    /// equal probability strata. Deterministic, and the resulting
    /// population's empirical quantiles converge on the fitted knots.
    #[must_use]
    pub fn stratified_samples(&self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| self.quantile((i as f64 + 0.5) / n as f64))
            .collect()
    }
}

/// Summary statistics of a route-length population (used to regenerate
/// Table 1's columns from sampled populations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationStats {
    /// Population size.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Standard deviation (population).
    pub sd: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub q25: f64,
    /// Median.
    pub q50: f64,
    /// 75th percentile.
    pub q75: f64,
    /// Maximum.
    pub max: f64,
}

impl PopulationStats {
    /// Computes summary statistics over a population.
    ///
    /// Percentiles use linear interpolation between order statistics (the
    /// same convention as pandas' `describe`, which produced Table 1's
    /// fractional quantiles such as 242.2).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "population must not be empty");
        let n = values.len();
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN route lengths"));
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        let pct = |p: f64| -> f64 {
            if n == 1 {
                return sorted[0];
            }
            let rank = p * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        };
        Self {
            n,
            mean,
            sd: var.sqrt(),
            min: sorted[0],
            q25: pct(0.25),
            q50: pct(0.50),
            q75: pct(0.75),
            max: sorted[n - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::earl_grey_assets;

    #[test]
    fn quantile_interpolates_knots() {
        let stats = RouteLengthStats {
            mean_ps: 0.0,
            sd_ps: 0.0,
            min_ps: 0.0,
            q25_ps: 100.0,
            q50_ps: 200.0,
            q75_ps: 300.0,
            max_ps: 400.0,
        };
        let fit = QuantileFit::from_stats(&stats);
        assert_eq!(fit.quantile(0.0), 0.0);
        assert_eq!(fit.quantile(0.25), 100.0);
        assert_eq!(fit.quantile(0.5), 200.0);
        assert_eq!(fit.quantile(1.0), 400.0);
        assert!((fit.quantile(0.125) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn regenerated_quantiles_match_paper_closely() {
        for asset in earl_grey_assets() {
            let fit = QuantileFit::from_stats(&asset.paper_stats);
            let pop = fit.stratified_samples(asset.bus_width as usize);
            let stats = PopulationStats::of(&pop);
            let s = asset.paper_stats;
            // Quantiles should land within a couple percent of the span.
            let span = (s.max_ps - s.min_ps).max(1.0);
            for (got, want) in [
                (stats.q25, s.q25_ps),
                (stats.q50, s.q50_ps),
                (stats.q75, s.q75_ps),
            ] {
                assert!(
                    (got - want).abs() / span < 0.03,
                    "{}: quantile {got} vs paper {want}",
                    asset.path
                );
            }
            // Stratified midpoints cannot reach the extremes exactly, but
            // must come close for wide buses.
            assert!(stats.min >= s.min_ps);
            assert!(stats.max <= s.max_ps);
        }
    }

    #[test]
    fn regenerated_means_are_in_the_ballpark() {
        // The piecewise-linear shape is an approximation: demand the mean
        // within 20 % of the span for every asset.
        for asset in earl_grey_assets() {
            let fit = QuantileFit::from_stats(&asset.paper_stats);
            let pop = fit.stratified_samples(asset.bus_width as usize);
            let stats = PopulationStats::of(&pop);
            let s = asset.paper_stats;
            let span = (s.max_ps - s.min_ps).max(1.0);
            assert!(
                (stats.mean - s.mean_ps).abs() / span < 0.2,
                "{}: mean {} vs paper {}",
                asset.path,
                stats.mean,
                s.mean_ps
            );
        }
    }

    #[test]
    fn population_stats_basics() {
        let stats = PopulationStats::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(stats.mean, 3.0);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 5.0);
        assert_eq!(stats.q50, 3.0);
        assert_eq!(stats.q25, 2.0);
        assert!((stats.sd - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn single_element_population() {
        let stats = PopulationStats::of(&[7.0]);
        assert_eq!(stats.q25, 7.0);
        assert_eq!(stats.q75, 7.0);
        assert_eq!(stats.sd, 0.0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_quantiles_rejected() {
        let stats = RouteLengthStats {
            mean_ps: 0.0,
            sd_ps: 0.0,
            min_ps: 10.0,
            q25_ps: 5.0,
            q50_ps: 20.0,
            q75_ps: 30.0,
            max_ps: 40.0,
        };
        let _ = QuantileFit::from_stats(&stats);
    }
}
