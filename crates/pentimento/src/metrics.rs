//! Attack-quality metrics.

use bti_physics::LogicLevel;

use crate::analysis::{mean, std_dev};
use crate::RouteSeries;

/// Fraction of recovered bits matching the ground truth.
///
/// Scoring zero bits is vacuous, not fatal: empty inputs return the
/// documented sentinel `0.0` ("nothing was recovered") instead of
/// panicking. An abstain-everything campaign — every route dropped or
/// unclassifiable — can therefore still be scored and reported. This
/// used to be an `assert!` that tore down the whole campaign runner.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn accuracy(recovered: &[LogicLevel], truth: &[LogicLevel]) -> f64 {
    assert_eq!(recovered.len(), truth.len(), "bit vectors differ in length");
    if truth.is_empty() {
        return 0.0;
    }
    let correct = recovered.iter().zip(truth).filter(|(a, b)| a == b).count();
    correct as f64 / truth.len() as f64
}

/// Fraction of recovered bits that are wrong (1 − accuracy).
///
/// Empty inputs return `0.0`, not `1.0`: zero bits were recovered
/// incorrectly. (The naive `1.0 - accuracy(..)` would report a 100%
/// error rate for a campaign that recovered nothing.)
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn bit_error_rate(recovered: &[LogicLevel], truth: &[LogicLevel]) -> f64 {
    assert_eq!(recovered.len(), truth.len(), "bit vectors differ in length");
    if truth.is_empty() {
        return 0.0;
    }
    1.0 - accuracy(recovered, truth)
}

/// The d′ separation between the two burn classes of a statistic: the
/// difference of class means over the pooled standard deviation. Above
/// ≈ 2 the classes barely overlap and single-shot classification is
/// reliable.
///
/// Returns infinity when both classes are noiseless and distinct, and
/// 0.0 when either class is missing.
#[must_use]
pub fn separation_dprime(series: &[RouteSeries], statistic: impl Fn(&RouteSeries) -> f64) -> f64 {
    let ones: Vec<f64> = series
        .iter()
        .filter(|s| s.burn_value == LogicLevel::One)
        .map(&statistic)
        .collect();
    let zeros: Vec<f64> = series
        .iter()
        .filter(|s| s.burn_value == LogicLevel::Zero)
        .map(&statistic)
        .collect();
    if ones.is_empty() || zeros.is_empty() {
        return 0.0;
    }
    let gap = (mean(&ones) - mean(&zeros)).abs();
    let pooled = ((std_dev(&ones).powi(2) + std_dev(&zeros).powi(2)) / 2.0).sqrt();
    if pooled <= 0.0 {
        if gap > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        gap / pooled
    }
}

/// One operating point of a threshold classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// The decision threshold producing this point.
    pub threshold: f64,
    /// True-positive rate: burn-1 routes classified as 1.
    pub true_positive_rate: f64,
    /// False-positive rate: burn-0 routes classified as 1.
    pub false_positive_rate: f64,
}

/// The ROC curve of a statistic that separates burn-1 from burn-0 routes,
/// sweeping the decision threshold over every distinct statistic value.
///
/// `positive_below` selects the decision direction: `true` means "values
/// below the threshold classify as burn-1" (the recovery-slope convention,
/// where burn-1 routes have the most negative slopes); `false` means
/// "values above" (the drift-slope convention).
///
/// Points come back sorted by false-positive rate, starting at `(0, 0)`
/// and ending at `(1, 1)`; feed them to [`roc_auc`].
///
/// Series whose statistic is non-finite (a NaN slope from a zero-variance
/// or all-gap degenerate series) are silently dropped; use
/// [`roc_curve_counted`] to observe how many.
#[must_use]
pub fn roc_curve(
    series: &[RouteSeries],
    statistic: impl Fn(&RouteSeries) -> f64,
    positive_below: bool,
) -> Vec<RocPoint> {
    roc_curve_counted(series, statistic, positive_below).0
}

/// [`roc_curve`] plus the number of series dropped for a non-finite
/// statistic. A NaN statistic used to panic threshold sorting mid-campaign
/// (`partial_cmp(..).expect(..)`); it is now a counted drop that campaign
/// runners surface in their stats, and all sorting is total
/// ([`f64::total_cmp`]), so no input can panic this path.
#[must_use]
pub fn roc_curve_counted(
    series: &[RouteSeries],
    statistic: impl Fn(&RouteSeries) -> f64,
    positive_below: bool,
) -> (Vec<RocPoint>, usize) {
    let all: Vec<(f64, bool)> = series
        .iter()
        .map(|s| (statistic(s), s.burn_value == LogicLevel::One))
        .collect();
    let labeled: Vec<(f64, bool)> = all.iter().filter(|(v, _)| v.is_finite()).copied().collect();
    let dropped = all.len() - labeled.len();
    let positives = labeled.iter().filter(|(_, p)| *p).count().max(1) as f64;
    let negatives = labeled.iter().filter(|(_, p)| !*p).count().max(1) as f64;
    let mut thresholds: Vec<f64> = labeled.iter().map(|(v, _)| *v).collect();
    thresholds.push(f64::NEG_INFINITY);
    thresholds.push(f64::INFINITY);
    thresholds.sort_by(f64::total_cmp);
    thresholds.dedup();
    let mut points: Vec<RocPoint> = thresholds
        .into_iter()
        .map(|threshold| {
            let classify = |v: f64| {
                if positive_below {
                    v < threshold
                } else {
                    v > threshold
                }
            };
            let tp = labeled.iter().filter(|(v, p)| *p && classify(*v)).count() as f64;
            let fp = labeled.iter().filter(|(v, p)| !*p && classify(*v)).count() as f64;
            RocPoint {
                threshold,
                true_positive_rate: tp / positives,
                false_positive_rate: fp / negatives,
            }
        })
        .collect();
    points.sort_by(|a, b| {
        a.false_positive_rate
            .total_cmp(&b.false_positive_rate)
            .then(a.true_positive_rate.total_cmp(&b.true_positive_rate))
    });
    (points, dropped)
}

/// Area under an ROC curve (trapezoidal): 0.5 = chance, 1.0 = perfect.
#[must_use]
pub fn roc_auc(points: &[RocPoint]) -> f64 {
    points
        .windows(2)
        .map(|w| {
            let dx = w[1].false_positive_rate - w[0].false_positive_rate;
            dx * (w[0].true_positive_rate + w[1].true_positive_rate) / 2.0
        })
        .sum()
}

/// Summary of one attack run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryMetrics {
    /// Number of bits attacked.
    pub bits: usize,
    /// Fraction recovered correctly.
    pub accuracy: f64,
    /// d′ of the classifier statistic between classes.
    pub dprime: f64,
}

impl RecoveryMetrics {
    /// Scores recovered bits against ground truth, using the series'
    /// slopes as the separation statistic.
    ///
    /// Empty inputs score as `bits: 0, accuracy: 0.0, dprime: 0.0` (the
    /// [`accuracy`] and [`separation_dprime`] empty-input conventions).
    ///
    /// # Panics
    ///
    /// Panics when `recovered` and `series` lengths mismatch.
    #[must_use]
    pub fn score(series: &[RouteSeries], recovered: &[LogicLevel]) -> Self {
        let truth: Vec<LogicLevel> = series.iter().map(|s| s.burn_value).collect();
        Self {
            bits: truth.len(),
            accuracy: accuracy(recovered, &truth),
            dprime: separation_dprime(series, RouteSeries::slope_ps_per_hour),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(truth: LogicLevel, deltas: &[f64]) -> RouteSeries {
        RouteSeries::from_raw(
            0,
            1000.0,
            truth,
            (0..deltas.len()).map(|h| h as f64).collect(),
            deltas.to_vec(),
        )
    }

    #[test]
    fn accuracy_counts_matches() {
        use LogicLevel::{One, Zero};
        assert_eq!(accuracy(&[One, Zero, One], &[One, Zero, Zero]), 2.0 / 3.0);
        assert_eq!(bit_error_rate(&[One], &[One]), 0.0);
    }

    #[test]
    fn dprime_separates_clean_classes() {
        let mut all = Vec::new();
        for i in 0..8 {
            let up = 1.0 + 0.01 * f64::from(i);
            all.push(series(LogicLevel::One, &[0.0, up, 2.0 * up]));
            all.push(series(LogicLevel::Zero, &[0.0, -up, -2.0 * up]));
        }
        let d = separation_dprime(&all, RouteSeries::slope_ps_per_hour);
        assert!(d > 10.0, "d' = {d}");
    }

    #[test]
    fn dprime_zero_for_single_class() {
        let all = vec![series(LogicLevel::One, &[0.0, 1.0])];
        assert_eq!(separation_dprime(&all, RouteSeries::slope_ps_per_hour), 0.0);
    }

    #[test]
    fn dprime_infinite_for_noiseless_distinct() {
        let all = vec![
            series(LogicLevel::One, &[0.0, 1.0]),
            series(LogicLevel::Zero, &[0.0, -1.0]),
        ];
        assert!(separation_dprime(&all, RouteSeries::slope_ps_per_hour).is_infinite());
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn mismatched_accuracy_panics() {
        let _ = accuracy(&[LogicLevel::One], &[]);
    }

    #[test]
    fn empty_inputs_score_zero_without_panicking() {
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(bit_error_rate(&[], &[]), 0.0, "no bits were wrong");
        let scored = RecoveryMetrics::score(&[], &[]);
        assert_eq!(scored.bits, 0);
        assert_eq!(scored.accuracy, 0.0);
        assert_eq!(scored.dprime, 0.0);
    }

    #[test]
    fn roc_single_class_input_stays_finite() {
        // Every route burned the same bit: one of the rate denominators
        // is a zero count. The curve must stay finite (no NaN from 0/0)
        // and the AUC must stay inside [0, 1] in both sweep directions.
        for level in [LogicLevel::One, LogicLevel::Zero] {
            let all: Vec<RouteSeries> = (0..5)
                .map(|i| series(level, &[0.0, 0.3 * f64::from(i)]))
                .collect();
            for positive_below in [false, true] {
                let points = roc_curve(&all, RouteSeries::slope_ps_per_hour, positive_below);
                for p in &points {
                    assert!(p.true_positive_rate.is_finite());
                    assert!(p.false_positive_rate.is_finite());
                    assert!((0.0..=1.0).contains(&p.true_positive_rate));
                    assert!((0.0..=1.0).contains(&p.false_positive_rate));
                }
                let auc = roc_auc(&points);
                assert!(
                    (0.0..=1.0).contains(&auc),
                    "single-class auc out of range: {auc}"
                );
            }
        }
    }

    #[test]
    fn roc_duplicate_statistics_never_go_negative() {
        // Heavily tied statistic values produce many duplicate-FPR points;
        // the trapezoid must see them in sorted order (dx >= 0 everywhere)
        // so no segment contributes negative area.
        let mut all = Vec::new();
        for i in 0..12 {
            let v = f64::from(i % 3); // only three distinct values
            all.push(series(LogicLevel::One, &[0.0, v]));
            all.push(series(LogicLevel::Zero, &[0.0, -v]));
        }
        let points = roc_curve(&all, RouteSeries::slope_ps_per_hour, false);
        for w in points.windows(2) {
            assert!(w[1].false_positive_rate >= w[0].false_positive_rate);
        }
        let auc = roc_auc(&points);
        assert!(auc.is_finite() && (0.0..=1.0).contains(&auc), "auc = {auc}");
    }

    #[test]
    fn roc_of_perfect_separation_has_auc_one() {
        let mut all = Vec::new();
        for i in 0..6 {
            all.push(series(LogicLevel::One, &[0.0, 1.0 + 0.1 * f64::from(i)]));
            all.push(series(LogicLevel::Zero, &[0.0, -1.0 - 0.1 * f64::from(i)]));
        }
        let points = roc_curve(&all, RouteSeries::slope_ps_per_hour, false);
        let auc = roc_auc(&points);
        assert!((auc - 1.0).abs() < 1e-9, "auc = {auc}");
        assert_eq!(points.first().map(|p| p.false_positive_rate), Some(0.0));
        assert_eq!(points.last().map(|p| p.true_positive_rate), Some(1.0));
    }

    #[test]
    fn roc_of_identical_classes_is_chance() {
        // Both classes produce exactly the same statistic values.
        let mut all = Vec::new();
        for i in 0..5 {
            let v = 0.2 * f64::from(i);
            all.push(series(LogicLevel::One, &[0.0, v]));
            all.push(series(LogicLevel::Zero, &[0.0, v]));
        }
        let points = roc_curve(&all, RouteSeries::slope_ps_per_hour, false);
        let auc = roc_auc(&points);
        assert!((auc - 0.5).abs() < 0.05, "auc = {auc}");
    }

    #[test]
    fn roc_direction_flag_flips_the_curve() {
        let all = vec![
            series(LogicLevel::One, &[0.0, -2.0]), // recovery-style: ones drop
            series(LogicLevel::Zero, &[0.0, 0.0]),
        ];
        let below = roc_auc(&roc_curve(&all, RouteSeries::slope_ps_per_hour, true));
        let above = roc_auc(&roc_curve(&all, RouteSeries::slope_ps_per_hour, false));
        assert!(below > 0.99, "below-direction auc {below}");
        assert!(above < 0.01, "above-direction auc {above}");
    }

    #[test]
    fn roc_survives_nan_statistics_with_a_counted_drop() {
        let mut all = Vec::new();
        for i in 0..4 {
            all.push(series(LogicLevel::One, &[0.0, 1.0 + 0.1 * f64::from(i)]));
            all.push(series(LogicLevel::Zero, &[0.0, -1.0 - 0.1 * f64::from(i)]));
        }
        // A degenerate series whose statistic is NaN used to panic the
        // threshold sort mid-campaign.
        all.push(series(LogicLevel::One, &[0.0, 0.5]));
        let nan_stat = |s: &RouteSeries| {
            if s.len() == 2 && (s.delta_ps[1] - 0.5).abs() < 1e-12 {
                f64::NAN
            } else {
                s.slope_ps_per_hour()
            }
        };
        let (points, dropped) = roc_curve_counted(&all, nan_stat, false);
        assert_eq!(dropped, 1, "exactly the NaN series dropped");
        let auc = roc_auc(&points);
        assert!(
            (auc - 1.0).abs() < 1e-9,
            "finite series still separate: {auc}"
        );
        // All-NaN input degrades to an empty-ish curve, never a panic.
        let (_, all_dropped) = roc_curve_counted(&all, |_| f64::NAN, false);
        assert_eq!(all_dropped, all.len());
    }

    #[test]
    fn roc_is_monotone() {
        let mut all = Vec::new();
        for i in 0..10 {
            let noise = f64::from(i % 3) * 0.4;
            all.push(series(LogicLevel::One, &[0.0, 0.5 + noise]));
            all.push(series(LogicLevel::Zero, &[0.0, -0.5 + noise]));
        }
        let points = roc_curve(&all, RouteSeries::slope_ps_per_hour, false);
        for w in points.windows(2) {
            assert!(w[1].false_positive_rate >= w[0].false_positive_rate);
            assert!(w[1].true_positive_rate >= w[0].true_positive_rate);
        }
    }
}
