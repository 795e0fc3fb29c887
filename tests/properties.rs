//! Cross-crate property tests: invariants that must hold for arbitrary
//! experiment parameters.

use bti_physics::{Hours, LogicLevel};
use fpga_fabric::FpgaDevice;
use pentimento::{build_target_design, RouteGroupSpec, Skeleton};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any burn duration and any route length, the sign of the analog
    /// imprint identifies the burned bit, and wiping never changes it.
    #[test]
    fn imprint_sign_is_wipe_invariant(
        hours in 5.0f64..300.0,
        target in 1_000.0f64..10_000.0,
        bit in any::<bool>(),
        seed in 0u64..50,
    ) {
        let mut device = FpgaDevice::zcu102_new(seed);
        let skeleton = Skeleton::place(&device, &[RouteGroupSpec { target_ps: target, count: 1 }])
            .expect("single route fits");
        let value = LogicLevel::from_bool(bit);
        device.load_design(build_target_design(&skeleton, &[value])).expect("loads");
        device.run_for(Hours::new(hours));
        let before_wipe = device.route_delta_ps(&skeleton.entries()[0].route);
        device.wipe();
        let after_wipe = device.route_delta_ps(&skeleton.entries()[0].route);
        prop_assert_eq!(before_wipe, after_wipe, "wipe must not touch analog state");
        prop_assert_eq!(before_wipe > 0.0, bit);
    }

    /// Skeletons are deterministic for any spec on any device seed: the
    /// attacker can always rebuild the victim's placement (Assumption 1).
    #[test]
    fn skeletons_are_deterministic(
        target in 500.0f64..8_000.0,
        count in 1usize..6,
        seed in 0u64..50,
    ) {
        let device = FpgaDevice::zcu102_new(seed);
        let spec = [RouteGroupSpec { target_ps: target, count }];
        let a = Skeleton::place(&device, &spec).expect("fits");
        let b = Skeleton::place(&device, &spec).expect("fits");
        prop_assert_eq!(a, b);
    }

    /// Conditioning longer never shrinks the imprint, for either bit.
    #[test]
    fn imprints_grow_monotonically(
        target in 1_000.0f64..10_000.0,
        bit in any::<bool>(),
        steps in proptest::collection::vec(5.0f64..50.0, 1..5),
    ) {
        let mut device = FpgaDevice::zcu102_new(9);
        let skeleton = Skeleton::place(&device, &[RouteGroupSpec { target_ps: target, count: 1 }])
            .expect("fits");
        let route = skeleton.entries()[0].route.clone();
        let value = LogicLevel::from_bool(bit);
        device.load_design(build_target_design(&skeleton, &[value])).expect("loads");
        let mut last = 0.0;
        for step in steps {
            device.run_for(Hours::new(step));
            let mag = device.route_delta_ps(&route).abs();
            prop_assert!(mag >= last - 1e-9);
            last = mag;
        }
    }
}

#[test]
fn classifiers_are_consistent_between_modes() {
    // Oracle and TDC modes must agree on clearly separated (long-route)
    // bits: run the same lab experiment in both modes and compare.
    use pentimento::{
        BitClassifier, DriftSlopeClassifier, LabExperiment, LabExperimentConfig, MeasurementMode,
    };
    let base = LabExperimentConfig {
        route_lengths_ps: vec![10_000.0],
        routes_per_length: 4,
        burn_hours: 60,
        recovery_hours: 0,
        measure_every: 10,
        mode: MeasurementMode::Oracle,
        seed: 33,
    };
    let mut oracle_exp = LabExperiment::new(base.clone()).expect("valid");
    let oracle = oracle_exp.run().expect("runs");
    let tdc_config = LabExperimentConfig {
        mode: MeasurementMode::Tdc,
        ..base
    };
    let mut tdc_exp = LabExperiment::new(tdc_config).expect("valid");
    let tdc = tdc_exp.run().expect("runs");

    let classifier = DriftSlopeClassifier::new();
    assert_eq!(
        classifier.classify_all(&oracle.series),
        classifier.classify_all(&tdc.series),
        "long-route classifications must agree between oracle and sensor"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `try_window_from` never panics: any cut point either yields a
    /// well-formed sub-series (every kept hour >= the cut) or the typed
    /// `InvalidConfig` error — and it errs exactly when the cut lies
    /// beyond the last measurement.
    #[test]
    fn window_from_is_total_over_cut_points(
        n in 1usize..12,
        step in 0.5f64..10.0,
        cut in -5.0f64..200.0,
    ) {
        use pentimento::RouteSeries;
        let hours: Vec<f64> = (0..n).map(|i| i as f64 * step).collect();
        let deltas: Vec<f64> = hours.iter().map(|h| h * 0.01).collect();
        let series = RouteSeries::from_raw(0, 5_000.0, LogicLevel::One, hours.clone(), deltas);
        match series.try_window_from(cut) {
            Ok(window) => {
                prop_assert!(!window.hours.is_empty());
                prop_assert!(window.hours.iter().all(|&h| h >= cut));
                prop_assert_eq!(
                    window.hours.len(),
                    hours.iter().filter(|&&h| h >= cut).count()
                );
            }
            Err(e) => {
                prop_assert!(
                    hours.iter().all(|&h| h < cut),
                    "typed error only for empty windows, got {e} with cut {cut}"
                );
            }
        }
    }

    /// MAD outlier rejection is invariant under vertical shifts: adding a
    /// constant to every sample must reject exactly the same hours,
    /// because residuals are taken against a slope-and-intercept fit.
    #[test]
    fn mad_filter_is_shift_invariant(
        shift in -500.0f64..500.0,
        spike_at in 0usize..10,
        spike in 25.0f64..80.0,
        k in 2.0f64..4.0,
    ) {
        use pentimento::RouteSeries;
        let hours: Vec<f64> = (0..10).map(|i| i as f64 * 3.0).collect();
        let mut deltas: Vec<f64> = hours.iter().map(|h| 1.0 + 0.2 * h).collect();
        deltas[spike_at] += spike;
        let shifted: Vec<f64> = deltas.iter().map(|d| d + shift).collect();
        let base = RouteSeries::from_raw(0, 5_000.0, LogicLevel::One, hours.clone(), deltas)
            .mad_filtered(k);
        let moved = RouteSeries::from_raw(0, 5_000.0, LogicLevel::One, hours, shifted)
            .mad_filtered(k);
        prop_assert_eq!(&base.hours, &moved.hours, "same hours must survive the filter");
        prop_assert!(
            !base.hours.contains(&(spike_at as f64 * 3.0)),
            "the spiked sample must be rejected"
        );
    }

    /// The ROC machinery is total over contaminated statistics: NaN and
    /// infinite scores are dropped (and counted), never panicked on, and
    /// the curve built from the finite remainder stays monotone.
    #[test]
    fn roc_is_total_under_nan_contamination(
        n_clean in 2usize..10,
        n_nan in 0usize..4,
        seed in 0u64..100,
    ) {
        use pentimento::{roc_curve_counted, RouteSeries};
        let mut series = Vec::new();
        for i in 0..n_clean {
            let bit = (i + seed as usize) % 2 == 0;
            let value = if bit { 1.0 + i as f64 } else { -1.0 - i as f64 };
            series.push(RouteSeries::from_raw(
                i, 5_000.0, LogicLevel::from_bool(bit),
                vec![0.0, 1.0], vec![0.0, value],
            ));
        }
        for i in 0..n_nan {
            series.push(RouteSeries::from_raw(
                n_clean + i, 5_000.0, LogicLevel::One,
                vec![0.0, 1.0], vec![0.0, f64::NAN],
            ));
        }
        let statistic = |s: &RouteSeries| s.delta_ps[1];
        let (curve, dropped) = roc_curve_counted(&series, statistic, false);
        prop_assert_eq!(dropped, n_nan, "every NaN statistic is a counted drop");
        prop_assert!(curve.windows(2).all(|w| {
            w[0].false_positive_rate <= w[1].false_positive_rate
                && w[0].true_positive_rate <= w[1].true_positive_rate
        }), "ROC curve must be monotone after the drop");
    }

    /// Accuracy and bit-error rate are total over any same-length bit
    /// vectors — including empty ones — and always complementary, bounded
    /// probabilities. (Empty inputs used to assert-panic mid-campaign.)
    #[test]
    fn accuracy_is_total_and_bounded(
        bits in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..64),
    ) {
        use pentimento::{accuracy, bit_error_rate};
        let recovered: Vec<LogicLevel> =
            bits.iter().map(|(r, _)| LogicLevel::from_bool(*r)).collect();
        let truth: Vec<LogicLevel> =
            bits.iter().map(|(_, t)| LogicLevel::from_bool(*t)).collect();
        let acc = accuracy(&recovered, &truth);
        let ber = bit_error_rate(&recovered, &truth);
        prop_assert!((0.0..=1.0).contains(&acc), "accuracy out of range: {acc}");
        prop_assert!((0.0..=1.0).contains(&ber), "BER out of range: {ber}");
        if bits.is_empty() {
            prop_assert_eq!(acc, 0.0, "empty truth scores the documented 0.0");
            prop_assert_eq!(ber, 0.0, "no bits were recovered incorrectly");
        } else {
            prop_assert!((acc + ber - 1.0).abs() < 1e-12, "acc {acc} + ber {ber}");
        }
    }

    /// The AUC of any ROC curve — single-class inputs, heavily tied
    /// statistics, tiny samples — is a finite value in [0, 1]: duplicate
    /// false-positive rates must never produce negative trapezoid area.
    #[test]
    fn roc_auc_is_always_a_bounded_probability(
        samples in proptest::collection::vec(
            ((-3i32..=3), any::<bool>()), 1..24),
        positive_below in any::<bool>(),
    ) {
        use pentimento::{roc_auc, roc_curve, RouteSeries};
        // i32 statistic values in a narrow range force many exact ties.
        let series: Vec<RouteSeries> = samples
            .iter()
            .enumerate()
            .map(|(i, (v, bit))| RouteSeries::from_raw(
                i, 5_000.0, LogicLevel::from_bool(*bit),
                vec![0.0, 1.0], vec![0.0, f64::from(*v)],
            ))
            .collect();
        let points = roc_curve(&series, |s| s.delta_ps[1], positive_below);
        let auc = roc_auc(&points);
        prop_assert!(auc.is_finite(), "auc must be finite: {auc}");
        prop_assert!((0.0..=1.0).contains(&auc), "auc out of [0,1]: {auc}");
    }

    /// Silverman's rule yields a strictly positive, finite bandwidth for
    /// any grid — constant, single-point, empty, or wildly scaled — so
    /// `fit_auto` can never divide kernel weights by zero.
    #[test]
    fn silverman_bandwidth_is_always_positive_and_finite(
        mut x in proptest::collection::vec(-1e9f64..1e9, 0..64),
        collapse in any::<bool>(),
    ) {
        use pentimento::analysis::silverman_bandwidth;
        if collapse {
            // Degenerate variant: every sample identical.
            let v = x.first().copied().unwrap_or(0.0);
            for s in &mut x { *s = v; }
        }
        let h = silverman_bandwidth(&x);
        prop_assert!(h.is_finite(), "bandwidth must be finite: {h}");
        prop_assert!(h >= 1e-9, "bandwidth must clear the floor: {h}");
        if collapse {
            // Not exactly the floor: a constant grid at large magnitude
            // keeps a ~|v|·ε rounding residue in its computed σ. The
            // contract is only that the bandwidth stays tiny but usable.
            prop_assert!(h < 1e-6, "constant grid bandwidth stays near the floor: {h}");
        }
    }
}
