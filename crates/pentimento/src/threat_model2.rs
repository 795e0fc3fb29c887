//! Threat Model 2: confidential user data extraction (Experiment 3).
//!
//! The harder, more powerful attack: the victim has *already left*. Their
//! design ran for hundreds of hours holding **Type B** secrets, AWS
//! scrubbed the device, and only then does the attacker arrive — with no
//! pre-burn baseline. The attacker conditions every target route to
//! logical 0 and watches 25 hours of **BTI recovery**: routes that held 1
//! collapse quickly (fast PBTI emission), routes that held 0 stay flat.

use bti_physics::LogicLevel;
use cloud::Provider;
use serde::{Deserialize, Serialize};

use crate::campaign::{run_benign, Mission};
use crate::metrics::RecoveryMetrics;
use crate::{MeasurementMode, PentimentoError, RouteSeries};

/// Configuration of a Threat Model 2 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreatModel2Config {
    /// Route-length groups of the victim design (paper: 4×16).
    pub route_lengths_ps: Vec<f64>,
    /// Routes per group.
    pub routes_per_length: usize,
    /// How long the victim computes before leaving, in hours (paper: 200).
    pub victim_hours: usize,
    /// The attacker's observation window after reacquiring the device, in
    /// hours (paper: 25).
    pub attack_hours: usize,
    /// The level the attacker conditions all routes to. The paper argues
    /// for logical 0 (it exposes the fast burn-1 recovery).
    pub condition_level: LogicLevel,
    /// Sensor pipeline or omniscient readings.
    pub mode: MeasurementMode,
    /// Seed for the victim's secret and sensor noise.
    pub seed: u64,
    /// Back-to-back sensor measurements averaged per recorded point (the
    /// recovery slopes on an aged device are tens of femtoseconds per
    /// hour; averaging is how the attacker buys resolution).
    pub measurement_repeats: usize,
    /// The victim's post-compute mitigation: hold the instance this many
    /// extra hours while *toggling* the sensitive routes before releasing
    /// (Section 8.1 "hold and recover"; toggling rather than statically
    /// complementing, because a long static complement merely burns in
    /// X̄ — an inverted, equally classifiable imprint). Zero for the
    /// vulnerable default.
    pub victim_hold_and_recover_hours: usize,
}

impl ThreatModel2Config {
    /// The paper's Experiment 3 configuration.
    #[must_use]
    pub fn paper_experiment3(seed: u64) -> Self {
        Self {
            route_lengths_ps: vec![1_000.0, 2_000.0, 5_000.0, 10_000.0],
            routes_per_length: 16,
            victim_hours: 200,
            attack_hours: 25,
            condition_level: LogicLevel::Zero,
            mode: MeasurementMode::Tdc,
            seed,
            measurement_repeats: 8,
            victim_hold_and_recover_hours: 0,
        }
    }
}

/// Outcome of a Threat Model 2 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreatModel2Outcome {
    /// The attacker's recovery-window series (hours count from the moment
    /// the victim released the board).
    pub series: Vec<RouteSeries>,
    /// The bits the attacker recovered.
    pub recovered: Vec<LogicLevel>,
    /// The victim's actual secret.
    pub truth: Vec<LogicLevel>,
    /// Attack quality.
    pub metrics: RecoveryMetrics,
    /// Whether the flash attack reacquired the victim's exact device
    /// (always `true` here: a miss is [`PentimentoError::VictimDeviceLost`]).
    pub reacquired_victim_device: bool,
}

/// Runs Threat Model 2 against a provider.
///
/// Timeline (Section 2, Threat Model 2):
///
/// 1. The victim rents an instance, loads a design holding secret `X` on
///    the skeleton routes, and computes for `victim_hours` — unobserved.
/// 2. The victim releases; the provider scrubs the device.
/// 3. The attacker, who has been squatting on the rest of the region's
///    capacity (the flash attack), immediately rents the freed board.
/// 4. The attacker conditions all routes to `condition_level` and
///    measures hourly for `attack_hours`, then classifies each bit from
///    its recovery slope using a threshold calibrated offline.
///
/// This is a benign [`Campaign`](crate::Campaign) — default
/// [`CampaignConfig`](crate::CampaignConfig), so no fault plan — run
/// against `provider`, which keeps its recorder and stays usable after
/// the run.
///
/// # Errors
///
/// Propagates cloud, fabric, and sensor failures;
/// [`PentimentoError::VictimDeviceLost`] if the flash attack misses.
pub fn run(
    provider: &mut Provider,
    config: &ThreatModel2Config,
) -> Result<ThreatModel2Outcome, PentimentoError> {
    let o = run_benign(provider, Mission::ThreatModel2(config.clone()))?;
    Ok(ThreatModel2Outcome {
        series: o.series,
        recovered: o.recovered,
        truth: o.truth,
        metrics: o.metrics,
        reacquired_victim_device: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud::ProviderConfig;

    fn quick_config() -> ThreatModel2Config {
        ThreatModel2Config {
            route_lengths_ps: vec![5_000.0, 10_000.0],
            routes_per_length: 4,
            victim_hours: 100,
            attack_hours: 25,
            condition_level: LogicLevel::Zero,
            mode: MeasurementMode::Oracle,
            seed: 13,
            measurement_repeats: 1,
            victim_hold_and_recover_hours: 0,
        }
    }

    #[test]
    fn type_b_data_recovered_after_scrub() {
        let mut provider = Provider::new(ProviderConfig::aws_f1_like(3, 5));
        let outcome = run(&mut provider, &quick_config()).unwrap();
        assert!(outcome.reacquired_victim_device);
        assert_eq!(outcome.metrics.bits, 8);
        assert!(
            outcome.metrics.accuracy >= 0.99,
            "oracle-mode recovery should be clean: {}",
            outcome.metrics.accuracy
        );
    }

    #[test]
    fn burn_one_routes_show_recovery_slope() {
        let mut provider = Provider::new(ProviderConfig::aws_f1_like(2, 6));
        let outcome = run(&mut provider, &quick_config()).unwrap();
        for s in &outcome.series {
            let slope = s.slope_ps_per_hour();
            if s.burn_value == LogicLevel::One {
                assert!(slope < 0.0, "burn-1 routes must recover: slope {slope}");
            }
        }
        // Burn-1 slopes dwarf burn-0 slopes.
        let mean_slope = |level: LogicLevel| {
            let v: Vec<f64> = outcome
                .series
                .iter()
                .filter(|s| s.burn_value == level)
                .map(RouteSeries::slope_ps_per_hour)
                .collect();
            crate::analysis::mean(&v)
        };
        assert!(mean_slope(LogicLevel::One).abs() > 3.0 * mean_slope(LogicLevel::Zero).abs());
    }

    #[test]
    fn hold_and_recover_mitigation_degrades_the_attack() {
        let mut provider = Provider::new(ProviderConfig::aws_f1_like(2, 7));
        let vulnerable = run(&mut provider, &quick_config()).unwrap();

        let mut provider = Provider::new(ProviderConfig::aws_f1_like(2, 7));
        let mut mitigated_config = quick_config();
        mitigated_config.victim_hold_and_recover_hours = 100;
        let mitigated = run(&mut provider, &mitigated_config).unwrap();

        let slope_gap = |o: &ThreatModel2Outcome| {
            let normalized = |level: LogicLevel| -> Vec<f64> {
                o.series
                    .iter()
                    .filter(|s| s.burn_value == level)
                    .map(|s| s.slope_ps_per_hour() / s.target_ps)
                    .collect()
            };
            (crate::analysis::mean(&normalized(LogicLevel::One))
                - crate::analysis::mean(&normalized(LogicLevel::Zero)))
            .abs()
        };
        assert!(
            slope_gap(&mitigated) < 0.35 * slope_gap(&vulnerable),
            "hold-and-recover should shrink the recovery signal: {} vs {}",
            slope_gap(&mitigated),
            slope_gap(&vulnerable)
        );
    }

    #[test]
    fn single_device_region_guarantees_reacquisition() {
        let mut provider = Provider::new(ProviderConfig::aws_f1_like(1, 8));
        let outcome = run(&mut provider, &quick_config()).unwrap();
        assert!(outcome.reacquired_victim_device);
    }
}
