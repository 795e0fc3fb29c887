//! Threat Model 1: proprietary design data extraction (Experiment 2).
//!
//! The attacker rents a sealed marketplace AFI whose netlist constants
//! hold **Type A** secrets (keys, ML weights). AWS guarantees "no FPGA
//! internal design code is exposed" — and indeed the attacker never reads
//! the bitstream. Instead they: measure the secret-carrying routes before
//! burn-in, run the design for hundreds of hours, keep measuring, and
//! classify every bit from the drift direction of `Δps`.

use bti_physics::{Hours, LogicLevel};
use cloud::{Provider, TenantId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::campaign::{run_benign, Mission};
use crate::classify::{BitClassifier, DriftSlopeClassifier};
use crate::designs::build_target_design;
use crate::metrics::RecoveryMetrics;
use crate::{MeasurementMode, PentimentoError, RouteGroupSpec, RouteSeries, Skeleton};

/// Configuration of a Threat Model 1 run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreatModel1Config {
    /// Route-length groups of the victim design (paper: 4×16).
    pub route_lengths_ps: Vec<f64>,
    /// Routes per group.
    pub routes_per_length: usize,
    /// How long the attacker keeps conditioning, in hours (paper: 200).
    pub burn_hours: usize,
    /// Hours between measurements (paper: 1).
    pub measure_every: usize,
    /// Sensor pipeline or omniscient readings.
    pub mode: MeasurementMode,
    /// Seed for the vendor's secret and the sensor noise.
    pub seed: u64,
    /// Back-to-back sensor measurements averaged per recorded point.
    /// Measurement takes ~33 s (the paper), so an hourly cadence leaves
    /// room for several; averaging beats the TDC noise floor down.
    pub measurement_repeats: usize,
}

impl ThreatModel1Config {
    /// The paper's Experiment 2 configuration.
    #[must_use]
    pub fn paper_experiment2(seed: u64) -> Self {
        Self {
            route_lengths_ps: vec![1_000.0, 2_000.0, 5_000.0, 10_000.0],
            routes_per_length: 16,
            burn_hours: 200,
            measure_every: 1,
            mode: MeasurementMode::Tdc,
            seed,
            measurement_repeats: 4,
        }
    }
}

/// Everything the run produced: the attacker's series and recovered bits,
/// plus the vendor-side ground truth for scoring.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreatModel1Outcome {
    /// Per-route measurement series (attacker view, truth labels attached
    /// for scoring only).
    pub series: Vec<RouteSeries>,
    /// The bits the attacker recovered.
    pub recovered: Vec<LogicLevel>,
    /// The vendor's actual secret.
    pub truth: Vec<LogicLevel>,
    /// Attack quality.
    pub metrics: RecoveryMetrics,
}

/// Runs Threat Model 1 against a provider.
///
/// Steps (Section 2, Threat Model 1): a vendor publishes a sealed AFI
/// whose constants are the secret `X`; the attacker rents an instance,
/// reconstructs the route skeleton (Assumption 1), gathers pre-burn
/// baselines, loads and runs the AFI for `burn_hours` while measuring
/// every `measure_every` hours, and classifies each bit from the drift
/// slope.
///
/// This is a benign [`Campaign`](crate::Campaign) — default
/// [`CampaignConfig`](crate::CampaignConfig), so no fault plan — run
/// against `provider`, which keeps its recorder and stays usable after
/// the run.
///
/// # Errors
///
/// Propagates cloud, fabric, and sensor failures.
pub fn run(
    provider: &mut Provider,
    config: &ThreatModel1Config,
) -> Result<ThreatModel1Outcome, PentimentoError> {
    let o = run_benign(provider, Mission::ThreatModel1(config.clone()))?;
    Ok(ThreatModel1Outcome {
        series: o.series,
        recovered: o.recovered,
        truth: o.truth,
        metrics: o.metrics,
    })
}

/// A Threat Model 1 run against a design whose skeleton the attacker got
/// *wrong* — removing Assumption 1. The vendor places the secret on one
/// skeleton, but the attacker senses a different, disjoint one.
///
/// # Errors
///
/// Propagates cloud, fabric, and sensor failures.
pub fn run_with_wrong_skeleton(
    provider: &mut Provider,
    config: &ThreatModel1Config,
) -> Result<ThreatModel1Outcome, PentimentoError> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0BAD_5EED);
    let attacker = TenantId::new("attacker");
    let session = provider.rent(attacker)?;
    let specs: Vec<RouteGroupSpec> = config
        .route_lengths_ps
        .iter()
        .map(|&target_ps| RouteGroupSpec {
            target_ps,
            count: config.routes_per_length,
        })
        .collect();
    // Vendor's real skeleton...
    let device = provider.device(&session)?;
    let real = Skeleton::place(device, &specs)?;
    // ...and the attacker's wrong guess: same shape, disjoint wires. We
    // build it by packing a second copy after the first (the packer avoids
    // the real skeleton's wires).
    let wrong = {
        // Re-pack the real targets first (reclaiming the true wires), so
        // the attacker's guessed copy lands on disjoint silicon.
        let mut packer = fpga_fabric::RoutePacker::new(device, 2);
        let mut targets: Vec<f64> = Vec::new();
        for spec in &specs {
            targets.extend(std::iter::repeat_n(spec.target_ps, spec.count));
        }
        let _real_again = packer.pack_all(&targets)?;
        packer.pack_all(&targets)?
    };

    let truth: Vec<LogicLevel> = (0..real.len())
        .map(|_| LogicLevel::from_bool(rng.gen()))
        .collect();
    let design = build_target_design(&real, &truth);
    provider.load_design(&session, design)?;
    for _ in 0..config.burn_hours {
        provider.advance_time(Hours::new(1.0));
    }

    // Attacker measures the wrong wires: pre/post difference carries no
    // information about X.
    let device = provider.device(&session)?;
    let series: Vec<RouteSeries> = wrong
        .iter()
        .enumerate()
        .map(|(i, route)| {
            RouteSeries::from_raw(
                i,
                route.nominal_ps(),
                truth[i],
                vec![0.0, config.burn_hours as f64],
                vec![0.0, device.route_delta_ps(route)],
            )
        })
        .collect();
    provider.unload(&session)?;
    provider.release(session)?;

    let recovered = DriftSlopeClassifier::new().classify_all(&series);
    let metrics = RecoveryMetrics::score(&series, &recovered);
    Ok(ThreatModel1Outcome {
        series,
        recovered,
        truth,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud::ProviderConfig;

    fn quick_config() -> ThreatModel1Config {
        ThreatModel1Config {
            route_lengths_ps: vec![5_000.0, 10_000.0],
            routes_per_length: 4,
            burn_hours: 60,
            measure_every: 10,
            mode: MeasurementMode::Oracle,
            seed: 11,
            measurement_repeats: 1,
        }
    }

    #[test]
    fn type_a_data_is_recoverable_from_a_sealed_afi() {
        let mut provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
        let outcome = run(&mut provider, &quick_config()).unwrap();
        assert_eq!(outcome.metrics.bits, 8);
        assert_eq!(outcome.metrics.accuracy, 1.0, "oracle mode, aged device");
        assert_eq!(outcome.recovered, outcome.truth);
    }

    #[test]
    fn aged_cloud_imprints_are_smaller_than_lab() {
        let mut provider = Provider::new(ProviderConfig::aws_f1_like(1, 2));
        let outcome = run(&mut provider, &quick_config()).unwrap();
        for s in &outcome.series {
            // 60 h on a worn device: well under a picosecond per 10000 ps.
            assert!(
                s.last_delta_ps().abs() < 2.0,
                "cloud imprint unexpectedly large: {}",
                s.last_delta_ps()
            );
        }
    }

    #[test]
    fn wrong_skeleton_defeats_the_attack() {
        let mut provider = Provider::new(ProviderConfig::aws_f1_like(1, 3));
        let mut config = quick_config();
        config.routes_per_length = 8;
        let outcome = run_with_wrong_skeleton(&mut provider, &config).unwrap();
        // Without Assumption 1 the recovered bits are uninformative:
        // accuracy collapses toward chance.
        assert!(
            outcome.metrics.accuracy < 0.8,
            "wrong skeleton should not recover bits: accuracy {}",
            outcome.metrics.accuracy
        );
        for s in &outcome.series {
            assert!(s.last_delta_ps().abs() < 0.05);
        }
    }
}
