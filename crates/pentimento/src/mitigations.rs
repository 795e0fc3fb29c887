//! The Section 8 mitigation suite, implemented and measurable.
//!
//! Each mitigation is evaluated inside the same Threat-Model-2-shaped
//! timeline (victim computes → scrub → attacker watches recovery) so the
//! numbers are comparable: what matters is how far the attack accuracy
//! falls and how much of the class-separating recovery signal survives.
//!
//! Beyond the paper's qualitative list, two defenses get quantitative
//! treatment here because their failure modes are subtle:
//!
//! * **Key rotation** only protects keys that *expire*: the attacker
//!   still recovers the most recent key, just with a shorter burn.
//! * **Masking does not remove the leak** — with a fixed mask both
//!   shares burn in fully, and XOR-ing the recovered shares yields the
//!   key. Re-randomizing the mask every few hours *weakens* the imprint
//!   to that of the final epoch, but because the key itself never
//!   changes, the final share pair still XORs to it: a noiseless sensor
//!   keeps recovering the key. Masking must be combined with a terminal
//!   scrub (hold-and-recover) or key expiry to actually help.

use std::fmt;

use bti_physics::{DutyCycle, Hours, LogicLevel};
use fpga_fabric::{Design, FpgaDevice, NetActivity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::analysis::mean;
use crate::classify::{BitClassifier, RecoverySlopeClassifier};
use crate::designs::build_condition_design;
use crate::metrics::{accuracy, separation_dprime, RecoveryMetrics};
use crate::{PentimentoError, RouteGroupSpec, RouteSeries, Skeleton};

const VICTIM_HOURS: usize = 200;
const ATTACK_HOURS: usize = 25;

/// A defense against pentimento recovery (Section 8).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Mitigation {
    /// No defense: the vulnerable baseline.
    None,
    /// User: periodically invert the sensitive data (duty cycle 0.5 on
    /// every route).
    PeriodicInversion,
    /// User: deterministically shuffle data across routes; each route sees
    /// a balanced mix of values over time.
    DataShuffling,
    /// User/tools: place sensitive data on routes scaled down by this
    /// factor (shorter routes, fewer stressed transistors).
    ShortRoutes {
        /// Length multiplier in `(0, 1]`.
        scale: f64,
    },
    /// User: after computing, hold the instance for the given hours while
    /// toggling the sensitive routes (a static complement would merely
    /// burn in X̄), then release.
    HoldAndRecover {
        /// Extra hours the victim pays for.
        hours: usize,
    },
    /// Provider: quarantine returned boards for the given hours before
    /// re-renting (launch rate control, Section 8.2).
    ProviderQuarantine {
        /// Hours the device relaxes in the pool.
        hours: usize,
    },
    /// User: replace the key with a fresh one every `period_hours`. The
    /// attacker recovers the *last* key with a `period_hours` burn.
    KeyRotation {
        /// Hours between re-keying events.
        period_hours: usize,
    },
    /// User: split the secret into two XOR shares on disjoint routes.
    /// With `rotation_period_hours: None` the mask is fixed for the whole
    /// run — and the defense fails outright. With `Some(p)` the shares
    /// re-randomize every `p` hours, which shrinks the imprint to the
    /// final epoch's but still leaks the (static) key to a sharp sensor.
    MaskedShares {
        /// Re-randomization period; `None` = fixed mask.
        rotation_period_hours: Option<usize>,
    },
}

impl fmt::Display for Mitigation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::None => f.write_str("none (vulnerable baseline)"),
            Self::PeriodicInversion => f.write_str("periodic data inversion"),
            Self::DataShuffling => f.write_str("deterministic data shuffling"),
            Self::ShortRoutes { scale } => write!(f, "route shortening (x{scale})"),
            Self::HoldAndRecover { hours } => write!(f, "hold-and-recover ({hours} h)"),
            Self::ProviderQuarantine { hours } => write!(f, "provider quarantine ({hours} h)"),
            Self::KeyRotation { period_hours } => {
                write!(f, "key rotation (every {period_hours} h)")
            }
            Self::MaskedShares {
                rotation_period_hours: None,
            } => f.write_str("masking (fixed mask)"),
            Self::MaskedShares {
                rotation_period_hours: Some(p),
            } => write!(f, "masking (mask rotated every {p} h)"),
        }
    }
}

/// The outcome of evaluating one mitigation.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationReport {
    /// The mitigation evaluated.
    pub mitigation: Mitigation,
    /// Attack quality against the mitigated victim (for masked schemes,
    /// accuracy of the *reconstructed key*, not the raw shares).
    pub metrics: RecoveryMetrics,
    /// Absolute gap between the mean *length-normalized* recovery slopes
    /// of burn-1 and burn-0 routes, in ps/hour per picosecond of route
    /// length — the raw signal the classifier feeds on, made comparable
    /// across layouts.
    pub slope_gap_ps_per_hour: f64,
    /// The same gap without length normalization, in ps/hour. This is
    /// what a real sensor has to resolve against its noise floor, so it
    /// is the number route shortening improves.
    pub absolute_gap_ps_per_hour: f64,
}

/// The shared Threat-Model-2-shaped harness the mitigations plug into.
struct Harness {
    device: FpgaDevice,
    skeleton: Skeleton,
    rng: StdRng,
}

impl Harness {
    fn new(seed: u64, scale: f64, route_count_multiplier: usize) -> Result<Self, PentimentoError> {
        let device = FpgaDevice::aws_f1(seed, Hours::new(3.0 * 365.0 * 24.0));
        let specs = [
            RouteGroupSpec {
                target_ps: (5_000.0 * scale).max(100.0),
                count: 8 * route_count_multiplier,
            },
            RouteGroupSpec {
                target_ps: (10_000.0 * scale).max(200.0),
                count: 8 * route_count_multiplier,
            },
        ];
        let skeleton = Skeleton::place(&device, &specs)?;
        Ok(Self {
            device,
            skeleton,
            rng: StdRng::seed_from_u64(seed ^ 0x417_16473),
        })
    }

    fn random_bits(&mut self, n: usize) -> Vec<LogicLevel> {
        (0..n)
            .map(|_| LogicLevel::from_bool(self.rng.gen()))
            .collect()
    }

    /// Runs one victim epoch with explicit per-route activities.
    fn victim_epoch(
        &mut self,
        activities: &[NetActivity],
        hours: usize,
    ) -> Result<(), PentimentoError> {
        let mut victim = Design::new("victim");
        victim.set_power_watts(crate::designs::ARITHMETIC_HEAVY_WATTS);
        for (i, (entry, activity)) in self.skeleton.entries().iter().zip(activities).enumerate() {
            victim.add_net(format!("secret[{i}]"), *activity, Some(entry.route.clone()));
        }
        self.device.load_design(victim)?;
        self.device.run_for(Hours::new(hours as f64));
        self.device.unload_design();
        Ok(())
    }

    /// The attacker's recovery-watching phase; labels come from `truth`.
    fn attack_phase(&mut self, truth: &[LogicLevel]) -> Result<Vec<RouteSeries>, PentimentoError> {
        let mut hours_log = vec![0.0];
        let mut readings: Vec<Vec<f64>> = self
            .skeleton
            .routes()
            .map(|r| vec![self.device.route_delta_ps(r)])
            .collect();
        self.device
            .load_design(build_condition_design(&self.skeleton, LogicLevel::Zero))?;
        for hour in 1..=ATTACK_HOURS {
            self.device.run_for(Hours::new(1.0));
            hours_log.push(hour as f64);
            for (per_route, route) in readings.iter_mut().zip(self.skeleton.routes()) {
                per_route.push(self.device.route_delta_ps(route));
            }
        }
        self.device.unload_design();
        Ok(self
            .skeleton
            .entries()
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                RouteSeries::from_raw(
                    i,
                    entry.target_ps,
                    truth[i],
                    hours_log.clone(),
                    readings[i].clone(),
                )
            })
            .collect())
    }

    fn classifier(&self) -> RecoverySlopeClassifier {
        RecoverySlopeClassifier::calibrated(
            self.device.bti_model(),
            VICTIM_HOURS as f64,
            ATTACK_HOURS as f64,
            self.device
                .thermal()
                .die_temperature(crate::designs::ARITHMETIC_HEAVY_WATTS),
            self.device
                .thermal()
                .die_temperature(crate::designs::CONDITION_WATTS),
            self.device.wear_factor(),
        )
    }
}

fn slope_gaps(series: &[RouteSeries]) -> (f64, f64) {
    let normalized = |level: LogicLevel| {
        let v: Vec<f64> = series
            .iter()
            .filter(|s| s.burn_value == level)
            .map(|s| s.slope_ps_per_hour() / s.target_ps)
            .collect();
        mean(&v)
    };
    let absolute = |level: LogicLevel| {
        let v: Vec<f64> = series
            .iter()
            .filter(|s| s.burn_value == level)
            .map(RouteSeries::slope_ps_per_hour)
            .collect();
        mean(&v)
    };
    (
        (normalized(LogicLevel::One) - normalized(LogicLevel::Zero)).abs(),
        (absolute(LogicLevel::One) - absolute(LogicLevel::Zero)).abs(),
    )
}

/// Evaluates one mitigation inside a Threat-Model-2 timeline on an aged
/// cloud device (oracle measurements; the sensor pipeline is orthogonal
/// to mitigation effectiveness).
///
/// # Errors
///
/// Propagates routing failures and rejects invalid parameters.
pub fn evaluate_mitigation(
    mitigation: Mitigation,
    seed: u64,
) -> Result<MitigationReport, PentimentoError> {
    match mitigation {
        Mitigation::MaskedShares {
            rotation_period_hours,
        } => evaluate_masking(mitigation, rotation_period_hours, seed),
        _ => evaluate_plain(mitigation, seed),
    }
}

fn evaluate_plain(mitigation: Mitigation, seed: u64) -> Result<MitigationReport, PentimentoError> {
    let scale = match mitigation {
        Mitigation::ShortRoutes { scale } => {
            if !(scale > 0.0 && scale <= 1.0) {
                return Err(PentimentoError::InvalidConfig(
                    "route-shortening scale must be in (0, 1]".to_owned(),
                ));
            }
            scale
        }
        _ => 1.0,
    };
    let mut harness = Harness::new(seed, scale, 1)?;
    let truth = harness.random_bits(harness.skeleton.len());

    match mitigation {
        Mitigation::PeriodicInversion | Mitigation::DataShuffling => {
            let activities = vec![NetActivity::Duty(DutyCycle::BALANCED); truth.len()];
            harness.victim_epoch(&activities, VICTIM_HOURS)?;
        }
        Mitigation::KeyRotation { period_hours } => {
            if period_hours == 0 {
                return Err(PentimentoError::InvalidConfig(
                    "rotation period must be positive".to_owned(),
                ));
            }
            // Fresh random key every period; the scored truth is the last
            // epoch's key (the one still worth stealing).
            let mut remaining = VICTIM_HOURS;
            let mut current = truth.clone();
            while remaining > 0 {
                let epoch = period_hours.min(remaining);
                current = harness.random_bits(truth.len());
                let activities: Vec<NetActivity> =
                    current.iter().map(|&v| NetActivity::Static(v)).collect();
                harness.victim_epoch(&activities, epoch)?;
                remaining -= epoch;
            }
            harness.device.wipe();
            let series = harness.attack_phase(&current)?;
            return finish(mitigation, &harness, series);
        }
        _ => {
            let activities: Vec<NetActivity> =
                truth.iter().map(|&v| NetActivity::Static(v)).collect();
            harness.victim_epoch(&activities, VICTIM_HOURS)?;
        }
    }

    if let Mitigation::HoldAndRecover { hours } = mitigation {
        let activities = vec![NetActivity::Duty(DutyCycle::BALANCED); truth.len()];
        harness.victim_epoch(&activities, hours)?;
    }
    harness.device.wipe();
    if let Mitigation::ProviderQuarantine { hours } = mitigation {
        harness.device.run_for(Hours::new(hours as f64));
    }

    let series = harness.attack_phase(&truth)?;
    finish(mitigation, &harness, series)
}

fn finish(
    mitigation: Mitigation,
    harness: &Harness,
    series: Vec<RouteSeries>,
) -> Result<MitigationReport, PentimentoError> {
    let recovered = harness.classifier().classify_all(&series);
    let metrics = RecoveryMetrics::score(&series, &recovered);
    let (slope_gap_ps_per_hour, absolute_gap_ps_per_hour) = slope_gaps(&series);
    Ok(MitigationReport {
        mitigation,
        metrics,
        slope_gap_ps_per_hour,
        absolute_gap_ps_per_hour,
    })
}

fn evaluate_masking(
    mitigation: Mitigation,
    rotation_period_hours: Option<usize>,
    seed: u64,
) -> Result<MitigationReport, PentimentoError> {
    // Twice the routes: the first half holds share A, the second share B,
    // with key[i] = A[i] XOR B[i]. The skeleton interleaves lengths, so
    // pair share routes by position within each length group.
    let mut harness = Harness::new(seed, 1.0, 2)?;
    let n_routes = harness.skeleton.len();
    let n_key = n_routes / 2;
    let key = harness.random_bits(n_key);

    let epoch_len = rotation_period_hours.unwrap_or(VICTIM_HOURS).max(1);
    let mut remaining = VICTIM_HOURS;
    let mut shares_a: Vec<LogicLevel> = Vec::new();
    let mut shares_b: Vec<LogicLevel> = Vec::new();
    while remaining > 0 {
        let epoch = epoch_len.min(remaining);
        let mask = harness.random_bits(n_key);
        shares_b = key
            .iter()
            .zip(&mask)
            .map(|(&k, &m)| LogicLevel::from_bool(k.as_bool() ^ m.as_bool()))
            .collect();
        shares_a = mask;
        let activities: Vec<NetActivity> = shares_a
            .iter()
            .chain(&shares_b)
            .map(|&v| NetActivity::Static(v))
            .collect();
        harness.victim_epoch(&activities, epoch)?;
        remaining -= epoch;
    }
    harness.device.wipe();

    // Label the series with the final epoch's shares (the analog truth).
    let truth: Vec<LogicLevel> = shares_a.iter().chain(&shares_b).copied().collect();
    let series = harness.attack_phase(&truth)?;
    let recovered_shares = harness.classifier().classify_all(&series);

    // The attacker reconstructs the key by XOR-ing the recovered shares.
    let recovered_key: Vec<LogicLevel> = (0..n_key)
        .map(|i| {
            LogicLevel::from_bool(
                recovered_shares[i].as_bool() ^ recovered_shares[n_key + i].as_bool(),
            )
        })
        .collect();
    let key_accuracy = accuracy(&recovered_key, &key);
    let dprime = separation_dprime(&series, RouteSeries::slope_ps_per_hour);
    let (slope_gap_ps_per_hour, absolute_gap_ps_per_hour) = slope_gaps(&series);
    Ok(MitigationReport {
        mitigation,
        metrics: RecoveryMetrics {
            bits: n_key,
            accuracy: key_accuracy,
            dprime,
        },
        slope_gap_ps_per_hour,
        absolute_gap_ps_per_hour,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_attack_succeeds() {
        let report = evaluate_mitigation(Mitigation::None, 3).unwrap();
        assert!(report.metrics.accuracy >= 0.9, "{:?}", report.metrics);
        assert!(report.slope_gap_ps_per_hour > 0.0);
    }

    #[test]
    fn inversion_erases_the_bit_signal() {
        let baseline = evaluate_mitigation(Mitigation::None, 4).unwrap();
        let inverted = evaluate_mitigation(Mitigation::PeriodicInversion, 4).unwrap();
        assert!(
            inverted.slope_gap_ps_per_hour < 0.1 * baseline.slope_gap_ps_per_hour,
            "inversion gap {} vs baseline {}",
            inverted.slope_gap_ps_per_hour,
            baseline.slope_gap_ps_per_hour
        );
        assert!(inverted.metrics.accuracy < 0.75);
    }

    #[test]
    fn shorter_routes_shrink_the_signal() {
        let baseline = evaluate_mitigation(Mitigation::None, 5).unwrap();
        let short = evaluate_mitigation(Mitigation::ShortRoutes { scale: 0.1 }, 5).unwrap();
        // Shortening does not change the per-ps physics (the normalized
        // gap survives) but shrinks what a sensor must resolve.
        assert!(short.absolute_gap_ps_per_hour < 0.25 * baseline.absolute_gap_ps_per_hour);
        assert!(short.slope_gap_ps_per_hour > 0.25 * baseline.slope_gap_ps_per_hour);
    }

    #[test]
    fn quarantine_decays_the_signal() {
        let baseline = evaluate_mitigation(Mitigation::None, 6).unwrap();
        let quarantined =
            evaluate_mitigation(Mitigation::ProviderQuarantine { hours: 500 }, 6).unwrap();
        assert!(
            quarantined.slope_gap_ps_per_hour < 0.5 * baseline.slope_gap_ps_per_hour,
            "quarantine gap {} vs baseline {}",
            quarantined.slope_gap_ps_per_hour,
            baseline.slope_gap_ps_per_hour
        );
    }

    #[test]
    fn rotation_weakens_but_does_not_stop_the_last_key() {
        let baseline = evaluate_mitigation(Mitigation::None, 7).unwrap();
        let rotated = evaluate_mitigation(Mitigation::KeyRotation { period_hours: 10 }, 7).unwrap();
        // The final key only burned ~10 h, so its imprint is much weaker...
        assert!(
            rotated.slope_gap_ps_per_hour < 0.6 * baseline.slope_gap_ps_per_hour,
            "rotated {} vs baseline {}",
            rotated.slope_gap_ps_per_hour,
            baseline.slope_gap_ps_per_hour
        );
        // ...but with a noiseless sensor the last key still leaks: the
        // defense only works when combined with key *expiry*.
        assert!(rotated.metrics.accuracy > 0.8, "{:?}", rotated.metrics);
    }

    #[test]
    fn fixed_mask_does_not_stop_the_attack() {
        let masked = evaluate_mitigation(
            Mitigation::MaskedShares {
                rotation_period_hours: None,
            },
            8,
        )
        .unwrap();
        assert!(
            masked.metrics.accuracy >= 0.9,
            "XOR of recovered shares should yield the key: {:?}",
            masked.metrics
        );
    }

    #[test]
    fn rotating_mask_weakens_but_does_not_remove_the_leak() {
        // The subtle failure mode: the mask rotates but the key does not,
        // so the final share pair still XORs to the key. The signal drops
        // to a single epoch's imprint — real sensors will struggle — but
        // an oracle still reads it.
        let fixed = evaluate_mitigation(
            Mitigation::MaskedShares {
                rotation_period_hours: None,
            },
            9,
        )
        .unwrap();
        let rotated = evaluate_mitigation(
            Mitigation::MaskedShares {
                rotation_period_hours: Some(5),
            },
            9,
        )
        .unwrap();
        assert!(
            rotated.slope_gap_ps_per_hour < 0.5 * fixed.slope_gap_ps_per_hour,
            "rotation must shrink the share imprint: {} vs {}",
            rotated.slope_gap_ps_per_hour,
            fixed.slope_gap_ps_per_hour
        );
        assert!(
            rotated.metrics.accuracy > 0.6,
            "the residual final-epoch imprint still leaks the static key: {:?}",
            rotated.metrics
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(evaluate_mitigation(Mitigation::ShortRoutes { scale: 0.0 }, 7).is_err());
        assert!(evaluate_mitigation(Mitigation::ShortRoutes { scale: 1.5 }, 7).is_err());
        assert!(evaluate_mitigation(Mitigation::KeyRotation { period_hours: 0 }, 7).is_err());
    }
}
