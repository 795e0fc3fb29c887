//! A deliberate single-tenant temporal covert channel over BTI.
//!
//! The paper frames its attack against prior *covert* channels (Section
//! 7): thermal channels between consecutive tenants die within minutes,
//! while "BTI effects are a more pernicious temporal channel … it can
//! last hundreds of hours". This module makes that concrete: a
//! transmitting tenant *intentionally* burns a message into routing, and
//! a receiving tenant — hours later, after the scrub — reads it back with
//! the Threat Model 2 machinery.

use bti_physics::{Hours, LogicLevel};
use fpga_fabric::FpgaDevice;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::classify::{BitClassifier, RecoverySlopeClassifier};
use crate::designs::{build_condition_design, build_target_design};
use crate::{MeasurementMode, PentimentoError, RouteGroupSpec, RouteSeries, Skeleton};

/// Configuration of the BTI covert channel.
#[derive(Debug, Clone, PartialEq)]
pub struct CovertChannelConfig {
    /// Route length carrying each message bit, in picoseconds. Longer
    /// routes give a stronger, longer-lived symbol.
    pub route_ps: f64,
    /// Hours the transmitter holds the message (the "burn" time).
    pub transmit_hours: usize,
    /// Hours the receiver spends watching recovery.
    pub receive_hours: usize,
    /// Sensor pipeline or omniscient readings.
    pub mode: MeasurementMode,
    /// Sensor-noise seed.
    pub seed: u64,
}

impl Default for CovertChannelConfig {
    fn default() -> Self {
        Self {
            route_ps: 10_000.0,
            transmit_hours: 100,
            receive_hours: 25,
            mode: MeasurementMode::Oracle,
            seed: 0,
        }
    }
}

/// The result of one covert transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct CovertOutcome {
    /// The decoded message bits.
    pub decoded: Vec<bool>,
    /// Bit errors against the transmitted message.
    pub bit_errors: usize,
    /// Estimated channel capacity in bits, `n · (1 − H₂(BER))`.
    pub capacity_bits: f64,
    /// End-to-end channel latency in hours (transmit + gap + receive).
    pub latency_hours: f64,
}

/// Binary entropy `H₂(p)` in bits.
#[must_use]
pub fn binary_entropy(p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    if p == 0.0 || p == 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Transmits `message` through the analog remanence of `device` and
/// decodes it after a pool-idle `gap_hours` and the provider's scrub.
///
/// Timeline: transmitter burns the message for `transmit_hours` → scrub →
/// the board idles unrented for `gap_hours` → receiver conditions all
/// routes to 0 and watches `receive_hours` of recovery.
///
/// # Errors
///
/// Propagates routing/sensing failures.
pub fn transmit_and_receive(
    device: &mut FpgaDevice,
    message: &[bool],
    gap_hours: f64,
    config: &CovertChannelConfig,
) -> Result<CovertOutcome, PentimentoError> {
    if message.is_empty() {
        return Err(PentimentoError::InvalidConfig(
            "covert message must not be empty".to_owned(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC0_7E27);
    let skeleton = Skeleton::place(
        device,
        &[RouteGroupSpec {
            target_ps: config.route_ps,
            count: message.len(),
        }],
    )?;
    let values: Vec<LogicLevel> = message.iter().map(|&b| LogicLevel::from_bool(b)).collect();

    // Transmit epoch.
    device.load_design(build_target_design(&skeleton, &values))?;
    device.run_for(Hours::new(config.transmit_hours as f64));
    device.wipe();

    // The board sits in the pool.
    device.run_for(Hours::new(gap_hours.max(0.0)));

    // Receive epoch: sensors + condition-to-0 recovery watching.
    let mut sensors = Vec::new();
    if config.mode == MeasurementMode::Tdc {
        for entry in skeleton.entries() {
            let mut sensor =
                tdc::TdcSensor::place(device, entry.route.clone(), tdc::TdcConfig::cloud())?;
            sensor.calibrate(device, &mut rng)?;
            sensors.push(sensor);
        }
    }
    let mut hours_log = Vec::new();
    let mut readings: Vec<Vec<f64>> = vec![Vec::new(); skeleton.len()];
    let record = |hour: f64,
                  device: &FpgaDevice,
                  rng: &mut StdRng,
                  readings: &mut Vec<Vec<f64>>|
     -> Result<(), PentimentoError> {
        for (i, entry) in skeleton.entries().iter().enumerate() {
            let value = match config.mode {
                MeasurementMode::Oracle => device.route_delta_ps(&entry.route),
                MeasurementMode::Tdc => {
                    let mut acc = 0.0;
                    for _ in 0..8 {
                        acc += sensors[i].measure(device, rng)?.delta_ps;
                    }
                    acc / 8.0
                }
            };
            readings[i].push(value);
        }
        let _ = hour;
        Ok(())
    };
    hours_log.push(0.0);
    record(0.0, device, &mut rng, &mut readings)?;
    device.load_design(build_condition_design(&skeleton, LogicLevel::Zero))?;
    for hour in 1..=config.receive_hours {
        device.run_for(Hours::new(1.0));
        hours_log.push(hour as f64);
        record(hour as f64, device, &mut rng, &mut readings)?;
    }
    device.unload_design();

    let series: Vec<RouteSeries> = skeleton
        .entries()
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            RouteSeries::from_raw(
                i,
                entry.target_ps,
                values[i],
                hours_log.clone(),
                readings[i].clone(),
            )
        })
        .collect();

    let classifier = RecoverySlopeClassifier::calibrated(
        device.bti_model(),
        config.transmit_hours as f64,
        config.receive_hours as f64,
        device
            .thermal()
            .die_temperature(crate::designs::ARITHMETIC_HEAVY_WATTS),
        device
            .thermal()
            .die_temperature(crate::designs::CONDITION_WATTS),
        device.wear_factor(),
    );
    let decoded: Vec<bool> = classifier
        .classify_all(&series)
        .into_iter()
        .map(LogicLevel::as_bool)
        .collect();
    let bit_errors = decoded.iter().zip(message).filter(|(a, b)| a != b).count();
    let ber = bit_errors as f64 / message.len() as f64;
    Ok(CovertOutcome {
        decoded,
        bit_errors,
        capacity_bits: message.len() as f64 * (1.0 - binary_entropy(ber)),
        latency_hours: config.transmit_hours as f64 + gap_hours + config.receive_hours as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message() -> Vec<bool> {
        vec![true, false, true, true, false, false, true, false]
    }

    #[test]
    fn message_survives_scrub_and_pool_idle() {
        let mut device = FpgaDevice::zcu102_new(71);
        let outcome = transmit_and_receive(
            &mut device,
            &message(),
            24.0, // a full day in the pool
            &CovertChannelConfig::default(),
        )
        .expect("channel runs");
        assert_eq!(outcome.bit_errors, 0, "decoded {:?}", outcome.decoded);
        assert!(outcome.capacity_bits > 7.9);
        assert!(outcome.latency_hours >= 149.0);
    }

    #[test]
    fn channel_degrades_gracefully_with_long_gaps() {
        // After 300 idle hours the recoverable (PBTI) part has mostly
        // emitted; capacity collapses.
        let mut fresh_gap = FpgaDevice::zcu102_new(72);
        let short = transmit_and_receive(
            &mut fresh_gap,
            &message(),
            2.0,
            &CovertChannelConfig::default(),
        )
        .expect("runs");
        let mut long_gap = FpgaDevice::zcu102_new(72);
        let long = transmit_and_receive(
            &mut long_gap,
            &message(),
            600.0,
            &CovertChannelConfig::default(),
        )
        .expect("runs");
        assert!(long.capacity_bits <= short.capacity_bits);
    }

    #[test]
    fn binary_entropy_extremes() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(binary_entropy(0.11) < 0.6);
    }

    #[test]
    fn empty_message_rejected() {
        let mut device = FpgaDevice::zcu102_new(73);
        assert!(
            transmit_and_receive(&mut device, &[], 0.0, &CovertChannelConfig::default()).is_err()
        );
    }

    #[test]
    fn tdc_mode_decodes_on_a_new_device() {
        let mut device = FpgaDevice::zcu102_new(74);
        let config = CovertChannelConfig {
            mode: MeasurementMode::Tdc,
            seed: 74,
            ..CovertChannelConfig::default()
        };
        let outcome = transmit_and_receive(&mut device, &message(), 5.0, &config).expect("runs");
        assert!(
            outcome.bit_errors <= 1,
            "TDC decode errors: {} of 8",
            outcome.bit_errors
        );
    }
}
