//! Sensor configuration.

use serde::{Deserialize, Serialize};

use crate::{CaptureWord, TdcError};

/// Configuration of a TDC sensor instance.
///
/// The defaults mirror the paper's setup: a 64-element carry chain, traces
/// of 2⁴ samples, ten traces per measurement with the phase stepped down
/// one carry bit (≈ 2.8 ps) between traces to average out chain
/// non-uniformity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TdcConfig {
    /// Number of carry-chain delay elements / capture registers, at most
    /// [`CaptureWord::MAX_BITS`].
    pub chain_length: usize,
    /// Samples per trace (the paper uses 2⁴ = 16).
    pub samples_per_trace: usize,
    /// Traces per measurement, each at a slightly smaller θ (paper: 10).
    pub traces_per_measurement: usize,
    /// θ decrement between consecutive traces, in picoseconds.
    pub theta_step_ps: f64,
    /// RMS timing jitter per sample (clock + supply noise), in
    /// picoseconds. This jitter is also what dithers the 2.8 ps quantizer
    /// and lets averaging resolve sub-bit delay changes.
    pub jitter_sigma_ps: f64,
    /// Width of the metastable capture window around the transition
    /// front, in picoseconds.
    pub metastable_window_ps: f64,
}

impl TdcConfig {
    /// Lab-bench conditions: a quiet board in a temperature-controlled
    /// oven (Experiment 1).
    #[must_use]
    pub fn lab() -> Self {
        Self {
            chain_length: 64,
            samples_per_trace: 16,
            traces_per_measurement: 10,
            theta_step_ps: 2.8,
            jitter_sigma_ps: 2.5,
            metastable_window_ps: 1.5,
        }
    }

    /// Cloud conditions: shared supply, uncontrolled temperature, busy
    /// shell logic (Experiments 2 and 3). Noisier than the lab.
    #[must_use]
    pub fn cloud() -> Self {
        Self {
            jitter_sigma_ps: 3.5,
            ..Self::lab()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::InvalidConfig`] when any field is out of range.
    pub fn validate(&self) -> Result<(), TdcError> {
        if self.chain_length == 0 {
            return Err(TdcError::InvalidConfig("chain_length must be positive"));
        }
        if self.chain_length > CaptureWord::MAX_BITS {
            return Err(TdcError::InvalidConfig(
                "chain_length must not exceed CaptureWord::MAX_BITS (256)",
            ));
        }
        if self.samples_per_trace == 0 {
            return Err(TdcError::InvalidConfig(
                "samples_per_trace must be positive",
            ));
        }
        if self.traces_per_measurement == 0 {
            return Err(TdcError::InvalidConfig(
                "traces_per_measurement must be positive",
            ));
        }
        if self.theta_step_ps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || !self.theta_step_ps.is_finite()
        {
            return Err(TdcError::InvalidConfig("theta_step_ps must be positive"));
        }
        if self.jitter_sigma_ps < 0.0 || !self.jitter_sigma_ps.is_finite() {
            return Err(TdcError::InvalidConfig(
                "jitter_sigma_ps must be non-negative",
            ));
        }
        if self.metastable_window_ps < 0.0 || !self.metastable_window_ps.is_finite() {
            return Err(TdcError::InvalidConfig(
                "metastable_window_ps must be non-negative",
            ));
        }
        Ok(())
    }

    /// Total samples contributing to one measurement.
    #[must_use]
    pub fn samples_per_measurement(&self) -> usize {
        self.samples_per_trace * self.traces_per_measurement
    }
}

impl Default for TdcConfig {
    fn default() -> Self {
        Self::lab()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        TdcConfig::lab().validate().unwrap();
        TdcConfig::cloud().validate().unwrap();
        TdcConfig::default().validate().unwrap();
    }

    #[test]
    fn cloud_is_noisier_than_lab() {
        assert!(TdcConfig::cloud().jitter_sigma_ps > TdcConfig::lab().jitter_sigma_ps);
    }

    #[test]
    fn paper_sample_budget() {
        let c = TdcConfig::lab();
        assert_eq!(c.samples_per_measurement(), 160);
    }

    #[test]
    fn bad_configs_rejected() {
        for bad in [
            TdcConfig {
                chain_length: 0,
                ..TdcConfig::lab()
            },
            TdcConfig {
                chain_length: CaptureWord::MAX_BITS + 1,
                ..TdcConfig::lab()
            },
            TdcConfig {
                samples_per_trace: 0,
                ..TdcConfig::lab()
            },
            TdcConfig {
                traces_per_measurement: 0,
                ..TdcConfig::lab()
            },
            TdcConfig {
                theta_step_ps: 0.0,
                ..TdcConfig::lab()
            },
            TdcConfig {
                jitter_sigma_ps: -1.0,
                ..TdcConfig::lab()
            },
            TdcConfig {
                metastable_window_ps: f64::NAN,
                ..TdcConfig::lab()
            },
        ] {
            assert!(matches!(bad.validate(), Err(TdcError::InvalidConfig(_))));
        }
        for good in [1, 64, 128, CaptureWord::MAX_BITS] {
            let config = TdcConfig {
                chain_length: good,
                ..TdcConfig::lab()
            };
            config.validate().unwrap();
        }
    }
}
