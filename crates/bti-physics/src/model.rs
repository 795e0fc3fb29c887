//! The calibrated BTI model: per-polarity kinetics and delay sensitivity.

use crate::{arrhenius_acceleration, BtiError, Celsius, Polarity, TrapBank};

/// Kinetic and sensitivity parameters for one BTI polarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolarityParams {
    /// Number of recoverable trap bins in the CET discretization.
    pub bin_count: usize,
    /// Capture time-constant range `(min, max)` in hours at the reference
    /// temperature.
    pub tau_capture_range: (f64, f64),
    /// Emission time-constant range `(min, max)` in hours at the reference
    /// temperature.
    pub tau_emission_range: (f64, f64),
    /// Fraction of the trap population that never recovers.
    pub permanent_fraction: f64,
    /// Delay sensitivity: picoseconds of added transition delay per
    /// picosecond of nominal route length, per unit of normalized
    /// threshold-voltage shift.
    pub sensitivity: f64,
    /// Arrhenius activation energy of trap capture, in eV.
    pub ea_capture: f64,
    /// Arrhenius activation energy of trap emission, in eV.
    pub ea_emission: f64,
}

impl PolarityParams {
    fn validate(&self, which: &'static str) -> Result<(), BtiError> {
        let checks: [(&'static str, f64, bool); 4] = [
            ("sensitivity", self.sensitivity, self.sensitivity > 0.0),
            ("ea_capture", self.ea_capture, self.ea_capture >= 0.0),
            ("ea_emission", self.ea_emission, self.ea_emission >= 0.0),
            (
                "permanent_fraction",
                self.permanent_fraction,
                (0.0..1.0).contains(&self.permanent_fraction),
            ),
        ];
        for (name, value, ok) in checks {
            if !ok || !value.is_finite() {
                // `which` is implicit in the error context; parameter names
                // are unique enough for diagnosis.
                let _ = which;
                return Err(BtiError::InvalidParameter {
                    name,
                    value,
                    constraint: "must be finite and within its physical range",
                });
            }
        }
        Ok(())
    }
}

/// A fully parameterized BTI aging model.
///
/// The model owns the calibration constants; per-resource dynamic state
/// lives in [`crate::AgingState`]. Construct the paper-calibrated
/// UltraScale+ model with [`BtiModel::ultrascale_plus`], or customize one
/// through [`BtiModel::builder`].
///
/// # Example
///
/// ```
/// use bti_physics::{BtiModel, Celsius};
///
/// let model = BtiModel::builder()
///     .reference_temperature(Celsius::new(60.0))
///     .build()
///     .expect("default parameters are valid");
/// assert!(model.nbti().sensitivity > model.pbti().sensitivity,
///         "NBTI effects are typically larger than PBTI");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BtiModel {
    nbti: PolarityParams,
    pbti: PolarityParams,
    reference_temperature: Celsius,
}

impl BtiModel {
    /// The paper-calibrated model for 16 nm FinFET UltraScale+ parts.
    ///
    /// Constants are phenomenological fits to the measurements in the
    /// paper's Figures 6–8 (see crate docs and DESIGN.md for targets).
    #[must_use]
    pub fn ultrascale_plus() -> Self {
        Self::builder()
            .build()
            .expect("built-in calibration must be valid")
    }

    /// Starts building a model from the UltraScale+ defaults.
    #[must_use]
    pub fn builder() -> BtiModelBuilder {
        BtiModelBuilder::default()
    }

    /// Parameters of the NBTI (PMOS, logical-0-stress) polarity.
    #[must_use]
    pub fn nbti(&self) -> &PolarityParams {
        &self.nbti
    }

    /// Parameters of the PBTI (NMOS, logical-1-stress) polarity.
    #[must_use]
    pub fn pbti(&self) -> &PolarityParams {
        &self.pbti
    }

    /// Parameters for the requested polarity.
    #[must_use]
    pub fn params(&self, polarity: Polarity) -> &PolarityParams {
        match polarity {
            Polarity::Nbti => &self.nbti,
            Polarity::Pbti => &self.pbti,
        }
    }

    /// The temperature at which the time constants are specified.
    #[must_use]
    pub fn reference_temperature(&self) -> Celsius {
        self.reference_temperature
    }

    /// Creates a factory-fresh trap bank for one polarity.
    ///
    /// # Panics
    ///
    /// Does not panic: model construction already validated the
    /// parameters.
    #[must_use]
    pub fn fresh_bank(&self, polarity: Polarity) -> TrapBank {
        let p = self.params(polarity);
        TrapBank::log_spaced(
            polarity,
            p.bin_count,
            p.tau_capture_range,
            p.tau_emission_range,
            p.permanent_fraction,
        )
        .expect("validated parameters always build a bank")
    }

    /// Arrhenius acceleration factors `(capture, emission)` for a polarity
    /// at temperature `t`.
    #[must_use]
    pub fn acceleration(&self, polarity: Polarity, t: Celsius) -> (f64, f64) {
        let p = self.params(polarity);
        (
            arrhenius_acceleration(t, self.reference_temperature, p.ea_capture),
            arrhenius_acceleration(t, self.reference_temperature, p.ea_emission),
        )
    }

    /// Converts a normalized trap level into a transition-delay shift (in
    /// picoseconds) for a route of nominal length `route_ps`, scaled by a
    /// device wear factor (see [`crate::WearModel`]).
    #[must_use]
    pub fn delay_shift_ps(
        &self,
        polarity: Polarity,
        level: f64,
        route_ps: f64,
        wear_factor: f64,
    ) -> f64 {
        self.params(polarity).sensitivity * level * route_ps * wear_factor
    }
}

impl Default for BtiModel {
    /// The UltraScale+ calibration.
    fn default() -> Self {
        Self::ultrascale_plus()
    }
}

/// Builder for [`BtiModel`] (C-BUILDER). Defaults to the UltraScale+
/// calibration; override individual knobs for ablation studies.
#[derive(Debug, Clone, PartialEq)]
pub struct BtiModelBuilder {
    nbti: PolarityParams,
    pbti: PolarityParams,
    reference_temperature: Celsius,
}

impl Default for BtiModelBuilder {
    fn default() -> Self {
        Self {
            // NBTI: larger effect, slower onset, very slow recovery with a
            // sizable permanent component — burn-0 routes need > 200 h to
            // return to baseline (paper, Experiment 1).
            nbti: PolarityParams {
                bin_count: 12,
                tau_capture_range: (15.0, 5000.0),
                tau_emission_range: (600.0, 60_000.0),
                permanent_fraction: 0.15,
                sensitivity: 2.15e-3,
                ea_capture: 0.55,
                ea_emission: 0.50,
            },
            // PBTI: smaller effect, fast onset, fast recovery — burn-1
            // routes return to baseline within 30–50 h (paper, Exp. 1),
            // which is the signal Threat Model 2 exploits.
            pbti: PolarityParams {
                bin_count: 12,
                tau_capture_range: (2.0, 800.0),
                tau_emission_range: (15.0, 300.0),
                permanent_fraction: 0.03,
                sensitivity: 1.25e-3,
                ea_capture: 0.45,
                ea_emission: 0.50,
            },
            reference_temperature: Celsius::new(60.0),
        }
    }
}

impl BtiModelBuilder {
    /// Overrides the NBTI polarity parameters.
    pub fn nbti(&mut self, params: PolarityParams) -> &mut Self {
        self.nbti = params;
        self
    }

    /// Overrides the PBTI polarity parameters.
    pub fn pbti(&mut self, params: PolarityParams) -> &mut Self {
        self.pbti = params;
        self
    }

    /// Sets the reference temperature of the kinetic constants.
    pub fn reference_temperature(&mut self, t: Celsius) -> &mut Self {
        self.reference_temperature = t;
        self
    }

    /// Scales both polarities' delay sensitivities (used by ablations).
    pub fn sensitivity_scale(&mut self, scale: f64) -> &mut Self {
        self.nbti.sensitivity *= scale;
        self.pbti.sensitivity *= scale;
        self
    }

    /// Validates the parameters and builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`BtiError::InvalidParameter`] when any parameter is out of
    /// range, or [`BtiError::EmptyTrapBank`] when a bin count is zero.
    pub fn build(&self) -> Result<BtiModel, BtiError> {
        self.nbti.validate("nbti")?;
        self.pbti.validate("pbti")?;
        if self.nbti.bin_count == 0 || self.pbti.bin_count == 0 {
            return Err(BtiError::EmptyTrapBank);
        }
        let model = BtiModel {
            nbti: self.nbti,
            pbti: self.pbti,
            reference_temperature: self.reference_temperature,
        };
        // Bank construction re-validates the tau ranges.
        for polarity in Polarity::ALL {
            let p = model.params(polarity);
            TrapBank::log_spaced(
                polarity,
                p.bin_count,
                p.tau_capture_range,
                p.tau_emission_range,
                p.permanent_fraction,
            )?;
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_builds() {
        let m = BtiModel::ultrascale_plus();
        assert_eq!(m.reference_temperature(), Celsius::new(60.0));
        assert_eq!(m, BtiModel::default());
    }

    #[test]
    fn acceleration_is_unity_at_reference() {
        let m = BtiModel::ultrascale_plus();
        for polarity in Polarity::ALL {
            let (c, e) = m.acceleration(polarity, Celsius::new(60.0));
            assert!((c - 1.0).abs() < 1e-12);
            assert!((e - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn delay_shift_scales_linearly() {
        let m = BtiModel::ultrascale_plus();
        let a = m.delay_shift_ps(Polarity::Pbti, 0.5, 1000.0, 1.0);
        let b = m.delay_shift_ps(Polarity::Pbti, 0.5, 2000.0, 1.0);
        let c = m.delay_shift_ps(Polarity::Pbti, 0.5, 1000.0, 0.5);
        assert!((b - 2.0 * a).abs() < 1e-12);
        assert!((c - 0.5 * a).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_bad_sensitivity() {
        let mut b = BtiModel::builder();
        let mut p = *BtiModel::ultrascale_plus().nbti();
        p.sensitivity = -1.0;
        let err = b.nbti(p).build().unwrap_err();
        assert!(matches!(
            err,
            BtiError::InvalidParameter {
                name: "sensitivity",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_zero_bins() {
        let mut b = BtiModel::builder();
        let mut p = *BtiModel::ultrascale_plus().pbti();
        p.bin_count = 0;
        assert_eq!(b.pbti(p).build().unwrap_err(), BtiError::EmptyTrapBank);
    }

    #[test]
    fn sensitivity_scale_applies_to_both() {
        let mut b = BtiModel::builder();
        let m = b.sensitivity_scale(2.0).build().unwrap();
        let base = BtiModel::ultrascale_plus();
        assert!((m.nbti().sensitivity - 2.0 * base.nbti().sensitivity).abs() < 1e-15);
        assert!((m.pbti().sensitivity - 2.0 * base.pbti().sensitivity).abs() < 1e-15);
    }

    #[test]
    fn fresh_banks_are_empty() {
        let m = BtiModel::ultrascale_plus();
        for polarity in Polarity::ALL {
            let bank = m.fresh_bank(polarity);
            assert_eq!(bank.level(), 0.0);
            assert_eq!(bank.polarity(), polarity);
        }
    }
}
