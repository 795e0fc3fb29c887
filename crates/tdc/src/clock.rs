//! The programmable clock generator (Figure 3's first block).
//!
//! Real TDCs derive their launch and capture clocks from an MMCM whose
//! phase shift is programmed in *discrete steps* — a fraction of the VCO
//! period, not an arbitrary real number. The sensor can therefore only
//! realize θ values on a grid, and calibration must land on the nearest
//! achievable setting. On UltraScale+ parts the fine-phase step is
//! 1/56th of the VCO period; at a typical 1.4 GHz VCO that is ≈ 12.76 ps
//! of coarse step, interpolated further by the tunable launch path — we
//! model the *effective* θ resolution the paper's sensor achieves.

use crate::TdcError;

/// A launch/capture clock pair with programmable, quantized phase offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockGenerator {
    /// Clock period of both domains, in picoseconds.
    period_ps: f64,
    /// Phase-shift quantum, in picoseconds.
    step_ps: f64,
    /// Current programmed phase setting, in steps.
    setting: i64,
}

impl ClockGenerator {
    /// Creates a generator with the given period and phase quantum.
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::InvalidConfig`] when either parameter is not
    /// positive, or the step exceeds the period.
    pub fn new(period_ps: f64, step_ps: f64) -> Result<Self, TdcError> {
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive(period_ps) || !period_ps.is_finite() {
            return Err(TdcError::InvalidConfig("clock period must be positive"));
        }
        if !positive(step_ps) || !step_ps.is_finite() || step_ps > period_ps {
            return Err(TdcError::InvalidConfig(
                "phase step must be positive and no larger than the period",
            ));
        }
        Ok(Self {
            period_ps,
            step_ps,
            setting: 0,
        })
    }

    /// The paper's sensor configuration: a 100 MHz measurement clock
    /// (10 ns period — long enough for a 10 000 ps route plus the chain)
    /// with sub-carry-bit phase resolution (1.4 ps: half the 2.8 ps bit).
    #[must_use]
    pub fn ultrascale_plus() -> Self {
        Self::new(10_000.0 * 2.0, 1.4).expect("built-in configuration is valid")
    }

    /// The clock period, in picoseconds.
    #[must_use]
    pub fn period_ps(&self) -> f64 {
        self.period_ps
    }

    /// The phase quantum, in picoseconds.
    #[must_use]
    pub fn step_ps(&self) -> f64 {
        self.step_ps
    }

    /// Programs the phase to the setting nearest `theta_ps` and returns
    /// the θ actually realized.
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::InvalidConfig`] when the request is outside
    /// `[0, period)` — the capture edge must land within one period of
    /// the launch edge.
    pub fn program_phase(&mut self, theta_ps: f64) -> Result<f64, TdcError> {
        if !theta_ps.is_finite() || theta_ps < 0.0 || theta_ps >= self.period_ps {
            return Err(TdcError::InvalidConfig(
                "theta must lie within one clock period",
            ));
        }
        self.setting = (theta_ps / self.step_ps).round() as i64;
        Ok(self.theta_ps())
    }

    /// The currently realized phase offset, in picoseconds.
    #[must_use]
    pub fn theta_ps(&self) -> f64 {
        self.setting as f64 * self.step_ps
    }

    /// Steps the phase by `steps` quanta (negative = earlier capture),
    /// saturating at the period bounds, and returns the realized θ.
    pub fn nudge(&mut self, steps: i64) -> f64 {
        let max_setting = ((self.period_ps - self.step_ps) / self.step_ps).floor() as i64;
        self.setting = (self.setting + steps).clamp(0, max_setting);
        self.theta_ps()
    }

    /// Quantizes an arbitrary θ request to this generator's grid without
    /// programming it.
    #[must_use]
    pub fn quantize(&self, theta_ps: f64) -> f64 {
        (theta_ps / self.step_ps).round() * self.step_ps
    }
}

impl Default for ClockGenerator {
    fn default() -> Self {
        Self::ultrascale_plus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programming_quantizes_to_the_grid() {
        let mut clk = ClockGenerator::new(20_000.0, 1.4).unwrap();
        let realized = clk.program_phase(5_000.3).unwrap();
        assert!((realized - 5_000.3).abs() <= 0.7, "realized {realized}");
        assert!((realized / 1.4 - (realized / 1.4).round()).abs() < 1e-9);
    }

    #[test]
    fn paper_preset_resolves_half_a_carry_bit() {
        let clk = ClockGenerator::ultrascale_plus();
        assert!(clk.step_ps() <= fpga_fabric::CARRY_ELEMENT_PS / 2.0 + 1e-9);
        assert!(clk.period_ps() >= 10_000.0 + 64.0 * fpga_fabric::CARRY_ELEMENT_PS);
    }

    #[test]
    fn nudging_saturates_at_bounds() {
        let mut clk = ClockGenerator::new(14.0, 1.4).unwrap();
        assert_eq!(clk.nudge(-5), 0.0);
        let max = clk.nudge(1_000);
        assert!(max < 14.0);
        assert!(max >= 14.0 - 2.0 * 1.4);
    }

    #[test]
    fn out_of_period_requests_rejected() {
        let mut clk = ClockGenerator::new(100.0, 1.0).unwrap();
        assert!(clk.program_phase(-1.0).is_err());
        assert!(clk.program_phase(100.0).is_err());
        assert!(clk.program_phase(f64::NAN).is_err());
        assert!(clk.program_phase(99.0).is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ClockGenerator::new(0.0, 1.0).is_err());
        assert!(ClockGenerator::new(10.0, 0.0).is_err());
        assert!(ClockGenerator::new(10.0, 11.0).is_err());
    }

    #[test]
    fn quantize_matches_program() {
        let mut clk = ClockGenerator::new(1_000.0, 2.8).unwrap();
        let q = clk.quantize(333.0);
        let p = clk.program_phase(333.0).unwrap();
        assert_eq!(q, p);
    }
}
