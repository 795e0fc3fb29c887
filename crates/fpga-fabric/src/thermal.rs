//! Die-temperature model.
//!
//! BTI kinetics are thermally activated, so the fabric must know how hot
//! the die runs. The paper leans on this twice: Experiment 1 pins a
//! ZCU102 in a 60 °C oven, and the cloud target design deliberately burns
//! 63 W through "Arithmetic Heavy" DSP circuits to self-heat the die and
//! accelerate burn-in.

use bti_physics::Celsius;

/// A lumped thermal model: steady state `T_die = ambient + θ_ja · power`,
/// with a first-order transient whose time constant matches the paper's
/// observation that cloud FPGAs "return to ambient temperatures within a
/// few minutes" — the fact that makes thermal covert channels (Tian &
/// Szefer, Section 7) short-lived while BTI imprints last for hundreds of
/// hours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    ambient: Celsius,
    /// Junction-to-ambient thermal resistance, in °C per watt.
    theta_ja: f64,
    /// Thermal time constant, in hours (≈ 2 minutes by default).
    tau_hours: f64,
}

impl ThermalModel {
    /// Creates a thermal model with the default ~2-minute time constant.
    ///
    /// # Panics
    ///
    /// Panics if `theta_ja` is negative or not finite.
    #[must_use]
    pub fn new(ambient: Celsius, theta_ja: f64) -> Self {
        assert!(
            theta_ja >= 0.0 && theta_ja.is_finite(),
            "theta_ja must be finite and non-negative"
        );
        Self {
            ambient,
            theta_ja,
            tau_hours: 2.0 / 60.0,
        }
    }

    /// Overrides the thermal time constant.
    ///
    /// # Panics
    ///
    /// Panics if `tau_hours` is not positive.
    #[must_use]
    pub fn with_time_constant_hours(mut self, tau_hours: f64) -> Self {
        assert!(
            tau_hours > 0.0 && tau_hours.is_finite(),
            "tau must be positive"
        );
        self.tau_hours = tau_hours;
        self
    }

    /// A temperature-controlled lab oven: the die tracks the setpoint.
    #[must_use]
    pub fn lab_oven(setpoint: Celsius) -> Self {
        Self::new(setpoint, 0.02)
    }

    /// A datacenter environment (forced-air ambient ≈ 35 °C with
    /// realistic junction-to-ambient resistance).
    #[must_use]
    pub fn datacenter() -> Self {
        Self::new(Celsius::new(35.0), 0.55)
    }

    /// Steady-state die temperature while dissipating `power_watts`.
    #[must_use]
    pub fn die_temperature(&self, power_watts: f64) -> Celsius {
        Celsius::new(self.ambient.value() + self.theta_ja * power_watts.max(0.0))
    }

    /// The ambient temperature.
    #[must_use]
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Junction-to-ambient thermal resistance, in °C/W.
    #[must_use]
    pub fn theta_ja(&self) -> f64 {
        self.theta_ja
    }

    /// The thermal time constant, in hours.
    #[must_use]
    pub fn time_constant_hours(&self) -> f64 {
        self.tau_hours
    }

    /// Evolves a die temperature from `current` over `dt_hours` toward the
    /// steady state for `power_watts`.
    #[must_use]
    pub fn step(&self, current: Celsius, power_watts: f64, dt_hours: f64) -> Celsius {
        let target = self.die_temperature(power_watts);
        let decay = (-dt_hours.max(0.0) / self.tau_hours).exp();
        Celsius::new(target.value() + (current.value() - target.value()) * decay)
    }

    /// The time-averaged die temperature over a step from `current`
    /// toward the steady state for `power_watts` — the right temperature
    /// to integrate aging with.
    #[must_use]
    pub fn average_over_step(&self, current: Celsius, power_watts: f64, dt_hours: f64) -> Celsius {
        let target = self.die_temperature(power_watts);
        if dt_hours <= 0.0 {
            return current;
        }
        let ratio = self.tau_hours / dt_hours;
        let decay = (-dt_hours / self.tau_hours).exp();
        let avg = target.value() + (current.value() - target.value()) * ratio * (1.0 - decay);
        Celsius::new(avg)
    }
}

impl Default for ThermalModel {
    fn default() -> Self {
        Self::datacenter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oven_tracks_setpoint() {
        let oven = ThermalModel::lab_oven(Celsius::new(60.0));
        let t = oven.die_temperature(2.0);
        assert!((t.value() - 60.04).abs() < 1e-9);
    }

    #[test]
    fn aws_design_runs_hot() {
        // The paper's target design draws 63 W of the 85 W AWS budget.
        let dc = ThermalModel::datacenter();
        let t = dc.die_temperature(63.0);
        assert!(t.value() > 60.0 && t.value() < 90.0, "die at {t}");
    }

    #[test]
    fn negative_power_clamped() {
        let dc = ThermalModel::datacenter();
        assert_eq!(dc.die_temperature(-5.0), dc.ambient());
    }

    #[test]
    fn idle_die_sits_at_ambient() {
        let dc = ThermalModel::datacenter();
        assert_eq!(dc.die_temperature(0.0), Celsius::new(35.0));
    }

    #[test]
    fn transient_settles_within_minutes() {
        // The paper: "cloud FPGAs return to ambient temperatures within a
        // few minutes" — after 10 minutes a hot die is essentially cool.
        let dc = ThermalModel::datacenter();
        let hot = dc.die_temperature(63.0);
        let after_1min = dc.step(hot, 0.0, 1.0 / 60.0);
        let after_10min = dc.step(hot, 0.0, 10.0 / 60.0);
        assert!(after_1min.value() > dc.ambient().value() + 10.0);
        assert!(after_10min.value() < dc.ambient().value() + 0.5);
    }

    #[test]
    fn step_converges_to_steady_state() {
        let dc = ThermalModel::datacenter();
        let mut t = dc.ambient();
        for _ in 0..100 {
            t = dc.step(t, 40.0, 0.01);
        }
        assert!((t.value() - dc.die_temperature(40.0).value()).abs() < 0.1);
    }

    #[test]
    fn average_lies_between_endpoints() {
        let dc = ThermalModel::datacenter();
        let cold = dc.ambient();
        let avg = dc.average_over_step(cold, 63.0, 0.05);
        let end = dc.step(cold, 63.0, 0.05);
        assert!(avg.value() > cold.value() && avg.value() < end.value());
    }

    #[test]
    fn long_steps_average_near_steady_state() {
        let dc = ThermalModel::datacenter();
        let avg = dc.average_over_step(dc.ambient(), 63.0, 1.0);
        let steady = dc.die_temperature(63.0);
        assert!((avg.value() - steady.value()).abs() < 0.04 * (steady.value() - 35.0));
    }

    #[test]
    fn zero_dt_average_is_current() {
        let dc = ThermalModel::datacenter();
        let t = Celsius::new(50.0);
        assert_eq!(dc.average_over_step(t, 63.0, 0.0), t);
    }
}
