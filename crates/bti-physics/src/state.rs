//! Per-resource aging state: one trap bank of each polarity.

use crate::{BtiModel, Celsius, DutyCycle, Hours, LogicLevel, PhaseKernel, Polarity, TrapBank};

/// The complete BTI state of one physical resource (a wire, a transistor
/// chain, an inverter).
///
/// Holds an NBTI bank (PMOS damage, slows rising edges) and a PBTI bank
/// (NMOS damage, slows falling edges). Advance it through time with
/// [`advance`](AgingState::advance) and read the imprint out with
/// [`delta_ps`](AgingState::delta_ps) — the paper's `Δps` observable.
///
/// # Example
///
/// ```
/// use bti_physics::{AgingState, BtiModel, Celsius, Hours, LogicLevel};
///
/// let model = BtiModel::ultrascale_plus();
/// let mut state = AgingState::new(&model);
/// state.advance_static(&model, Hours::new(200.0), LogicLevel::Zero, Celsius::new(60.0));
/// // Burn value 0 makes Δps negative (cyan traces in Figure 6).
/// assert!(state.delta_ps(&model, 5_000.0) < -4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AgingState {
    nbti: TrapBank,
    pbti: TrapBank,
    stress_hours: Hours,
}

impl AgingState {
    /// Creates the factory-fresh state for a resource governed by `model`.
    #[must_use]
    pub fn new(model: &BtiModel) -> Self {
        Self {
            nbti: model.fresh_bank(Polarity::Nbti),
            pbti: model.fresh_bank(Polarity::Pbti),
            stress_hours: Hours::ZERO,
        }
    }

    /// Advances the state by `dt` with the resource spending `duty` of the
    /// time at logical 1, at die temperature `temperature`.
    pub fn advance(&mut self, model: &BtiModel, dt: Hours, duty: DutyCycle, temperature: Celsius) {
        assert!(dt.value() >= 0.0, "aging duration must be non-negative");
        let (nc, ne) = model.acceleration(Polarity::Nbti, temperature);
        let (pc, pe) = model.acceleration(Polarity::Pbti, temperature);
        self.nbti.advance(dt, duty, nc, ne);
        self.pbti.advance(dt, duty, pc, pe);
        self.stress_hours += dt;
    }

    /// Advances the state over one constant-condition phase in closed
    /// form — bit-identical to [`advance`](AgingState::advance), one
    /// `exp` per bin regardless of phase length. See
    /// [`TrapBank::advance_phase`].
    pub fn advance_phase(
        &mut self,
        model: &BtiModel,
        dt: Hours,
        duty: DutyCycle,
        temperature: Celsius,
    ) {
        assert!(dt.value() >= 0.0, "aging duration must be non-negative");
        let (nc, ne) = model.acceleration(Polarity::Nbti, temperature);
        let (pc, pe) = model.acceleration(Polarity::Pbti, temperature);
        self.nbti.advance_phase(dt, duty, nc, ne);
        self.pbti.advance_phase(dt, duty, pc, pe);
        self.stress_hours += dt;
    }

    /// Applies a memoized phase kernel (from a [`crate::DecayCache`]) to
    /// both banks — the zero-`exp` fast path for the common case where
    /// many resources share identical phase conditions.
    ///
    /// `dt` must be the phase length the kernel was built for; it only
    /// feeds the lifetime odometer, the physics lives in the kernel.
    pub fn apply_phase_kernel(&mut self, kernel: &PhaseKernel, dt: Hours) {
        self.nbti.apply_kernel(kernel.nbti());
        self.pbti.apply_kernel(kernel.pbti());
        self.stress_hours += dt;
    }

    /// Advances the state by `dt` with the resource completely unstressed
    /// (an unconfigured wire on a wiped device): both polarities recover,
    /// neither accrues.
    pub fn relax(&mut self, model: &BtiModel, dt: Hours, temperature: Celsius) {
        assert!(dt.value() >= 0.0, "aging duration must be non-negative");
        let (_, ne) = model.acceleration(Polarity::Nbti, temperature);
        let (_, pe) = model.acceleration(Polarity::Pbti, temperature);
        self.nbti.relax(dt, ne);
        self.pbti.relax(dt, pe);
        self.stress_hours += dt;
    }

    /// Advances the state with a statically held logic level.
    pub fn advance_static(
        &mut self,
        model: &BtiModel,
        dt: Hours,
        level: LogicLevel,
        temperature: Celsius,
    ) {
        self.advance(model, dt, level.duty(), temperature);
    }

    /// Normalized threshold-voltage shift of one polarity, in `[0, 1]`.
    #[must_use]
    pub fn level(&self, polarity: Polarity) -> f64 {
        match polarity {
            Polarity::Nbti => self.nbti.level(),
            Polarity::Pbti => self.pbti.level(),
        }
    }

    /// Added *rising*-transition delay through a route of nominal length
    /// `route_ps`, in picoseconds (NBTI / PMOS damage), scaled by `wear`.
    #[must_use]
    pub fn rise_shift_ps_scaled(&self, model: &BtiModel, route_ps: f64, wear: f64) -> f64 {
        model.delay_shift_ps(Polarity::Nbti, self.nbti.level(), route_ps, wear)
    }

    /// Added *falling*-transition delay through a route of nominal length
    /// `route_ps`, in picoseconds (PBTI / NMOS damage), scaled by `wear`.
    #[must_use]
    pub fn fall_shift_ps_scaled(&self, model: &BtiModel, route_ps: f64, wear: f64) -> f64 {
        model.delay_shift_ps(Polarity::Pbti, self.pbti.level(), route_ps, wear)
    }

    /// Added rising-transition delay for an unworn (factory-new) device.
    #[must_use]
    pub fn rise_shift_ps(&self, model: &BtiModel, route_ps: f64) -> f64 {
        self.rise_shift_ps_scaled(model, route_ps, 1.0)
    }

    /// Added falling-transition delay for an unworn (factory-new) device.
    #[must_use]
    pub fn fall_shift_ps(&self, model: &BtiModel, route_ps: f64) -> f64 {
        self.fall_shift_ps_scaled(model, route_ps, 1.0)
    }

    /// The paper's `Δps` observable: falling minus rising delay shift.
    ///
    /// Positive values indicate the resource previously held logical 1;
    /// negative values logical 0.
    #[must_use]
    pub fn delta_ps(&self, model: &BtiModel, route_ps: f64) -> f64 {
        self.delta_ps_scaled(model, route_ps, 1.0)
    }

    /// [`delta_ps`](AgingState::delta_ps) with a device wear factor.
    #[must_use]
    pub fn delta_ps_scaled(&self, model: &BtiModel, route_ps: f64, wear: f64) -> f64 {
        self.fall_shift_ps_scaled(model, route_ps, wear)
            - self.rise_shift_ps_scaled(model, route_ps, wear)
    }

    /// Total hours of simulated lifetime this state has experienced.
    #[must_use]
    pub fn stress_hours(&self) -> Hours {
        self.stress_hours
    }

    /// Access to the NBTI trap bank.
    #[must_use]
    pub fn nbti_bank(&self) -> &TrapBank {
        &self.nbti
    }

    /// Access to the PBTI trap bank.
    #[must_use]
    pub fn pbti_bank(&self) -> &TrapBank {
        &self.pbti
    }

    /// Returns the state to factory-fresh (used to model a new device; a
    /// cloud *wipe does not do this* — that is the whole point of the
    /// paper).
    pub fn reset(&mut self) {
        self.nbti.reset();
        self.pbti.reset();
        self.stress_hours = Hours::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T60: Celsius = Celsius::ZERO; // placeholder, replaced below

    fn t60() -> Celsius {
        let _ = T60;
        Celsius::new(60.0)
    }

    #[test]
    fn burn_one_raises_delta() {
        let m = BtiModel::ultrascale_plus();
        let mut s = AgingState::new(&m);
        s.advance_static(&m, Hours::new(200.0), LogicLevel::One, t60());
        assert!(s.delta_ps(&m, 10_000.0) > 0.0);
        assert!(s.level(Polarity::Pbti) > s.level(Polarity::Nbti));
    }

    #[test]
    fn burn_zero_lowers_delta() {
        let m = BtiModel::ultrascale_plus();
        let mut s = AgingState::new(&m);
        s.advance_static(&m, Hours::new(200.0), LogicLevel::Zero, t60());
        assert!(s.delta_ps(&m, 10_000.0) < 0.0);
    }

    #[test]
    fn fresh_state_has_no_imprint() {
        let m = BtiModel::ultrascale_plus();
        let s = AgingState::new(&m);
        assert_eq!(s.delta_ps(&m, 10_000.0), 0.0);
        assert_eq!(s.stress_hours(), Hours::ZERO);
    }

    #[test]
    fn magnitude_200h_matches_paper_figure6() {
        // Figure 6 (new ZCU102 at 60 C, 200 h): 1000 ps -> ~1-2 ps,
        // 2000 ps -> ~2-3 ps, 5000 ps -> ~5-6 ps, 10000 ps -> ~10-11 ps.
        let m = BtiModel::ultrascale_plus();
        let mut one = AgingState::new(&m);
        let mut zero = AgingState::new(&m);
        one.advance_static(&m, Hours::new(200.0), LogicLevel::One, t60());
        zero.advance_static(&m, Hours::new(200.0), LogicLevel::Zero, t60());
        for (len, lo, hi) in [
            (1_000.0, 0.8, 2.2),
            (2_000.0, 1.8, 3.2),
            (5_000.0, 4.5, 6.5),
            (10_000.0, 9.0, 12.0),
        ] {
            let up = one.delta_ps(&m, len);
            let down = -zero.delta_ps(&m, len);
            assert!(up > lo && up < hi, "burn-1 {len} ps: Δps = {up}");
            assert!(down > lo && down < hi, "burn-0 {len} ps: Δps = {down}");
        }
    }

    #[test]
    fn burn_one_recovery_crosses_zero_between_30_and_50_hours() {
        // Experiment 1: burn-1 routes return to the pre-burn state 30-50 h
        // after the value is complemented.
        let m = BtiModel::ultrascale_plus();
        let mut s = AgingState::new(&m);
        s.advance_static(&m, Hours::new(200.0), LogicLevel::One, t60());
        let mut crossing = None;
        for hour in 1..=80 {
            s.advance_static(&m, Hours::new(1.0), LogicLevel::Zero, t60());
            if s.delta_ps(&m, 10_000.0) <= 0.0 {
                crossing = Some(hour);
                break;
            }
        }
        let crossing = crossing.expect("burn-1 recovery must cross zero within 80 h");
        assert!(
            (25..=55).contains(&crossing),
            "crossing at {crossing} h, expected 30-50 h"
        );
    }

    #[test]
    fn burn_zero_recovery_takes_over_200_hours() {
        // Experiment 1: burn-0 routes recover, but take > 200 h.
        let m = BtiModel::ultrascale_plus();
        let mut s = AgingState::new(&m);
        s.advance_static(&m, Hours::new(200.0), LogicLevel::Zero, t60());
        s.advance_static(&m, Hours::new(200.0), LogicLevel::One, t60());
        assert!(
            s.delta_ps(&m, 10_000.0) < 0.0,
            "burn-0 routes must not have fully recovered after 200 h: {}",
            s.delta_ps(&m, 10_000.0)
        );
        // ... but they do keep recovering (elastic, non-permanent).
        let at_400 = s.delta_ps(&m, 10_000.0);
        s.advance_static(&m, Hours::new(200.0), LogicLevel::One, t60());
        assert!(s.delta_ps(&m, 10_000.0) > at_400);
    }

    #[test]
    fn recovery_slope_separates_previous_bits() {
        // Experiment 3: attacker holds everything at 0. Routes that held 1
        // drop fast (PBTI emission); routes that held 0 stay flat.
        let m = BtiModel::ultrascale_plus();
        let mut was_one = AgingState::new(&m);
        let mut was_zero = AgingState::new(&m);
        was_one.advance_static(&m, Hours::new(200.0), LogicLevel::One, t60());
        was_zero.advance_static(&m, Hours::new(200.0), LogicLevel::Zero, t60());
        let d1_start = was_one.delta_ps(&m, 10_000.0);
        let d0_start = was_zero.delta_ps(&m, 10_000.0);
        was_one.advance_static(&m, Hours::new(25.0), LogicLevel::Zero, t60());
        was_zero.advance_static(&m, Hours::new(25.0), LogicLevel::Zero, t60());
        let slope1 = was_one.delta_ps(&m, 10_000.0) - d1_start;
        let slope0 = was_zero.delta_ps(&m, 10_000.0) - d0_start;
        assert!(slope1 < 0.0);
        assert!(
            slope1.abs() > 5.0 * slope0.abs(),
            "burn-1 slope {slope1} should dwarf burn-0 slope {slope0}"
        );
    }

    #[test]
    fn balanced_duty_leaves_little_net_signal() {
        // Section 8 mitigation: periodically inverting the data (duty 0.5)
        // suppresses the recoverable imprint.
        let m = BtiModel::ultrascale_plus();
        let mut s = AgingState::new(&m);
        s.advance(&m, Hours::new(200.0), DutyCycle::BALANCED, t60());
        let residual = s.delta_ps(&m, 10_000.0).abs();
        let mut s1 = AgingState::new(&m);
        s1.advance_static(&m, Hours::new(200.0), LogicLevel::One, t60());
        assert!(
            residual < 0.2 * s1.delta_ps(&m, 10_000.0).abs(),
            "residual {residual} vs full burn {}",
            s1.delta_ps(&m, 10_000.0)
        );
    }

    #[test]
    fn higher_temperature_accelerates_burn_in() {
        let m = BtiModel::ultrascale_plus();
        let mut cool = AgingState::new(&m);
        let mut hot = AgingState::new(&m);
        cool.advance_static(&m, Hours::new(50.0), LogicLevel::One, Celsius::new(40.0));
        hot.advance_static(&m, Hours::new(50.0), LogicLevel::One, Celsius::new(80.0));
        assert!(hot.delta_ps(&m, 10_000.0) > cool.delta_ps(&m, 10_000.0));
    }

    #[test]
    fn wear_scales_delta_down() {
        let m = BtiModel::ultrascale_plus();
        let mut s = AgingState::new(&m);
        s.advance_static(&m, Hours::new(200.0), LogicLevel::One, t60());
        let new_dev = s.delta_ps_scaled(&m, 10_000.0, 1.0);
        let old_dev = s.delta_ps_scaled(&m, 10_000.0, 0.1);
        assert!((old_dev - 0.1 * new_dev).abs() < 1e-9);
    }

    #[test]
    fn reset_restores_factory_fresh() {
        let m = BtiModel::ultrascale_plus();
        let mut s = AgingState::new(&m);
        s.advance_static(&m, Hours::new(100.0), LogicLevel::One, t60());
        s.reset();
        assert_eq!(s, AgingState::new(&m));
    }
}
