//! A single CMOS inverter under BTI: the paper's Figure 2 concept demo.
//!
//! An inverter is one PMOS (pull-up) and one NMOS (pull-down) transistor.
//! A static 0 input keeps the PMOS conducting and under NBTI stress; a
//! static 1 input stresses the NMOS through PBTI. The difference between
//! its 0-input and 1-input propagation delays (`Δps`) therefore encodes
//! what the inverter previously computed.

use crate::{AgingState, BtiModel, Celsius, Hours, LogicLevel, Polarity};

/// A minimal aging-aware CMOS inverter.
///
/// # Example
///
/// ```
/// use bti_physics::{BtiModel, Celsius, Hours, Inverter, LogicLevel};
///
/// let model = BtiModel::ultrascale_plus();
/// let mut inv = Inverter::new(&model, 25.0);
/// inv.hold_input(&model, LogicLevel::One, Hours::new(100.0), Celsius::new(60.0));
/// // A held 1 input stressed the NMOS: falling output edges got slower.
/// assert!(inv.delta_ps(&model) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Inverter {
    state: AgingState,
    nominal_delay_ps: f64,
}

impl Inverter {
    /// Creates a fresh inverter with the given nominal stage delay.
    ///
    /// # Panics
    ///
    /// Panics if `nominal_delay_ps` is not positive.
    #[must_use]
    pub fn new(model: &BtiModel, nominal_delay_ps: f64) -> Self {
        assert!(nominal_delay_ps > 0.0, "stage delay must be positive");
        Self {
            state: AgingState::new(model),
            nominal_delay_ps,
        }
    }

    /// Holds `level` on the inverter *input* for `dt` at `temperature`.
    ///
    /// An input of 0 turns the PMOS on (NBTI stress); an input of 1 turns
    /// the NMOS on (PBTI stress) — exactly Figure 2.
    pub fn hold_input(
        &mut self,
        model: &BtiModel,
        level: LogicLevel,
        dt: Hours,
        temperature: Celsius,
    ) {
        self.state.advance_static(model, dt, level, temperature);
    }

    /// Propagation delay of an output *rising* edge (input fell): limited
    /// by the PMOS pull-up, i.e. by NBTI damage.
    #[must_use]
    pub fn rise_delay_ps(&self, model: &BtiModel) -> f64 {
        self.nominal_delay_ps + self.state.rise_shift_ps(model, self.nominal_delay_ps)
    }

    /// Propagation delay of an output *falling* edge (input rose): limited
    /// by the NMOS pull-down, i.e. by PBTI damage.
    #[must_use]
    pub fn fall_delay_ps(&self, model: &BtiModel) -> f64 {
        self.nominal_delay_ps + self.state.fall_shift_ps(model, self.nominal_delay_ps)
    }

    /// Figure 2's `Δps`: falling minus rising propagation delay.
    #[must_use]
    pub fn delta_ps(&self, model: &BtiModel) -> f64 {
        self.fall_delay_ps(model) - self.rise_delay_ps(model)
    }

    /// The aging state, for inspection.
    #[must_use]
    pub fn aging(&self) -> &AgingState {
        &self.state
    }

    /// Normalized damage level of one transistor.
    #[must_use]
    pub fn damage(&self, polarity: Polarity) -> f64 {
        self.state.level(polarity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_inputs_produce_opposite_signs() {
        let m = BtiModel::ultrascale_plus();
        let mut a = Inverter::new(&m, 25.0);
        let mut b = Inverter::new(&m, 25.0);
        a.hold_input(&m, LogicLevel::One, Hours::new(100.0), Celsius::new(60.0));
        b.hold_input(&m, LogicLevel::Zero, Hours::new(100.0), Celsius::new(60.0));
        assert!(a.delta_ps(&m) > 0.0);
        assert!(b.delta_ps(&m) < 0.0);
    }

    #[test]
    fn fresh_inverter_is_symmetric() {
        let m = BtiModel::ultrascale_plus();
        let inv = Inverter::new(&m, 25.0);
        assert_eq!(inv.delta_ps(&m), 0.0);
        assert_eq!(inv.rise_delay_ps(&m), 25.0);
        assert_eq!(inv.fall_delay_ps(&m), 25.0);
    }

    #[test]
    fn one_input_damages_only_the_nmos() {
        let m = BtiModel::ultrascale_plus();
        let mut inv = Inverter::new(&m, 25.0);
        inv.hold_input(&m, LogicLevel::One, Hours::new(50.0), Celsius::new(60.0));
        assert!(inv.damage(Polarity::Pbti) > 0.0);
        assert_eq!(inv.damage(Polarity::Nbti), 0.0);
    }

    #[test]
    #[should_panic(expected = "stage delay")]
    fn zero_delay_rejected() {
        let m = BtiModel::ultrascale_plus();
        let _ = Inverter::new(&m, 0.0);
    }
}
