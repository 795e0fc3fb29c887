//! Ring-oscillator aging sensor.

use fpga_fabric::{CellKind, Design, FpgaDevice, NetActivity, Route};
use rand::Rng;

/// Delay of the loop-closing LUT inverter, in picoseconds.
const INVERTER_DELAY_PS: f64 = 120.0;

/// One frequency reading from a ring oscillator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoReading {
    /// Oscillation frequency, in megahertz.
    pub frequency_mhz: f64,
    /// The oscillation period, in picoseconds.
    pub period_ps: f64,
}

/// A ring oscillator wrapped around one route under test.
///
/// The loop is: route → inverter → route (conceptually; the physical loop
/// reuses the same route). One full period traverses the route once
/// rising and once falling, so the period is
/// `rise_delay + fall_delay + 2 × inverter` — the *sum* of both
/// polarities, which is exactly why the sensor cannot tell burn-0 from
/// burn-1.
#[derive(Debug, Clone, PartialEq)]
pub struct RoSensor {
    route: Route,
    counter_gate_ns: f64,
}

impl RoSensor {
    /// Wraps a route in a ring oscillator with a 1 µs frequency-counter
    /// gate.
    #[must_use]
    pub fn new(route: Route) -> Self {
        Self {
            route,
            counter_gate_ns: 1_000.0,
        }
    }

    /// The route under test.
    #[must_use]
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// Reads the oscillation frequency, with counter quantization noise.
    ///
    /// The counter counts whole edges in the gate window, so frequency
    /// resolution is limited by the gate length — plus a little phase
    /// noise supplied by `rng`.
    #[must_use]
    pub fn read<R: Rng + ?Sized>(&self, device: &FpgaDevice, rng: &mut R) -> RoReading {
        let delay = device.route_delay(&self.route);
        let period_ps = delay.rise_ps + delay.fall_ps + 2.0 * INVERTER_DELAY_PS;
        let true_freq_ghz = 1_000.0 / period_ps; // periods per ns
        let cycles = true_freq_ghz * self.counter_gate_ns + rng.gen_range(-0.5..0.5);
        let counted = cycles.floor().max(0.0);
        let frequency_mhz = counted / self.counter_gate_ns * 1_000.0;
        RoReading {
            frequency_mhz,
            period_ps,
        }
    }

    /// The noiseless period, for analysis.
    #[must_use]
    pub fn true_period_ps(&self, device: &FpgaDevice) -> f64 {
        let delay = device.route_delay(&self.route);
        delay.rise_ps + delay.fall_ps + 2.0 * INVERTER_DELAY_PS
    }
}

/// Builds the RO sensor's netlist: a combinational loop of the probe LUT
/// through the route under test. This is the design cloud DRCs reject.
#[must_use]
pub fn build_ro_design(route: &Route) -> Design {
    let mut design = Design::new("ro-sensor");
    design.set_power_watts(10.0);
    let loop_net = design.add_net("ro_loop", NetActivity::Dynamic, Some(route.clone()));
    design.add_cell(
        "ro_inv",
        CellKind::Lut,
        route.end(),
        vec![loop_net],
        Some(loop_net),
    );
    let count = design.add_net("count", NetActivity::Dynamic, None);
    design.add_cell(
        "counter_lut",
        CellKind::Lut,
        None,
        vec![loop_net],
        Some(count),
    );
    design.add_cell("counter_reg", CellKind::Register, None, vec![count], None);
    design
}

#[cfg(test)]
mod tests {
    use super::*;
    use bti_physics::{DutyCycle, Hours};
    use fpga_fabric::{check_design, RouteRequest, TileCoord};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (FpgaDevice, RoSensor, StdRng) {
        let device = FpgaDevice::zcu102_new(17);
        let route = device
            .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), 10_000.0))
            .unwrap();
        (device, RoSensor::new(route), StdRng::seed_from_u64(17))
    }

    #[test]
    fn frequency_matches_period() {
        let (device, sensor, mut rng) = setup();
        let reading = sensor.read(&device, &mut rng);
        // ~10000 ps route loop: about 49 MHz.
        assert!(
            reading.frequency_mhz > 40.0 && reading.frequency_mhz < 60.0,
            "{reading:?}"
        );
        assert!((reading.period_ps - sensor.true_period_ps(&device)).abs() < 1e-9);
    }

    #[test]
    fn ro_detects_aging_magnitude() {
        let (mut device, sensor, _) = setup();
        let before = sensor.true_period_ps(&device);
        let route = sensor.route().clone();
        device.condition_route(&route, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
        let after = sensor.true_period_ps(&device);
        assert!(after > before + 5.0, "period {before} -> {after}");
    }

    #[test]
    fn ro_cannot_separate_burn_polarity() {
        // The paper's first RO limitation, executable: burn-0 and burn-1
        // produce nearly identical period shifts.
        let device = FpgaDevice::zcu102_new(18);
        let route0 = device
            .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), 10_000.0))
            .unwrap();
        let mut dev0 = device.clone();
        let mut dev1 = device.clone();
        dev0.condition_route(&route0, DutyCycle::ALWAYS_ZERO, Hours::new(200.0));
        dev1.condition_route(&route0, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
        let s = RoSensor::new(route0.clone());
        let shift0 = s.true_period_ps(&dev0) - s.true_period_ps(&device);
        let shift1 = s.true_period_ps(&dev1) - s.true_period_ps(&device);
        // Both shifts are positive and of the same order: the sign of the
        // bit is invisible to the RO...
        assert!(shift0 > 0.0 && shift1 > 0.0);
        assert!(shift0 / shift1 > 0.5 && shift0 / shift1 < 2.0);
        // ...while the dual-polarity observable separates them perfectly.
        assert!(dev0.route_delta_ps(&route0) < 0.0);
        assert!(dev1.route_delta_ps(&route0) > 0.0);
    }

    #[test]
    fn ro_design_fails_cloud_drc() {
        let (device, sensor, _) = setup();
        let design = build_ro_design(sensor.route());
        let violations = check_design(&design, 85.0);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, fpga_fabric::DrcViolation::CombinationalLoop { .. })),
            "RO must be flagged as a combinational loop"
        );
        let _ = device;
    }

    #[test]
    fn counter_quantizes_frequency() {
        let (device, sensor, mut rng) = setup();
        let r = sensor.read(&device, &mut rng);
        // With a 1 us gate, resolution is 1 MHz steps.
        let steps = r.frequency_mhz / 1.0;
        assert!((steps - steps.round()).abs() < 1e-9, "{}", r.frequency_mhz);
    }
}
