//! The temporal *thermal* covert channel (Tian & Szefer, discussed in the
//! paper's Section 7) — the prior art the BTI channel outlives.
//!
//! A transmitting tenant encodes a bit in the die temperature (run hot or
//! stay idle), releases the board, and a receiving tenant who acquires
//! the same board reads a temperature proxy. The catch the paper points
//! out: "cloud FPGAs return to ambient temperatures within a few
//! minutes", so the receiver must win the reallocation race almost
//! instantly — while a BTI pentimento waits for hundreds of hours.

use bti_physics::{Celsius, Hours};
use fpga_fabric::{Design, FpgaDevice};
use rand::Rng;

/// Power dissipated by the transmitter's heater design, in watts.
pub const HEATER_WATTS: f64 = 63.0;

/// A temperature-proxy reader (an on-chip delay-based thermometer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalReceiver {
    /// RMS error of one temperature reading, in °C.
    pub noise_sigma_c: f64,
}

impl Default for ThermalReceiver {
    fn default() -> Self {
        Self { noise_sigma_c: 0.5 }
    }
}

impl ThermalReceiver {
    /// Reads the die temperature with sensor noise.
    #[must_use]
    pub fn read<R: Rng + ?Sized>(&self, device: &FpgaDevice, rng: &mut R) -> Celsius {
        let noise = crate::gaussian(rng) * self.noise_sigma_c;
        Celsius::new(device.die_temperature().value() + noise)
    }

    /// Decodes a reading into a bit given the ambient temperature: hotter
    /// than `ambient + margin` means the transmitter ran the heater.
    #[must_use]
    pub fn decode(&self, reading: Celsius, ambient: Celsius, margin_c: f64) -> bool {
        reading.value() > ambient.value() + margin_c
    }
}

/// Transmits one bit thermally: run the heater (bit 1) or idle (bit 0)
/// for `duration`, then wipe and hand the board back.
pub fn transmit_thermal_bit(device: &mut FpgaDevice, bit: bool, duration: Hours) {
    if bit {
        let mut heater = Design::new("thermal-tx");
        heater.set_power_watts(HEATER_WATTS);
        device
            .load_design(heater)
            .expect("heater design has no nets and always validates");
        device.run_for(duration);
        device.wipe();
    } else {
        device.run_for(duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (FpgaDevice, ThermalReceiver, StdRng) {
        (
            FpgaDevice::aws_f1(61, Hours::ZERO),
            ThermalReceiver::default(),
            StdRng::seed_from_u64(61),
        )
    }

    #[test]
    fn immediate_handoff_decodes_both_symbols() {
        let receiver = ThermalReceiver::default();
        for bit in [false, true] {
            let (mut device, _, mut rng) = setup();
            let ambient = device.thermal().ambient();
            transmit_thermal_bit(&mut device, bit, Hours::new(0.5));
            // Receiver wins the race instantly.
            let reading = receiver.read(&device, &mut rng);
            assert_eq!(receiver.decode(reading, ambient, 5.0), bit);
        }
    }

    #[test]
    fn one_hour_delay_kills_the_thermal_channel() {
        let (mut device, receiver, mut rng) = setup();
        let ambient = device.thermal().ambient();
        transmit_thermal_bit(&mut device, true, Hours::new(0.5));
        // The board idles in the pool for an hour before reallocation.
        device.run_for(Hours::new(1.0));
        let reading = receiver.read(&device, &mut rng);
        assert!(
            !receiver.decode(reading, ambient, 5.0),
            "temperature evidence must be gone: read {reading}"
        );
    }

    #[test]
    fn bti_imprint_outlives_the_thermal_signal() {
        // Same timeline, two channels: after an hour in the pool the
        // thermal symbol is unreadable while a BTI imprint from the same
        // session still stands out.
        let (mut device, receiver, mut rng) = setup();
        let ambient = device.thermal().ambient();
        let route = device
            .route_with_target_delay(&fpga_fabric::RouteRequest::new(
                fpga_fabric::TileCoord::new(4, 4),
                10_000.0,
            ))
            .expect("routable");
        let mut tx = Design::new("dual-tx");
        tx.set_power_watts(HEATER_WATTS);
        tx.add_net(
            "burn",
            fpga_fabric::NetActivity::Static(bti_physics::LogicLevel::One),
            Some(route.clone()),
        );
        device.load_design(tx).expect("loads");
        device.run_for(Hours::new(100.0));
        device.wipe();
        device.run_for(Hours::new(1.0)); // idle hour in the pool

        let reading = receiver.read(&device, &mut rng);
        assert!(!receiver.decode(reading, ambient, 5.0), "thermal: gone");
        assert!(
            device.route_delta_ps(&route) > 0.3,
            "BTI: still legible ({:.2} ps)",
            device.route_delta_ps(&route)
        );
    }

    #[test]
    fn receiver_noise_is_bounded() {
        let (device, receiver, mut rng) = setup();
        let reads: Vec<f64> = (0..50)
            .map(|_| receiver.read(&device, &mut rng).value())
            .collect();
        let mean = reads.iter().sum::<f64>() / reads.len() as f64;
        assert!((mean - device.die_temperature().value()).abs() < 0.5);
    }
}
