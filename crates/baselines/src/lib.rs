//! Baseline sensors from the paper's related-work comparison (Section 7).
//!
//! The classic way to measure FPGA aging is a **ring oscillator (RO)**: a
//! combinational loop through the resource under test whose oscillation
//! frequency tracks propagation delay. The paper explains why ROs are the
//! wrong tool for pentimento recovery on clouds, and this crate makes both
//! arguments executable:
//!
//! 1. **Single-output limitation** — an RO's frequency integrates the
//!    rising *and* falling propagation through the loop, i.e. the *sum* of
//!    NBTI and PBTI damage. Burn-0 and burn-1 leave nearly identical
//!    frequency shifts, so the RO detects *that* a route aged but not
//!    *which bit* it held. The dual-polarity TDC separates the polarities
//!    and recovers the bit.
//! 2. **DRC rejection** — ROs are self-oscillating combinational loops and
//!    fail cloud design rule checks (`cloud::Provider::load_design`
//!    rejects [`build_ro_design`]); the TDC's clocked structures pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ro;
mod thermal_channel;

pub use ro::{build_ro_design, RoReading, RoSensor};
pub use thermal_channel::{transmit_thermal_bit, ThermalReceiver, HEATER_WATTS};

pub(crate) fn gaussian<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}
