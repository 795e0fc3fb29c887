//! Device fingerprinting via process variation.
//!
//! Assumption 2 of the paper requires the attacker to *know* they got the
//! victim's board back. Prior work (Tian et al.) fingerprints cloud FPGAs
//! through physical uniqueness; we reproduce the idea by hashing coarse
//! quantizations of a fixed set of wire-delay variation factors — exactly
//! the kind of measurement a tenant can make with on-chip sensors.

use fpga_fabric::{FpgaDevice, TileCoord, WireId};
use std::fmt;

/// A stable physical identity derived from silicon variation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fp-{:016x}", self.0)
    }
}

/// Fingerprints a device by measuring delay variation at a grid of probe
/// wires.
///
/// The fingerprint is a function of the silicon only: independent of
/// loaded designs, wipes, and (coarsely quantized) of aging.
#[must_use]
pub fn fingerprint_device(device: &FpgaDevice) -> Fingerprint {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let step_c = (device.cols() / 8).max(1);
    let step_r = (device.rows() / 8).max(1);
    let mut col = 1;
    while col + 1 < device.cols() {
        let mut row = 1;
        while row + 1 < device.rows() {
            // Probe the first eastbound single leaving each probe tile.
            let probe = TileCoord::new(col, row);
            if let Some(seg) = probe_segment(device, probe) {
                let delay = device.wire_delay(&seg).rise_ps;
                // Coarse quantization (0.5 ps buckets) keeps the print
                // stable against sub-ps aging drift.
                let bucket = (delay * 2.0).round() as i64;
                hash ^= bucket as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            row += step_r;
        }
        col += step_c;
    }
    Fingerprint(hash)
}

fn probe_segment(device: &FpgaDevice, at: TileCoord) -> Option<fpga_fabric::WireSegment> {
    // Probe wire ids are derived the same way the router derives them, so
    // any tenant can reconstruct the same probe set.
    let route = device
        .route_between(at, TileCoord::new(at.col + 1, at.row))
        .ok()?;
    let id: WireId = route.wire_ids().next()?;
    device.wire_segment(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bti_physics::Hours;

    #[test]
    fn same_device_same_fingerprint() {
        let a = FpgaDevice::aws_f1(5, Hours::ZERO);
        let b = FpgaDevice::aws_f1(5, Hours::ZERO);
        assert_eq!(fingerprint_device(&a), fingerprint_device(&b));
    }

    #[test]
    fn different_silicon_different_fingerprint() {
        let a = FpgaDevice::aws_f1(5, Hours::ZERO);
        let b = FpgaDevice::aws_f1(6, Hours::ZERO);
        assert_ne!(fingerprint_device(&a), fingerprint_device(&b));
    }

    #[test]
    fn fingerprint_survives_wipe_and_time() {
        let mut dev = FpgaDevice::aws_f1(7, Hours::ZERO);
        let before = fingerprint_device(&dev);
        dev.run_for(Hours::new(24.0));
        dev.wipe();
        assert_eq!(fingerprint_device(&dev), before);
    }

    #[test]
    fn display_is_hex() {
        let dev = FpgaDevice::aws_f1(8, Hours::ZERO);
        let fp = fingerprint_device(&dev);
        assert!(fp.to_string().starts_with("fp-"));
    }
}
