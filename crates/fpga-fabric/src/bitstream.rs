//! Bitstreams: the binary form in which designs travel.
//!
//! Real AFIs are opaque configuration binaries, not netlists — the paper's
//! Threat Model 1 matters precisely because the attacker holds a sealed
//! binary they cannot introspect. This module gives the workspace that
//! artifact: a simple framed word stream with a magic header, a version,
//! and a trailing CRC-32, assembled from and disassembled back into
//! [`Design`]s. The cloud marketplace ships these.

use bti_physics::{DutyCycle, LogicLevel};

use crate::router::Route;
use crate::{CellKind, Design, FabricError, NetActivity, TileCoord, WireId, WireSegment};

const MAGIC: u32 = 0xA55A_F1F1;
const VERSION: u32 = 1;

/// A configuration binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    words: Vec<u32>,
}

impl Bitstream {
    /// Assembles a design into its binary form (magic, version, payload,
    /// CRC-32 trailer).
    #[must_use]
    pub fn assemble(design: &Design) -> Self {
        let mut w = Writer::default();
        w.word(MAGIC);
        w.word(VERSION);
        w.string(design.name());
        w.word(design.power_watts().to_bits() as u32);
        w.word((design.power_watts().to_bits() >> 32) as u32);
        w.word(design.nets().len() as u32);
        for net in design.nets() {
            w.string(&net.name);
            match net.activity {
                NetActivity::Dynamic => w.word(0),
                NetActivity::Static(LogicLevel::Zero) => w.word(1),
                NetActivity::Static(LogicLevel::One) => w.word(2),
                NetActivity::Duty(d) => {
                    w.word(3);
                    w.word((d.fraction_at_one() as f32).to_bits());
                }
            }
            match &net.route {
                None => w.word(0),
                Some(route) => {
                    w.word(route.len() as u32);
                    for id in route.wire_ids() {
                        w.word(id.0);
                    }
                }
            }
        }
        w.word(design.cells().len() as u32);
        for cell in design.cells() {
            w.string(&cell.name);
            w.word(cell_kind_code(cell.kind));
            match cell.location {
                None => w.word(0),
                Some(t) => {
                    w.word(1);
                    w.word(u32::from(t.col) << 16 | u32::from(t.row));
                }
            }
            w.word(cell.inputs.len() as u32);
            for &i in &cell.inputs {
                w.word(i as u32);
            }
            match cell.output {
                None => w.word(u32::MAX),
                Some(o) => w.word(o as u32),
            }
        }
        let crc = crc32(&w.words);
        w.word(crc);
        Self { words: w.words }
    }

    /// Parses the binary back into a design.
    ///
    /// Wire ids are re-validated against `decode_wire`, the device's wire
    /// decoder — a bitstream assembled for one device profile will fail to
    /// disassemble against an incompatible grid.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::MalformedDesign`] on a bad magic, version,
    /// CRC, truncated stream, or invalid wire id.
    pub fn disassemble(
        &self,
        mut decode_wire: impl FnMut(WireId) -> Option<WireSegment>,
    ) -> Result<Design, FabricError> {
        let malformed = |msg: &str| FabricError::MalformedDesign(format!("bitstream: {msg}"));
        if self.words.len() < 4 {
            return Err(malformed("truncated header"));
        }
        let (payload, trailer) = self.words.split_at(self.words.len() - 1);
        if crc32(payload) != trailer[0] {
            return Err(malformed("CRC mismatch"));
        }
        let mut r = Reader {
            words: payload,
            pos: 0,
        };
        if r.word()? != MAGIC {
            return Err(malformed("bad magic"));
        }
        if r.word()? != VERSION {
            return Err(malformed("unsupported version"));
        }
        let name = r.string()?;
        let power_lo = u64::from(r.word()?);
        let power_hi = u64::from(r.word()?);
        let mut design = Design::new(name);
        design.set_power_watts(f64::from_bits(power_hi << 32 | power_lo));

        let net_count = r.word()? as usize;
        for _ in 0..net_count {
            let net_name = r.string()?;
            let activity = match r.word()? {
                0 => NetActivity::Dynamic,
                1 => NetActivity::Static(LogicLevel::Zero),
                2 => NetActivity::Static(LogicLevel::One),
                3 => {
                    let frac = f64::from(f32::from_bits(r.word()?));
                    NetActivity::Duty(
                        DutyCycle::new(frac.clamp(0.0, 1.0))
                            .map_err(|e| malformed(&format!("bad duty cycle: {e}")))?,
                    )
                }
                other => return Err(malformed(&format!("unknown activity code {other}"))),
            };
            let wire_count = r.word()? as usize;
            let route = if wire_count == 0 {
                None
            } else {
                let mut segments = Vec::with_capacity(wire_count);
                for _ in 0..wire_count {
                    let id = WireId(r.word()?);
                    let seg = decode_wire(id)
                        .ok_or_else(|| malformed(&format!("wire {id} invalid for this device")))?;
                    segments.push(seg);
                }
                Some(Route::from_segments(segments))
            };
            design.add_net(net_name, activity, route);
        }

        let cell_count = r.word()? as usize;
        for _ in 0..cell_count {
            let cell_name = r.string()?;
            let kind =
                cell_kind_from_code(r.word()?).ok_or_else(|| malformed("unknown cell kind"))?;
            let location = match r.word()? {
                0 => None,
                1 => {
                    let packed = r.word()?;
                    Some(TileCoord::new(
                        (packed >> 16) as u16,
                        (packed & 0xFFFF) as u16,
                    ))
                }
                _ => return Err(malformed("bad location tag")),
            };
            let input_count = r.word()? as usize;
            let mut inputs = Vec::with_capacity(input_count);
            for _ in 0..input_count {
                inputs.push(r.word()? as usize);
            }
            let output = match r.word()? {
                u32::MAX => None,
                o => Some(o as usize),
            };
            design.add_cell(cell_name, kind, location, inputs, output);
        }
        if r.pos != payload.len() {
            return Err(malformed("trailing garbage"));
        }
        Ok(design)
    }

    /// The raw configuration words.
    #[must_use]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Size in 32-bit words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the stream is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Flips one bit (fault injection / tamper testing).
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range or `bit >= 32`.
    pub fn flip_bit(&mut self, word: usize, bit: u8) {
        assert!(bit < 32, "bit index out of range");
        self.words[word] ^= 1 << bit;
    }
}

fn cell_kind_code(kind: CellKind) -> u32 {
    match kind {
        CellKind::Register => 0,
        CellKind::Lut => 1,
        CellKind::Carry8 => 2,
        CellKind::DspMac => 3,
        CellKind::TransitionGenerator => 4,
        CellKind::ClockGenerator => 5,
    }
}

fn cell_kind_from_code(code: u32) -> Option<CellKind> {
    Some(match code {
        0 => CellKind::Register,
        1 => CellKind::Lut,
        2 => CellKind::Carry8,
        3 => CellKind::DspMac,
        4 => CellKind::TransitionGenerator,
        5 => CellKind::ClockGenerator,
        _ => return None,
    })
}

#[derive(Default)]
struct Writer {
    words: Vec<u32>,
}

impl Writer {
    fn word(&mut self, w: u32) {
        self.words.push(w);
    }

    fn string(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.word(bytes.len() as u32);
        for chunk in bytes.chunks(4) {
            let mut w = 0u32;
            for (i, &b) in chunk.iter().enumerate() {
                w |= u32::from(b) << (8 * i);
            }
            self.word(w);
        }
    }
}

struct Reader<'a> {
    words: &'a [u32],
    pos: usize,
}

impl Reader<'_> {
    fn word(&mut self) -> Result<u32, FabricError> {
        let w = self
            .words
            .get(self.pos)
            .copied()
            .ok_or_else(|| FabricError::MalformedDesign("bitstream: truncated".to_owned()))?;
        self.pos += 1;
        Ok(w)
    }

    fn string(&mut self) -> Result<String, FabricError> {
        let len = self.word()? as usize;
        if len > 1 << 16 {
            return Err(FabricError::MalformedDesign(
                "bitstream: absurd string length".to_owned(),
            ));
        }
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len.div_ceil(4) {
            let w = self.word()?;
            for i in 0..4 {
                if bytes.len() < len {
                    bytes.push((w >> (8 * i)) as u8);
                }
            }
        }
        String::from_utf8(bytes)
            .map_err(|_| FabricError::MalformedDesign("bitstream: bad utf8".to_owned()))
    }
}

/// Bitwise CRC-32 (IEEE polynomial) over the word stream.
fn crc32(words: &[u32]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &word in words {
        for byte in word.to_le_bytes() {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FpgaDevice, RouteRequest};

    fn sample_design(device: &FpgaDevice) -> Design {
        let route = device
            .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), 2_000.0))
            .expect("routable");
        let mut d = Design::new("round-trip");
        d.set_power_watts(42.5);
        let n0 = d.add_net("secret", NetActivity::Static(LogicLevel::One), Some(route));
        let n1 = d.add_net("balanced", NetActivity::Duty(DutyCycle::BALANCED), None);
        let n2 = d.add_net("bus", NetActivity::Dynamic, None);
        d.add_cell(
            "src",
            CellKind::Register,
            Some(TileCoord::new(4, 4)),
            vec![],
            Some(n0),
        );
        d.add_cell("lut", CellKind::Lut, None, vec![n0, n1], Some(n2));
        d
    }

    #[test]
    fn assemble_disassemble_round_trips() {
        let device = FpgaDevice::zcu102_new(101);
        let design = sample_design(&device);
        let bits = Bitstream::assemble(&design);
        let back = bits
            .disassemble(|id| device.wire_segment(id))
            .expect("valid stream");
        assert_eq!(back, design);
    }

    #[test]
    fn corruption_is_detected() {
        let device = FpgaDevice::zcu102_new(102);
        let design = sample_design(&device);
        let clean = Bitstream::assemble(&design);
        for word in [0, 3, clean.len() / 2, clean.len() - 1] {
            let mut tampered = clean.clone();
            tampered.flip_bit(word, 7);
            assert!(
                tampered.disassemble(|id| device.wire_segment(id)).is_err(),
                "flipping word {word} must be caught"
            );
        }
    }

    #[test]
    fn wrong_device_profile_rejects_routes() {
        // Assemble against the big F1 grid, disassemble against the small
        // ZCU102: wires beyond the small grid must be rejected.
        let f1 = FpgaDevice::aws_f1(103, bti_physics::Hours::ZERO);
        let route = f1
            .route_with_target_delay(
                &RouteRequest::new(TileCoord::new(150, 100), 2_000.0).within_columns(130, 158),
            )
            .expect("routable on the big grid");
        let mut d = Design::new("f1-only");
        d.add_net("n", NetActivity::Static(LogicLevel::One), Some(route));
        let bits = Bitstream::assemble(&d);
        let zcu = FpgaDevice::zcu102_new(103);
        assert!(matches!(
            bits.disassemble(|id| zcu.wire_segment(id)),
            Err(FabricError::MalformedDesign(_))
        ));
        // ...and still parses fine against its own profile.
        assert!(bits.disassemble(|id| f1.wire_segment(id)).is_ok());
    }

    #[test]
    fn empty_design_round_trips() {
        let device = FpgaDevice::zcu102_new(104);
        let design = Design::new("empty");
        let bits = Bitstream::assemble(&design);
        let back = bits.disassemble(|id| device.wire_segment(id)).unwrap();
        assert_eq!(back, design);
    }

    #[test]
    fn unicode_names_survive() {
        let device = FpgaDevice::zcu102_new(105);
        let mut design = Design::new("pentimentø-画");
        design.add_net("ключ[0]", NetActivity::Dynamic, None);
        let bits = Bitstream::assemble(&design);
        let back = bits.disassemble(|id| device.wire_segment(id)).unwrap();
        assert_eq!(back.name(), "pentimentø-画");
        assert_eq!(back.nets()[0].name, "ключ[0]");
    }

    #[test]
    fn crc_is_stable() {
        // Known-answer check so the format does not silently drift.
        assert_eq!(crc32(&[]), 0);
        assert_eq!(crc32(&[0x0000_0001]), crc32(&[0x0000_0001]));
        assert_ne!(crc32(&[1]), crc32(&[2]));
    }

    #[test]
    fn truncated_stream_rejected() {
        let device = FpgaDevice::zcu102_new(106);
        let design = sample_design(&device);
        let bits = Bitstream::assemble(&design);
        let truncated = Bitstream {
            words: bits.words()[..bits.len() - 2].to_vec(),
        };
        assert!(truncated.disassemble(|id| device.wire_segment(id)).is_err());
    }
}
