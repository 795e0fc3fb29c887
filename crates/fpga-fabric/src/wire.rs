//! Programmable-routing wire segments.
//!
//! UltraScale+-style interconnect provides wire segments of several reach
//! classes per switchbox: singles (1 tile), doubles (2 tiles), quads
//! (4 tiles) and long lines (6+ tiles). Each segment is a chain of pass
//! transistors and buffers, so longer segments both delay the signal more
//! and expose more transistors to BTI stress — the paper's observation that
//! burn-in magnitude scales with route length falls out of this.

use std::fmt;

use crate::{Direction, TileCoord};

/// Stable identifier of one physical wire segment on a device.
///
/// Wire ids are dense indices into the device's wire table; they are the
/// key under which analog aging state persists across designs and wipes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireId(pub u32);

impl WireId {
    /// The dense table index of this wire.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WireId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.0)
    }
}

/// The reach class of a wire segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireKind {
    /// Reaches the adjacent switchbox (1 tile).
    Single,
    /// Reaches 2 tiles away.
    Double,
    /// Reaches 4 tiles away.
    Quad,
    /// Reaches 6 tiles away.
    Long,
}

impl WireKind {
    /// All kinds, shortest reach first.
    pub const ALL: [Self; 4] = [Self::Single, Self::Double, Self::Quad, Self::Long];

    /// The number of tiles this segment spans.
    #[must_use]
    pub fn reach(self) -> u16 {
        match self {
            Self::Single => 1,
            Self::Double => 2,
            Self::Quad => 4,
            Self::Long => 6,
        }
    }

    /// Nominal propagation delay through the segment, in picoseconds.
    ///
    /// Longer segments amortize switchbox cost: delay per tile falls with
    /// reach, as on real devices.
    #[must_use]
    pub fn base_delay_ps(self) -> f64 {
        match self {
            Self::Single => 90.0,
            Self::Double => 140.0,
            Self::Quad => 235.0,
            Self::Long => 320.0,
        }
    }

    /// How many tracks of this kind leave each tile per direction.
    #[must_use]
    pub fn tracks(self) -> u8 {
        match self {
            Self::Single => 4,
            Self::Double => 2,
            Self::Quad => 1,
            Self::Long => 1,
        }
    }
}

impl fmt::Display for WireKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Single => "single",
            Self::Double => "double",
            Self::Quad => "quad",
            Self::Long => "long",
        };
        f.write_str(s)
    }
}

/// One physical wire segment: a directed hop between two switchboxes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireSegment {
    /// Stable identifier.
    pub id: WireId,
    /// Switchbox where the segment starts.
    pub from: TileCoord,
    /// Switchbox where the segment ends.
    pub to: TileCoord,
    /// Direction of travel.
    pub direction: Direction,
    /// Reach class.
    pub kind: WireKind,
    /// Track index within `(from, direction, kind)`.
    pub track: u8,
}

impl WireSegment {
    /// Nominal (unaged, typical-corner) delay of this segment.
    #[must_use]
    pub fn nominal_delay_ps(&self) -> f64 {
        self.kind.base_delay_ps()
    }
}

impl fmt::Display for WireSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}{}#{} {}→{}",
            self.id,
            self.kind,
            self.direction,
            self.kind.reach(),
            self.track,
            self.from,
            self.to
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_kinds_reach_further_and_cost_less_per_tile() {
        let mut last_reach = 0;
        let mut last_per_tile = f64::INFINITY;
        for kind in WireKind::ALL {
            assert!(kind.reach() > last_reach);
            let per_tile = kind.base_delay_ps() / f64::from(kind.reach());
            assert!(
                per_tile < last_per_tile,
                "{kind} per-tile {per_tile} should beat previous {last_per_tile}"
            );
            last_reach = kind.reach();
            last_per_tile = per_tile;
        }
    }

    #[test]
    fn segment_display_mentions_endpoints() {
        let seg = WireSegment {
            id: WireId(5),
            from: TileCoord::new(1, 2),
            to: TileCoord::new(1, 4),
            direction: Direction::North,
            kind: WireKind::Double,
            track: 1,
        };
        let s = seg.to_string();
        assert!(s.contains("X1Y2"));
        assert!(s.contains("X1Y4"));
        assert!(s.contains("W5"));
    }

    #[test]
    fn wire_id_index_round_trip() {
        assert_eq!(WireId(42).index(), 42);
    }
}
