//! Routing: building physical routes with controlled delay.
//!
//! Two routing entry points matter to the reproduction:
//!
//! * [`route_serpentine`](crate::FpgaDevice::route_with_target_delay) —
//!   builds a route of a *requested nominal delay* (1000/2000/5000/10000 ps
//!   in the paper's experiments) by snaking wire segments through a region.
//!   The paper's target and measure designs use "identical routing
//!   constraints", which here means: the same request against the same
//!   device yields the same physical wires.
//! * [`route_between`](crate::FpgaDevice::route_between) — a plain
//!   shortest-ish path between two tiles, used when placing ordinary
//!   designs such as the OpenTitan asset model.

use std::collections::HashSet;

use crate::{Direction, FabricError, TileCoord, WireId, WireKind, WireSegment};

/// Slots per (tile, direction): 4 singles, 2 doubles, 1 quad, 1 long.
const SLOTS_PER_DIRECTION: u32 = 8;

/// The static routing topology of a device: grid dimensions plus the
/// arithmetic wire-id encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Topology {
    pub cols: u16,
    pub rows: u16,
}

impl Topology {
    pub fn new(cols: u16, rows: u16) -> Self {
        assert!(cols >= 8 && rows >= 8, "grid must be at least 8x8");
        Self { cols, rows }
    }

    fn slot(kind: WireKind, track: u8) -> u32 {
        let base = match kind {
            WireKind::Single => 0,
            WireKind::Double => 4,
            WireKind::Quad => 6,
            WireKind::Long => 7,
        };
        assert!(track < kind.tracks(), "track out of range for {kind}");
        base + u32::from(track)
    }

    fn kind_of_slot(slot: u32) -> (WireKind, u8) {
        match slot {
            0..=3 => (WireKind::Single, slot as u8),
            4..=5 => (WireKind::Double, (slot - 4) as u8),
            6 => (WireKind::Quad, 0),
            7 => (WireKind::Long, 0),
            _ => unreachable!("slot {slot} out of range"),
        }
    }

    /// Encodes a wire leaving `from` in `direction`. The caller must have
    /// verified that the wire's far end stays on the grid.
    pub fn encode(
        &self,
        from: TileCoord,
        direction: Direction,
        kind: WireKind,
        track: u8,
    ) -> WireId {
        let tile = u32::from(from.row) * u32::from(self.cols) + u32::from(from.col);
        let id =
            (tile * 4 + direction.index() as u32) * SLOTS_PER_DIRECTION + Self::slot(kind, track);
        WireId(id)
    }

    /// Decodes a wire id back into its segment, if it denotes a wire that
    /// exists on this grid.
    pub fn decode(&self, id: WireId) -> Option<WireSegment> {
        let slot = id.0 % SLOTS_PER_DIRECTION;
        let rest = id.0 / SLOTS_PER_DIRECTION;
        let dir_index = (rest % 4) as usize;
        let tile = rest / 4;
        let col = (tile % u32::from(self.cols)) as u16;
        let row = (tile / u32::from(self.cols)) as u16;
        if row >= self.rows {
            return None;
        }
        let direction = Direction::ALL
            .into_iter()
            .find(|d| d.index() == dir_index)
            .expect("direction index in range");
        let (kind, track) = Self::kind_of_slot(slot);
        let from = TileCoord::new(col, row);
        let to = from.step(direction, kind.reach(), self.cols, self.rows)?;
        Some(WireSegment {
            id,
            from,
            to,
            direction,
            kind,
            track,
        })
    }
}

/// A request for a route of a specific nominal delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteRequest {
    /// Tile where the route starts (the register driving the secret).
    pub start: TileCoord,
    /// Requested nominal delay, in picoseconds.
    pub target_ps: f64,
    /// Acceptable relative error of the achieved nominal delay.
    pub tolerance: f64,
    /// Westernmost column the route may use.
    pub min_col: u16,
    /// Easternmost column the route may use (`u16::MAX` = grid edge).
    pub max_col: u16,
}

impl RouteRequest {
    /// Creates a request with 5 % tolerance and the whole grid available.
    #[must_use]
    pub fn new(start: TileCoord, target_ps: f64) -> Self {
        Self {
            start,
            target_ps,
            tolerance: 0.05,
            min_col: 0,
            max_col: u16::MAX,
        }
    }

    /// Restricts the route to the column band `[min_col, max_col]`.
    #[must_use]
    pub fn within_columns(mut self, min_col: u16, max_col: u16) -> Self {
        self.min_col = min_col;
        self.max_col = max_col;
        self
    }

    /// Overrides the relative delay tolerance.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// A physical route: an ordered list of wire segments.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    segments: Vec<WireSegment>,
    nominal_ps: f64,
}

impl Route {
    pub(crate) fn from_segments(segments: Vec<WireSegment>) -> Self {
        let nominal_ps = segments.iter().map(WireSegment::nominal_delay_ps).sum();
        Self {
            segments,
            nominal_ps,
        }
    }

    /// The segments of the route, in signal order.
    #[must_use]
    pub fn segments(&self) -> &[WireSegment] {
        &self.segments
    }

    /// The nominal (typical-corner, unaged) delay, in picoseconds.
    #[must_use]
    pub fn nominal_ps(&self) -> f64 {
        self.nominal_ps
    }

    /// The wire ids the route occupies.
    pub fn wire_ids(&self) -> impl Iterator<Item = WireId> + '_ {
        self.segments.iter().map(|s| s.id)
    }

    /// Number of segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the route has no segments.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The tile where the route starts.
    #[must_use]
    pub fn start(&self) -> Option<TileCoord> {
        self.segments.first().map(|s| s.from)
    }

    /// The tile where the route ends.
    #[must_use]
    pub fn end(&self) -> Option<TileCoord> {
        self.segments.last().map(|s| s.to)
    }
}

/// Builds a serpentine route of the requested nominal delay.
pub(crate) fn route_serpentine(
    topo: Topology,
    request: &RouteRequest,
    used: &HashSet<WireId>,
) -> Result<Route, FabricError> {
    let target = request.target_ps;
    if !(target.is_finite() && target >= WireKind::Single.base_delay_ps()) {
        return Err(FabricError::Unroutable {
            target_ps: target,
            achieved_ps: 0.0,
        });
    }
    let min_col = request.min_col.min(topo.cols - 1);
    let max_col = request.max_col.min(topo.cols - 1);
    if request.start.col < min_col || request.start.col > max_col || request.start.row >= topo.rows
    {
        return Err(FabricError::OutOfGrid {
            coord: request.start,
            cols: topo.cols,
            rows: topo.rows,
        });
    }

    let half_single = WireKind::Single.base_delay_ps() / 2.0;
    let mut taken: HashSet<WireId> = HashSet::new();
    let mut segments: Vec<WireSegment> = Vec::new();
    let mut pos = request.start;
    let mut heading = Direction::East;
    let mut achieved = 0.0;

    // Try to claim a wire of `kind` leaving `pos` toward `heading`.
    let claim = |pos: TileCoord,
                 dir: Direction,
                 kind: WireKind,
                 taken: &HashSet<WireId>,
                 min_col: u16,
                 max_col: u16|
     -> Option<WireSegment> {
        let to = pos.step(dir, kind.reach(), topo.cols, topo.rows)?;
        if to.col < min_col || to.col > max_col {
            return None;
        }
        (0..kind.tracks()).find_map(|track| {
            let id = topo.encode(pos, dir, kind, track);
            if used.contains(&id) || taken.contains(&id) {
                None
            } else {
                topo.decode(id)
            }
        })
    };

    loop {
        let remaining = target - achieved;
        if remaining < half_single {
            break;
        }
        // Largest kind that does not overshoot by more than half a single.
        let step = WireKind::ALL
            .into_iter()
            .rev()
            .filter(|k| k.base_delay_ps() <= remaining + half_single)
            .find_map(|k| claim(pos, heading, k, &taken, min_col, max_col));

        if let Some(seg) = step {
            achieved += seg.nominal_delay_ps();
            pos = seg.to;
            taken.insert(seg.id);
            segments.push(seg);
            continue;
        }

        // Blocked in the current heading: climb one row and reverse.
        let turn = claim(
            pos,
            Direction::North,
            WireKind::Single,
            &taken,
            min_col,
            max_col,
        );
        match turn {
            Some(seg) => {
                achieved += seg.nominal_delay_ps();
                pos = seg.to;
                taken.insert(seg.id);
                segments.push(seg);
                heading = heading.reverse();
            }
            None => {
                return Err(FabricError::Unroutable {
                    target_ps: target,
                    achieved_ps: achieved,
                })
            }
        }
    }

    let route = Route::from_segments(segments);
    let error = (route.nominal_ps() - target).abs() / target;
    if error > request.tolerance {
        return Err(FabricError::Unroutable {
            target_ps: target,
            achieved_ps: route.nominal_ps(),
        });
    }
    Ok(route)
}

/// Builds a direct (L-shaped, greedy-kind) route between two tiles.
pub(crate) fn route_direct(
    topo: Topology,
    from: TileCoord,
    to: TileCoord,
    used: &HashSet<WireId>,
) -> Result<Route, FabricError> {
    for coord in [from, to] {
        if coord.col >= topo.cols || coord.row >= topo.rows {
            return Err(FabricError::OutOfGrid {
                coord,
                cols: topo.cols,
                rows: topo.rows,
            });
        }
    }
    let mut taken: HashSet<WireId> = HashSet::new();
    let mut segments = Vec::new();
    let mut pos = from;

    let advance_axis = |pos: &mut TileCoord,
                        segments: &mut Vec<WireSegment>,
                        taken: &mut HashSet<WireId>,
                        target: u16,
                        horizontal: bool|
     -> Result<(), FabricError> {
        loop {
            let (cur, dir_pos, dir_neg) = if horizontal {
                (pos.col, Direction::East, Direction::West)
            } else {
                (pos.row, Direction::North, Direction::South)
            };
            if cur == target {
                return Ok(());
            }
            let distance = cur.abs_diff(target);
            let dir = if target > cur { dir_pos } else { dir_neg };
            let seg = WireKind::ALL
                .into_iter()
                .rev()
                .filter(|k| k.reach() <= distance)
                .find_map(|k| {
                    (0..k.tracks()).find_map(|track| {
                        let id = topo.encode(*pos, dir, k, track);
                        if used.contains(&id) || taken.contains(&id) {
                            None
                        } else {
                            topo.decode(id)
                        }
                    })
                })
                .ok_or(FabricError::Unroutable {
                    target_ps: f64::from(distance) * WireKind::Single.base_delay_ps(),
                    achieved_ps: 0.0,
                })?;
            taken.insert(seg.id);
            *pos = seg.to;
            segments.push(seg);
        }
    };

    advance_axis(&mut pos, &mut segments, &mut taken, to.col, true)?;
    advance_axis(&mut pos, &mut segments, &mut taken, to.row, false)?;
    Ok(Route::from_segments(segments))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(96, 96)
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = topo();
        for dir in Direction::ALL {
            for kind in WireKind::ALL {
                for track in 0..kind.tracks() {
                    let from = TileCoord::new(40, 40);
                    let id = t.encode(from, dir, kind, track);
                    let seg = t.decode(id).expect("interior wire exists");
                    assert_eq!(seg.from, from);
                    assert_eq!(seg.direction, dir);
                    assert_eq!(seg.kind, kind);
                    assert_eq!(seg.track, track);
                    assert_eq!(seg.from.manhattan(seg.to), u32::from(kind.reach()));
                }
            }
        }
    }

    #[test]
    fn edge_wires_decode_to_none() {
        let t = topo();
        let id = t.encode(TileCoord::new(95, 0), Direction::East, WireKind::Single, 0);
        assert_eq!(t.decode(id), None);
    }

    #[test]
    fn serpentine_hits_target_lengths() {
        let t = topo();
        let used = HashSet::new();
        for target in [1000.0, 2000.0, 5000.0, 10_000.0] {
            let req = RouteRequest::new(TileCoord::new(4, 4), target);
            let route = route_serpentine(t, &req, &used).expect("routable");
            let err = (route.nominal_ps() - target).abs() / target;
            assert!(
                err <= 0.05,
                "target {target}: got {} ps",
                route.nominal_ps()
            );
            assert_eq!(route.start(), Some(TileCoord::new(4, 4)));
        }
    }

    #[test]
    fn serpentine_avoids_used_wires() {
        let t = topo();
        let req = RouteRequest::new(TileCoord::new(4, 4), 5000.0);
        let first = route_serpentine(t, &req, &HashSet::new()).unwrap();
        let used: HashSet<WireId> = first.wire_ids().collect();
        let second = route_serpentine(t, &req, &used).unwrap();
        let overlap = second.wire_ids().any(|w| used.contains(&w));
        assert!(!overlap, "routes must be wire-disjoint");
    }

    #[test]
    fn serpentine_is_deterministic() {
        let t = topo();
        let req = RouteRequest::new(TileCoord::new(10, 2), 2000.0);
        let a = route_serpentine(t, &req, &HashSet::new()).unwrap();
        let b = route_serpentine(t, &req, &HashSet::new()).unwrap();
        assert_eq!(a, b, "same request, same skeleton");
    }

    #[test]
    fn serpentine_respects_column_band() {
        let t = topo();
        let req = RouteRequest::new(TileCoord::new(10, 2), 8000.0).within_columns(8, 24);
        let route = route_serpentine(t, &req, &HashSet::new()).unwrap();
        for seg in route.segments() {
            assert!(seg.from.col >= 8 && seg.from.col <= 24);
            assert!(seg.to.col >= 8 && seg.to.col <= 24);
        }
    }

    #[test]
    fn tiny_target_is_unroutable() {
        let t = topo();
        let req = RouteRequest::new(TileCoord::new(4, 4), 10.0);
        assert!(matches!(
            route_serpentine(t, &req, &HashSet::new()),
            Err(FabricError::Unroutable { .. })
        ));
    }

    #[test]
    fn direct_route_reaches_destination() {
        let t = topo();
        let from = TileCoord::new(3, 7);
        let to = TileCoord::new(30, 22);
        let route = route_direct(t, from, to, &HashSet::new()).unwrap();
        assert_eq!(route.start(), Some(from));
        assert_eq!(route.end(), Some(to));
        // Uses long/quad wires where possible, so far fewer segments than
        // the Manhattan distance.
        assert!(route.len() < usize::from(from.manhattan(to) as u16));
    }

    #[test]
    fn direct_route_same_tile_is_empty() {
        let t = topo();
        let a = TileCoord::new(5, 5);
        let route = route_direct(t, a, a, &HashSet::new()).unwrap();
        assert!(route.is_empty());
        assert_eq!(route.nominal_ps(), 0.0);
    }

    #[test]
    fn out_of_grid_rejected() {
        let t = topo();
        let bad = TileCoord::new(200, 5);
        assert!(matches!(
            route_direct(t, bad, TileCoord::new(1, 1), &HashSet::new()),
            Err(FabricError::OutOfGrid { .. })
        ));
        let req = RouteRequest::new(bad, 1000.0);
        assert!(matches!(
            route_serpentine(t, &req, &HashSet::new()),
            Err(FabricError::OutOfGrid { .. })
        ));
    }
}
