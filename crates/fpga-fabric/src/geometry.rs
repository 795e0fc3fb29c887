//! Tile coordinates and directions on the device grid.

use std::fmt;

/// A tile position on the device grid: `col` grows eastward, `row` grows
/// northward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TileCoord {
    /// Column index (0-based, west to east).
    pub col: u16,
    /// Row index (0-based, south to north).
    pub row: u16,
}

impl TileCoord {
    /// Creates a tile coordinate.
    #[must_use]
    pub fn new(col: u16, row: u16) -> Self {
        Self { col, row }
    }

    /// Manhattan distance between two tiles, in tiles.
    #[must_use]
    pub fn manhattan(self, other: Self) -> u32 {
        let dc = (i32::from(self.col) - i32::from(other.col)).unsigned_abs();
        let dr = (i32::from(self.row) - i32::from(other.row)).unsigned_abs();
        dc + dr
    }

    /// The neighbouring tile `hops` steps away in `direction`, if it stays
    /// within a `cols`×`rows` grid.
    #[must_use]
    pub fn step(self, direction: Direction, hops: u16, cols: u16, rows: u16) -> Option<Self> {
        let (dc, dr) = direction.offset();
        let col = i32::from(self.col) + i32::from(dc) * i32::from(hops);
        let row = i32::from(self.row) + i32::from(dr) * i32::from(hops);
        if col < 0 || row < 0 || col >= i32::from(cols) || row >= i32::from(rows) {
            return None;
        }
        Some(Self::new(col as u16, row as u16))
    }
}

impl fmt::Display for TileCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}Y{}", self.col, self.row)
    }
}

/// A cardinal routing direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward larger rows.
    North,
    /// Toward smaller rows.
    South,
    /// Toward larger columns.
    East,
    /// Toward smaller columns.
    West,
}

impl Direction {
    /// All directions in a fixed order.
    pub const ALL: [Self; 4] = [Self::North, Self::South, Self::East, Self::West];

    /// The `(dcol, drow)` unit offset of this direction.
    #[must_use]
    pub fn offset(self) -> (i8, i8) {
        match self {
            Self::North => (0, 1),
            Self::South => (0, -1),
            Self::East => (1, 0),
            Self::West => (-1, 0),
        }
    }

    /// The opposite direction.
    #[must_use]
    pub fn reverse(self) -> Self {
        match self {
            Self::North => Self::South,
            Self::South => Self::North,
            Self::East => Self::West,
            Self::West => Self::East,
        }
    }

    /// A small stable index for array lookups.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::North => 0,
            Self::South => 1,
            Self::East => 2,
            Self::West => 3,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::North => "N",
            Self::South => "S",
            Self::East => "E",
            Self::West => "W",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        let a = TileCoord::new(3, 4);
        let b = TileCoord::new(7, 1);
        assert_eq!(a.manhattan(b), 7);
        assert_eq!(b.manhattan(a), 7);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn step_respects_grid_bounds() {
        let t = TileCoord::new(0, 0);
        assert_eq!(t.step(Direction::West, 1, 10, 10), None);
        assert_eq!(t.step(Direction::South, 1, 10, 10), None);
        assert_eq!(
            t.step(Direction::East, 2, 10, 10),
            Some(TileCoord::new(2, 0))
        );
        assert_eq!(
            t.step(Direction::North, 9, 10, 10),
            Some(TileCoord::new(0, 9))
        );
        assert_eq!(t.step(Direction::North, 10, 10, 10), None);
    }

    #[test]
    fn reverse_round_trips() {
        for d in Direction::ALL {
            assert_eq!(d.reverse().reverse(), d);
            let (dc, dr) = d.offset();
            let (rc, rr) = d.reverse().offset();
            assert_eq!((dc + rc, dr + rr), (0, 0));
        }
    }

    #[test]
    fn indices_are_unique() {
        let mut seen = [false; 4];
        for d in Direction::ALL {
            assert!(!seen[d.index()]);
            seen[d.index()] = true;
        }
    }

    #[test]
    fn display_matches_xilinx_style() {
        assert_eq!(TileCoord::new(12, 34).to_string(), "X12Y34");
    }
}
