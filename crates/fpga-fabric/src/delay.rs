//! Transition kinds and route-delay summaries.

use std::fmt;

/// The polarity of a signal transition travelling through a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// A 0 → 1 edge. Limited by PMOS pull-ups, i.e. slowed by NBTI.
    Rising,
    /// A 1 → 0 edge. Limited by NMOS pull-downs, i.e. slowed by PBTI.
    Falling,
}

impl TransitionKind {
    /// Both transition kinds, rising first.
    pub const ALL: [Self; 2] = [Self::Rising, Self::Falling];
}

impl fmt::Display for TransitionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Rising => f.write_str("rising"),
            Self::Falling => f.write_str("falling"),
        }
    }
}

/// The aged, variation-adjusted propagation delays of one route.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RouteDelay {
    /// Delay of a rising edge, in picoseconds.
    pub rise_ps: f64,
    /// Delay of a falling edge, in picoseconds.
    pub fall_ps: f64,
}

impl RouteDelay {
    /// Delay for the given transition kind.
    #[must_use]
    pub fn for_transition(&self, kind: TransitionKind) -> f64 {
        match kind {
            TransitionKind::Rising => self.rise_ps,
            TransitionKind::Falling => self.fall_ps,
        }
    }

    /// The paper's differential observable: falling minus rising delay.
    #[must_use]
    pub fn delta_ps(&self) -> f64 {
        self.fall_ps - self.rise_ps
    }
}

impl fmt::Display for RouteDelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rise {:.1} ps / fall {:.1} ps (Δ {:+.3} ps)",
            self.rise_ps,
            self.fall_ps,
            self.delta_ps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_fall_minus_rise() {
        let d = RouteDelay {
            rise_ps: 1000.0,
            fall_ps: 1002.5,
        };
        assert!((d.delta_ps() - 2.5).abs() < 1e-12);
        assert_eq!(d.for_transition(TransitionKind::Rising), 1000.0);
        assert_eq!(d.for_transition(TransitionKind::Falling), 1002.5);
    }

    #[test]
    fn display_shows_delta() {
        let d = RouteDelay {
            rise_ps: 10.0,
            fall_ps: 12.0,
        };
        assert!(d.to_string().contains("+2.000"));
    }
}
