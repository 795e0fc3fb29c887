//! Skeletons: the route-placement knowledge shared by victim and attacker.
//!
//! Assumption 1 of the paper: the attacker knows *where* the sensitive
//! routes are (from public designs like OpenTitan or FINN bitstreams, or
//! by authoring the AFI themselves) — just not *what values* they held. A
//! [`Skeleton`] captures exactly that: the deterministic physical routes
//! of an experiment layout, reconstructible by anyone with the same
//! device profile.

use fpga_fabric::{FpgaDevice, Route, RoutePacker};

use crate::PentimentoError;

/// One group of identically sized routes (the paper uses four groups of
/// sixteen).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteGroupSpec {
    /// Nominal route delay, in picoseconds.
    pub target_ps: f64,
    /// Number of routes in the group.
    pub count: usize,
}

/// One placed route and the group it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct SkeletonEntry {
    /// The group's nominal delay, in picoseconds.
    pub target_ps: f64,
    /// The physical route.
    pub route: Route,
}

/// The deterministic physical layout of an experiment's routes under
/// test.
#[derive(Debug, Clone, PartialEq)]
pub struct Skeleton {
    entries: Vec<SkeletonEntry>,
}

impl Skeleton {
    /// Builds the skeleton for `specs` on `device`.
    ///
    /// Longer groups are packed first (they need contiguous room);
    /// entries are returned in the original spec order. Deterministic:
    /// the same specs on the same device profile always produce the same
    /// physical wires.
    ///
    /// # Errors
    ///
    /// Returns [`PentimentoError::Fabric`] when the layout does not fit
    /// the device, or [`PentimentoError::InvalidConfig`] for empty specs.
    pub fn place(device: &FpgaDevice, specs: &[RouteGroupSpec]) -> Result<Self, PentimentoError> {
        if specs.is_empty() || specs.iter().all(|s| s.count == 0) {
            return Err(PentimentoError::InvalidConfig(
                "skeleton needs at least one route".to_owned(),
            ));
        }
        // Pack longest-first for density, but remember each target's spec
        // order so entries come back grouped as requested.
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by(|&a, &b| {
            specs[b]
                .target_ps
                .partial_cmp(&specs[a].target_ps)
                .expect("targets are not NaN")
        });
        let mut packer = RoutePacker::new(device, 2);
        let mut routed: Vec<Vec<Route>> = vec![Vec::new(); specs.len()];
        for &spec_idx in &order {
            let spec = specs[spec_idx];
            for _ in 0..spec.count {
                routed[spec_idx].push(packer.pack(spec.target_ps)?);
            }
        }
        let entries = specs
            .iter()
            .zip(routed)
            .flat_map(|(spec, routes)| {
                routes.into_iter().map(|route| SkeletonEntry {
                    target_ps: spec.target_ps,
                    route,
                })
            })
            .collect();
        Ok(Self { entries })
    }

    /// A skeleton with no routes: the neutral value campaign state
    /// machines start from before placement runs.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// The paper's standard layout: sixteen routes each of 1000, 2000,
    /// 5000 and 10000 ps (Sections 6.1–6.3).
    ///
    /// # Errors
    ///
    /// As [`place`](Skeleton::place).
    pub fn paper_standard(device: &FpgaDevice) -> Result<Self, PentimentoError> {
        let specs: Vec<RouteGroupSpec> = [1_000.0, 2_000.0, 5_000.0, 10_000.0]
            .into_iter()
            .map(|target_ps| RouteGroupSpec {
                target_ps,
                count: 16,
            })
            .collect();
        Self::place(device, &specs)
    }

    /// The placed entries, grouped in spec order.
    #[must_use]
    pub fn entries(&self) -> &[SkeletonEntry] {
        &self.entries
    }

    /// Number of routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the skeleton is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the routes.
    pub fn routes(&self) -> impl Iterator<Item = &Route> {
        self.entries.iter().map(|e| &e.route)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_standard_is_64_routes_on_zcu102() {
        let device = FpgaDevice::zcu102_new(21);
        let skeleton = Skeleton::paper_standard(&device).unwrap();
        assert_eq!(skeleton.len(), 64);
        // Grouped in spec order: first 16 are the 1000 ps group.
        for e in &skeleton.entries()[..16] {
            assert_eq!(e.target_ps, 1_000.0);
            let err = (e.route.nominal_ps() - 1_000.0).abs() / 1_000.0;
            assert!(err <= 0.05);
        }
        for e in &skeleton.entries()[48..] {
            assert_eq!(e.target_ps, 10_000.0);
        }
    }

    #[test]
    fn skeleton_is_reconstructible_by_the_attacker() {
        // Two independent parties with the same device derive identical
        // physical wires — Assumption 1 in executable form.
        let device = FpgaDevice::zcu102_new(22);
        let victim_view = Skeleton::paper_standard(&device).unwrap();
        let attacker_view = Skeleton::paper_standard(&device).unwrap();
        assert_eq!(victim_view, attacker_view);
    }

    #[test]
    fn empty_specs_rejected() {
        let device = FpgaDevice::zcu102_new(23);
        assert!(matches!(
            Skeleton::place(&device, &[]),
            Err(PentimentoError::InvalidConfig(_))
        ));
        assert!(matches!(
            Skeleton::place(
                &device,
                &[RouteGroupSpec {
                    target_ps: 1000.0,
                    count: 0
                }]
            ),
            Err(PentimentoError::InvalidConfig(_))
        ));
    }

    #[test]
    fn routes_are_wire_disjoint() {
        let device = FpgaDevice::zcu102_new(24);
        let skeleton = Skeleton::paper_standard(&device).unwrap();
        let mut seen = std::collections::HashSet::new();
        for route in skeleton.routes() {
            for w in route.wire_ids() {
                assert!(seen.insert(w));
            }
        }
    }
}
