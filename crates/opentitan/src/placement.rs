//! Placing asset route populations onto the simulated fabric.

use fpga_fabric::{FabricError, FpgaDevice, Route, RoutePacker};

use crate::{Asset, QuantileFit};

/// One asset realized as physical routes on a device.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedAsset {
    /// The asset definition.
    pub asset: Asset,
    /// The route-length targets sampled from the asset's distribution, in
    /// picoseconds (one per placed or skipped bit).
    pub targets_ps: Vec<f64>,
    /// The successfully placed routes, in target order (short targets
    /// filtered out).
    pub routes: Vec<Route>,
    /// Targets too short to realize as inter-tile routes (shorter than one
    /// single-hop segment). These bits live in intra-tile wiring and are
    /// the paper's "safe because short" population.
    pub too_short_ps: Vec<f64>,
}

impl PlacedAsset {
    /// Fraction of the sampled bits that could be realized as routes.
    #[must_use]
    pub fn placed_fraction(&self) -> f64 {
        if self.targets_ps.is_empty() {
            return 0.0;
        }
        self.routes.len() as f64 / self.targets_ps.len() as f64
    }
}

/// Places up to `max_routes_per_asset` representative routes per asset on
/// `device`, sampling each asset's length distribution.
///
/// Routes are packed into vertical bands (via
/// [`fpga_fabric::RoutePacker`]) and never share wires. Targets below the
/// minimum realizable segment delay are reported in
/// [`PlacedAsset::too_short_ps`] rather than placed.
///
/// # Errors
///
/// Returns [`FabricError::Unroutable`] if the device runs out of room —
/// use fewer routes per asset or a larger device profile.
pub fn place_assets(
    device: &FpgaDevice,
    assets: &[Asset],
    max_routes_per_asset: usize,
) -> Result<Vec<PlacedAsset>, FabricError> {
    let min_target = RoutePacker::min_target_ps();
    let mut packer = RoutePacker::new(device, 5);
    let mut placed = Vec::with_capacity(assets.len());
    for asset in assets {
        let n = usize::from(asset.bus_width).min(max_routes_per_asset);
        let fit = QuantileFit::from_stats(&asset.paper_stats);
        let targets = fit.stratified_samples(n);
        let mut routes = Vec::new();
        let mut too_short = Vec::new();
        for &target in &targets {
            if target < min_target {
                too_short.push(target);
            } else {
                routes.push(packer.pack(target)?);
            }
        }
        placed.push(PlacedAsset {
            asset: asset.clone(),
            targets_ps: targets,
            routes,
            too_short_ps: too_short,
        });
    }
    Ok(placed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::earl_grey_assets;
    use bti_physics::Hours;
    use std::collections::HashSet;

    #[test]
    fn all_twenty_assets_place_on_f1_device() {
        let device = FpgaDevice::aws_f1(3, Hours::ZERO);
        let placed = place_assets(&device, &earl_grey_assets(), 8).unwrap();
        assert_eq!(placed.len(), 20);
        let total_routes: usize = placed.iter().map(|p| p.routes.len()).sum();
        assert!(total_routes > 100, "placed {total_routes} routes");
    }

    #[test]
    fn placed_routes_do_not_share_wires() {
        let device = FpgaDevice::aws_f1(4, Hours::ZERO);
        let placed = place_assets(&device, &earl_grey_assets()[..6], 8).unwrap();
        let mut seen = HashSet::new();
        for pa in &placed {
            for route in &pa.routes {
                for w in route.wire_ids() {
                    assert!(seen.insert(w), "wire {w} reused");
                }
            }
        }
    }

    #[test]
    fn sub_segment_targets_are_reported_not_placed() {
        let device = FpgaDevice::aws_f1(5, Hours::ZERO);
        // Asset 18 (kmac_app_rsp) has min 15 ps routes: some targets are
        // below the 90 ps single-segment floor.
        let kmac = earl_grey_assets()
            .into_iter()
            .find(|a| a.path == "/kmac_app_rsp")
            .unwrap();
        let placed = place_assets(&device, &[kmac], 16).unwrap();
        assert!(!placed[0].too_short_ps.is_empty());
        assert!(placed[0].placed_fraction() < 1.0);
        for &t in &placed[0].too_short_ps {
            assert!(t < 90.0);
        }
    }

    #[test]
    fn placed_route_lengths_track_targets() {
        let device = FpgaDevice::aws_f1(6, Hours::ZERO);
        let aes = earl_grey_assets()
            .into_iter()
            .find(|a| a.path == "/aes_tl_req[a_data]")
            .unwrap();
        let placed = place_assets(&device, &[aes], 8).unwrap();
        let pa = &placed[0];
        assert_eq!(pa.routes.len(), 8);
        for (route, &target) in pa.routes.iter().zip(&pa.targets_ps) {
            let err = (route.nominal_ps() - target).abs() / target;
            assert!(err < 0.1, "target {target}: placed {}", route.nominal_ps());
        }
    }
}
