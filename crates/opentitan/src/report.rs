//! Table 1 regeneration and the vulnerability report.

use crate::distribution::PopulationStats;
use crate::{Asset, QuantileFit};

/// One regenerated row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// The asset this row describes.
    pub asset: Asset,
    /// Statistics of the regenerated route-length population.
    pub computed: PopulationStats,
}

impl Table1Row {
    /// Regenerates the row by sampling the asset's fitted distribution at
    /// its full bus width.
    #[must_use]
    pub fn regenerate(asset: &Asset) -> Self {
        let fit = QuantileFit::from_stats(&asset.paper_stats);
        let population = fit.stratified_samples(usize::from(asset.bus_width));
        Self {
            asset: asset.clone(),
            computed: PopulationStats::of(&population),
        }
    }
}

/// Renders the regenerated Table 1 in the paper's column layout.
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "#  | Asset Paths                                      | Type | Width | MEAN   | SD    | MIN  | 25%    | 50%    | 75%    | MAX\n",
    );
    out.push_str(&"-".repeat(130));
    out.push('\n');
    for row in rows {
        let a = &row.asset;
        let c = &row.computed;
        out.push_str(&format!(
            "{:<2} | {:<48} | {:<4} | {:>5} | {:>6.1} | {:>5.1} | {:>4.0} | {:>6.1} | {:>6.1} | {:>6.1} | {:>4.0}\n",
            a.index, a.path, a.class, a.bus_width, c.mean, c.sd, c.min, c.q25, c.q50, c.q75, c.max,
        ));
    }
    out
}

/// One asset's exposure to a pentimento attack.
#[derive(Debug, Clone, PartialEq)]
pub struct VulnerabilityEntry {
    /// The asset.
    pub asset: Asset,
    /// Expected |Δps| of the asset's *longest* route after the reference
    /// burn-in, in picoseconds.
    pub max_route_delta_ps: f64,
    /// Fraction of the asset's bits whose expected |Δps| exceeds the
    /// detection threshold.
    pub recoverable_fraction: f64,
}

/// Builds the Section 8 style verification report: which assets have bits
/// long enough to leave recoverable pentimenti.
///
/// `delta_per_ps` is the expected |Δps| per picosecond of route length for
/// the scenario under analysis (e.g. ≈ 1.05 × 10⁻³ for 200 h of burn-in on
/// a new device at 60 °C — derive it from `bti_physics`).
/// `detect_threshold_ps` is the smallest |Δps| the attacker's sensor can
/// classify reliably.
#[must_use]
pub fn vulnerability_report(
    assets: &[Asset],
    delta_per_ps: f64,
    detect_threshold_ps: f64,
) -> Vec<VulnerabilityEntry> {
    assets
        .iter()
        .map(|asset| {
            let fit = QuantileFit::from_stats(&asset.paper_stats);
            let population = fit.stratified_samples(usize::from(asset.bus_width));
            let recoverable = population
                .iter()
                .filter(|&&len| len * delta_per_ps >= detect_threshold_ps)
                .count();
            VulnerabilityEntry {
                asset: asset.clone(),
                max_route_delta_ps: asset.paper_stats.max_ps * delta_per_ps,
                recoverable_fraction: recoverable as f64 / population.len() as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::earl_grey_assets;

    #[test]
    fn regenerated_table_has_twenty_rows() {
        let rows: Vec<Table1Row> = earl_grey_assets()
            .iter()
            .map(Table1Row::regenerate)
            .collect();
        assert_eq!(rows.len(), 20);
        let rendered = render_table1(&rows);
        assert!(rendered.contains("/kmac_app_rsp"));
        assert_eq!(rendered.lines().count(), 22);
    }

    #[test]
    fn longer_assets_are_more_vulnerable() {
        let assets = earl_grey_assets();
        // 200 h new-device coefficient ~1e-3, threshold 0.5 ps.
        let report = vulnerability_report(&assets, 1.0e-3, 0.5);
        // Assets are sorted by max route length, so max_route_delta must be
        // non-decreasing.
        for w in report.windows(2) {
            assert!(w[0].max_route_delta_ps <= w[1].max_route_delta_ps);
        }
        // The long TL-UL buses are heavily exposed; the short lc state
        // words barely at all.
        let aes_req = report
            .iter()
            .find(|e| e.asset.path == "/aes_tl_req[a_data]")
            .unwrap();
        let lc_state = report
            .iter()
            .find(|e| e.asset.path == "/otp_ctrl_otp_lc_data[state]")
            .unwrap();
        assert!(aes_req.recoverable_fraction > 0.9);
        assert!(lc_state.recoverable_fraction < 0.2);
    }

    #[test]
    fn zero_threshold_marks_everything_recoverable() {
        let assets = earl_grey_assets();
        let report = vulnerability_report(&assets[..3], 1e-3, 0.0);
        for e in report {
            assert_eq!(e.recoverable_fraction, 1.0);
        }
    }
}
