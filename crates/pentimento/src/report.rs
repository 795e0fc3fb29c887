//! Reporting: CSV export and terminal plots for the figure harness.

use std::fmt::Write as _;

use bti_physics::LogicLevel;

use crate::RouteSeries;

/// Serializes series in long CSV form:
/// `hour,route,target_ps,burn_value,delta_ps`.
#[must_use]
pub fn series_to_csv(series: &[RouteSeries]) -> String {
    let mut out = String::from("hour,route,target_ps,burn_value,delta_ps\n");
    for s in series {
        for (h, d) in s.hours.iter().zip(&s.delta_ps) {
            let _ = writeln!(
                out,
                "{h},{},{},{},{d}",
                s.route_index, s.target_ps, s.burn_value
            );
        }
    }
    out
}

/// Configuration of the terminal scatter chart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsciiChartConfig {
    /// Character columns.
    pub width: usize,
    /// Character rows.
    pub height: usize,
}

impl Default for AsciiChartConfig {
    fn default() -> Self {
        Self {
            width: 78,
            height: 20,
        }
    }
}

/// Renders the paper's figure style as a terminal scatter chart: burn-1
/// routes plot as `+` (magenta in the paper), burn-0 routes as `o`
/// (cyan), overlapping classes as `#`. A `-` row marks Δps = 0.
#[must_use]
pub fn ascii_chart(series: &[RouteSeries], config: &AsciiChartConfig) -> String {
    let (w, h) = (config.width.max(10), config.height.max(5));
    let mut min_y: f64 = 0.0;
    let mut max_y: f64 = 0.0;
    let mut max_x: f64 = 1.0;
    for s in series {
        for (&hour, &d) in s.hours.iter().zip(&s.delta_ps) {
            min_y = min_y.min(d);
            max_y = max_y.max(d);
            max_x = max_x.max(hour);
        }
    }
    if (max_y - min_y).abs() < 1e-12 {
        max_y = min_y + 1.0;
    }
    let mut grid = vec![vec![' '; w]; h];
    // Zero line.
    let zero_row = ((max_y) / (max_y - min_y) * (h - 1) as f64).round() as usize;
    if zero_row < h {
        for c in grid[zero_row].iter_mut() {
            *c = '-';
        }
    }
    for s in series {
        let mark = match s.burn_value {
            LogicLevel::One => '+',
            LogicLevel::Zero => 'o',
        };
        for (&hour, &d) in s.hours.iter().zip(&s.delta_ps) {
            let col = ((hour / max_x) * (w - 1) as f64).round() as usize;
            let row = ((max_y - d) / (max_y - min_y) * (h - 1) as f64).round() as usize;
            if row < h && col < w {
                let cell = &mut grid[row][col];
                *cell = match (*cell, mark) {
                    (' ' | '-', m) => m,
                    (existing, m) if existing == m => m,
                    _ => '#',
                };
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Δps [{min_y:+.2} .. {max_y:+.2}] ps  (+ = burn 1, o = burn 0)"
    );
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    let _ = writeln!(out, "+{}", "-".repeat(w));
    let _ = writeln!(out, " 0 h {:>width$.0} h", max_x, width = w - 7);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(burn: LogicLevel, deltas: &[f64]) -> RouteSeries {
        RouteSeries::from_raw(
            0,
            1000.0,
            burn,
            (0..deltas.len()).map(|h| h as f64).collect(),
            deltas.to_vec(),
        )
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = vec![series(LogicLevel::One, &[0.0, 1.0])];
        let csv = series_to_csv(&s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "hour,route,target_ps,burn_value,delta_ps");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0,0,1000,1,"));
    }

    #[test]
    fn chart_separates_marks() {
        let s = vec![
            series(LogicLevel::One, &[0.0, 2.0, 4.0, 6.0]),
            series(LogicLevel::Zero, &[0.0, -2.0, -4.0, -6.0]),
        ];
        let chart = ascii_chart(&s, &AsciiChartConfig::default());
        assert!(chart.contains('+'));
        assert!(chart.contains('o'));
        assert!(chart.contains("burn 1"));
    }

    #[test]
    fn chart_handles_flat_series() {
        let s = vec![series(LogicLevel::Zero, &[0.0, 0.0])];
        let chart = ascii_chart(
            &s,
            &AsciiChartConfig {
                width: 20,
                height: 8,
            },
        );
        assert!(!chart.is_empty());
    }

    #[test]
    fn empty_series_list_is_fine() {
        let chart = ascii_chart(&[], &AsciiChartConfig::default());
        assert!(chart.contains("Δps"));
    }
}
