//! The Ohm-GPU evaluation harness.
//!
//! [`outputs`] holds one entry per file under `results/`: the cells it
//! reads and the renderer that turns their reports into the file. The
//! `reproduce` binary runs every selected output's cells in one pass
//! (DESIGN.md's experiment index maps figures to outputs); this library
//! also holds the formatting helpers the renderers share.

#![warn(missing_docs)]

pub mod outputs;

use std::fmt::{self, Write};

use ohm_core::config::SystemConfig;
use ohm_workloads::{all_workloads, WorkloadSpec};

/// The evaluation workload set: the ten Table II applications at the
/// evaluation footprint.
pub fn evaluation_workloads() -> Vec<WorkloadSpec> {
    all_workloads()
        .into_iter()
        .map(|w| w.with_footprint(SystemConfig::EVALUATION_FOOTPRINT))
        .collect()
}

/// Writes a table header row followed by an underline.
pub fn header(out: &mut String, cols: &[&str], widths: &[usize]) -> fmt::Result {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        write!(line, "{c:>w$}  ")?;
    }
    writeln!(out, "{line}")?;
    writeln!(out, "{}", "-".repeat(line.len().min(132)))
}

/// Writes one row of right-aligned cells.
pub fn row(out: &mut String, cells: &[String], widths: &[usize]) -> fmt::Result {
    for (c, w) in cells.iter().zip(widths) {
        write!(out, "{c:>w$}  ")?;
    }
    writeln!(out)
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats in scientific notation.
pub fn sci(x: f64) -> String {
    format!("{x:.2e}")
}

/// Renders a unicode bar of `value` scaled so `max` fills `width` cells —
/// a terminal stand-in for the paper's bar charts.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let cells = (value / max * width as f64).round() as usize;
    "█".repeat(cells.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(sci(7.2e-16), "7.20e-16");
    }

    #[test]
    fn tables_pad_and_underline() {
        let mut out = String::new();
        header(&mut out, &["app", "ipc"], &[5, 4]).unwrap();
        row(&mut out, &["lud".to_string(), f2(1.5)], &[5, 4]).unwrap();
        assert_eq!(out, "  app   ipc  \n-------------\n  lud  1.50  \n");
    }

    #[test]
    fn bars_scale_and_clamp() {
        assert_eq!(bar(1.0, 2.0, 10).chars().count(), 5);
        assert_eq!(bar(4.0, 2.0, 10).chars().count(), 10);
        assert_eq!(bar(0.0, 2.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn workload_set_is_complete() {
        let w = evaluation_workloads();
        assert_eq!(w.len(), 10);
        assert!(w
            .iter()
            .all(|s| s.footprint_bytes == SystemConfig::EVALUATION_FOOTPRINT));
    }
}
