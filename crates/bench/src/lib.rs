//! Shared helpers for the paper table/figure binaries.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! in `src/bin/`; this library holds the pieces they share: the standard
//! experiment configuration, simple aligned-table printing, and environment
//! overrides so the same binaries can be run at quick-look or full scale.

use focus_core::{AccuracyTarget, ExperimentConfig, SweepSpace, TradeoffPolicy};
use focus_runtime::GpuClusterSpec;

/// Environment variable overriding the per-stream recording length, in
/// seconds.
pub const DURATION_ENV: &str = "FOCUS_DURATION_SECS";
/// Environment variable overriding the parameter-selection sample length, in
/// seconds.
pub const SAMPLE_ENV: &str = "FOCUS_SAMPLE_SECS";

/// Recording length (seconds) analysed per stream by the figure binaries.
///
/// The paper records 12 hours per stream; the default here is a 6-minute
/// slice, which preserves the distributional properties the techniques
/// depend on (§2.2) while keeping the whole harness runnable in minutes.
/// Override with `FOCUS_DURATION_SECS`.
pub fn experiment_duration_secs() -> f64 {
    std::env::var(DURATION_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(360.0)
}

/// Parameter-selection sample length in seconds (override with
/// `FOCUS_SAMPLE_SECS`).
pub fn sample_duration_secs() -> f64 {
    std::env::var(SAMPLE_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(90.0)
}

/// The standard experiment configuration used by the figure binaries.
pub fn standard_config() -> ExperimentConfig {
    ExperimentConfig {
        duration_secs: experiment_duration_secs(),
        sample_secs: sample_duration_secs(),
        target: AccuracyTarget::default(),
        policy: TradeoffPolicy::Balance,
        gpus: GpuClusterSpec::default(),
        sweep: SweepSpace::full(),
        query_classes: 5,
        ..ExperimentConfig::default()
    }
}

/// A plain-text aligned table for terminal output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells are padded with empty strings.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a speed-up / cheaper-by factor the way the paper annotates them
/// (e.g. `58x`).
pub fn fmt_factor(factor: f64) -> String {
    if factor.is_infinite() {
        "inf".to_string()
    } else if factor >= 10.0 {
        format!("{factor:.0}x")
    } else {
        format!("{factor:.1}x")
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn fmt_percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Prints a section banner for a figure/table binary.
pub fn banner(title: &str, paper_reference: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("(reproduces {paper_reference})");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_env_overrides_default() {
        // Not setting the env var yields the default.
        std::env::remove_var(DURATION_ENV);
        assert_eq!(experiment_duration_secs(), 360.0);
        std::env::set_var(DURATION_ENV, "120");
        assert_eq!(experiment_duration_secs(), 120.0);
        std::env::set_var(DURATION_ENV, "not a number");
        assert_eq!(experiment_duration_secs(), 360.0);
        std::env::remove_var(DURATION_ENV);
    }

    #[test]
    fn standard_config_uses_paper_defaults() {
        std::env::remove_var(DURATION_ENV);
        std::env::remove_var(SAMPLE_ENV);
        let cfg = standard_config();
        assert_eq!(cfg.target.precision, 0.95);
        assert_eq!(cfg.policy, TradeoffPolicy::Balance);
        assert_eq!(cfg.gpus.num_gpus, 10);
        assert_eq!(cfg.query_classes, 5);
    }

    #[test]
    fn text_table_alignment() {
        let mut table = TextTable::new(vec!["stream", "factor"]);
        table.row(vec!["auburn_c", "86x"]);
        table.row(vec!["cnn", "64x"]);
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        let rendered = table.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("stream"));
        assert!(lines[2].contains("auburn_c"));
        // All lines are padded to the same width.
        assert_eq!(lines[2].len(), lines[0].len());
        assert_eq!(lines[3].len(), lines[1].len());
    }

    #[test]
    fn row_padding_fills_missing_cells() {
        let mut table = TextTable::new(vec!["a", "b", "c"]);
        table.row(vec!["1"]);
        assert_eq!(table.rows[0].len(), 3);
    }

    #[test]
    fn factor_and_percent_formatting() {
        assert_eq!(fmt_factor(58.4), "58x");
        assert_eq!(fmt_factor(3.24), "3.2x");
        assert_eq!(fmt_factor(f64::INFINITY), "inf");
        assert_eq!(fmt_percent(0.954), "95.4%");
    }
}
