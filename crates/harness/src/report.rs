//! Plain-text table / CSV emitters for the experiment subcommands.
//!
//! CSV rendering delegates to `telemetry`'s schema-checked
//! [`CsvWriter`], so every CSV the workspace emits shares one escaping
//! implementation.

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i].saturating_sub(c.len());
                // Right-align numeric-looking cells, left-align labels.
                let numeric = c
                    .chars()
                    .next()
                    .is_some_and(|ch| ch.is_ascii_digit() || ch == '-' || ch == 'X');
                if numeric && i > 0 {
                    for _ in 0..pad {
                        out.push(' ');
                    }
                    out.push_str(c);
                } else {
                    out.push_str(c);
                    if i + 1 < cols {
                        for _ in 0..pad {
                            out.push(' ');
                        }
                    }
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        for _ in 0..total {
            out.push('-');
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Render as CSV (escaped and schema-checked by the shared
    /// `telemetry` writer).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut w = telemetry::CsvWriter::new(&self.header);
        for row in &self.rows {
            w.row(row);
        }
        w.finish()
    }
}

/// Format an optional speedup: "1.56" or "X" (crashed / not completed).
#[must_use]
pub fn fmt_speedup(s: Option<f64>) -> String {
    match s {
        Some(v) => format!("{v:.2}"),
        None => "X".to_string(),
    }
}

/// Shared ring-drop warning section: the telemetry loss banner followed
/// by a newline, or the empty string for a lossless trace. Every report
/// renderer (timeline, chaos, profile, audit) goes through this one
/// helper so a truncated artifact is flagged identically everywhere.
#[must_use]
pub fn loss_section(t: &telemetry::RunTelemetry) -> String {
    telemetry::export::loss_banner(t).map_or_else(String::new, |b| format!("{b}\n"))
}

/// Write `content` under `results/<name>` (best-effort; the text is
/// always also printed by the subcommands). Written via tmp-file + atomic
/// rename so a killed process leaves either the previous artifact or
/// the new one — never a torn half-file a CI diff would misread.
pub fn save(name: &str, content: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    telemetry::export::write_atomic(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["app", "speedup"]);
        t.row(vec!["SRD".into(), "1.50".into()]);
        t.row(vec!["HSD".into(), "10.97".into()]);
        let s = t.render();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].ends_with("10.97"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",plain"));
        telemetry::csv::validate(&csv).expect("round-trips through the shared parser");
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(Some(1.564)), "1.56");
        assert_eq!(fmt_speedup(None), "X");
    }

    #[test]
    fn loss_section_empty_for_lossless_and_flags_drops() {
        let clean = telemetry::RunTelemetry::default();
        assert_eq!(loss_section(&clean), "");
        let lossy = telemetry::RunTelemetry {
            dropped_events: 3,
            ..telemetry::RunTelemetry::default()
        };
        let s = loss_section(&lossy);
        assert!(s.starts_with("WARNING"));
        assert!(s.ends_with('\n'));
    }
}
