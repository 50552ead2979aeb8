#![forbid(unsafe_code)]
//! # bench — experiment harness utilities
//!
//! Table/series formatting and CSV emission for the `repro` binary, which
//! regenerates every table and figure of the paper ([`experiments`]) on a
//! deterministic parallel sweep ([`sweep`]) and checks the headline values
//! against the recorded tolerances ([`gate`]). Nothing a [`Report`] renders
//! depends on the host; what the harness and each layer under it cost in
//! host time is measured by the standalone `perf/` package.

pub mod experiments;
pub mod gate;
pub mod measure;
pub mod sweep;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A labelled table: rows of (label, columns).
pub struct Report {
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<(String, Vec<String>)>,
    pub notes: Vec<String>,
    /// Machine-readable headline values, checked by [`gate`] against the
    /// tolerances recorded in EXPERIMENTS.md.
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Report {
        Report {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len());
        self.rows.push((label.into(), cells));
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Record a headline value for tolerance gating (see [`gate`]).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let mut label_w = 0usize;
        for (label, cells) in &self.rows {
            label_w = label_w.max(label.len());
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = write!(out, "{:label_w$}", "");
        for (i, c) in self.columns.iter().enumerate() {
            let _ = write!(out, "  {:>w$}", c, w = widths[i]);
        }
        let _ = writeln!(out);
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "  {:>w$}", c, w = widths[i]);
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        for (m, v) in &self.metrics {
            let _ = writeln!(out, "  metric: {m} = {v:.4}");
        }
        out
    }

    /// The table as CSV text (commas in cells become semicolons).
    pub fn csv_string(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "label");
        for c in &self.columns {
            let _ = write!(s, ",{}", c.replace(',', ";"));
        }
        let _ = writeln!(s);
        for (label, cells) in &self.rows {
            let _ = write!(s, "{}", label.replace(',', ";"));
            for c in cells {
                let _ = write!(s, ",{}", c.replace(',', ";"));
            }
            let _ = writeln!(s);
        }
        s
    }

    /// Write the table as CSV under `dir`.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(format!("{name}.csv")))?;
        f.write_all(self.csv_string().as_bytes())
    }
}

/// Format a fraction as a percentage with sign.
pub fn pct(x: f64) -> String {
    format!("{x:+.2}%")
}

/// Format seconds.
pub fn secs(s: f64) -> String {
    format!("{s:.3}s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut r = Report::new("T", &["a", "long-col"]);
        r.row("row-one", vec!["1".into(), "2".into()]);
        r.row("r2", vec!["333".into(), "4".into()]);
        r.note("hello");
        let s = r.render();
        assert!(s.contains("== T =="));
        assert!(s.contains("row-one"));
        assert!(s.contains("note: hello"));
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('r')).collect();
        assert_eq!(lines[0].len(), lines[1].len());
    }

    #[test]
    fn csv_written() {
        let dir = std::env::temp_dir().join("bcs_bench_test");
        let mut r = Report::new("T", &["x"]);
        r.row("a,b", vec!["1,2".into()]);
        r.write_csv(&dir, "t").unwrap();
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert!(content.contains("a;b,1;2"));
    }
}
