//! Minimal markdown table rendering for experiment binaries.
//!
//! Every `exp_*` binary prints its results through [`Table`] so that
//! `EXPERIMENTS.md` rows can be regenerated by copy-paste.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row. The row length must match the header.
    ///
    /// # Panics
    /// Panics if the arity differs from the header.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity must match header");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a GitHub-flavoured markdown table with aligned pipes.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(out, " {cell:<w$} |");
            }
            out.push('\n');
        };
        render_row(&self.header, &widths, &mut out);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{:-<1$}|", "", w + 2);
        }
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        let _ = cols;
        out
    }
}

/// Formats a float with a sensible number of digits for tables.
#[must_use]
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_alignment() {
        let mut t = Table::new(["alg", "cost"]);
        t.row(["tc", "123"]);
        t.row(["lru-subtree", "4"]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("alg"));
        assert!(lines[1].starts_with("|--"));
        // All rows render with identical width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn empty_table() {
        let t = Table::new(["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_markdown().lines().count(), 2);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1234.5678), "1234.6");
        assert_eq!(fmt_f64(3.45678), "3.457");
        assert_eq!(fmt_f64(0.00123), "0.00123");
    }
}
