//! Deterministic fixed-width text tables for fleet reports.
//!
//! The fleet engine renders cross-device percentile matrices and
//! scheme × geometry breakdowns; those reports are diffed byte-for-byte
//! across `--jobs` counts and against checked-in goldens, so the renderer
//! must be strictly deterministic: column widths derive only from cell
//! contents, rows render in insertion order, and no locale/terminal state
//! is consulted. The first column is left-aligned (labels), every other
//! column right-aligned (numbers), matching the layout of the repo's
//! experiment tables.

use std::fmt::Write as _;

/// An append-only text table with one left-aligned label column followed
/// by right-aligned value columns.
///
/// # Example
///
/// ```
/// use hps_obs::TextTable;
///
/// let mut t = TextTable::new(&["scheme", "devices", "p99 ms"]);
/// t.row(vec!["HPS".to_string(), "128".to_string(), "3.25".to_string()]);
/// t.row(vec!["4PS".to_string(), "64".to_string(), "11.90".to_string()]);
/// let text = t.render();
/// assert!(text.starts_with("scheme"));
/// assert_eq!(text.lines().count(), 4, "header + rule + two rows");
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: &[&str]) -> Self {
        assert!(!header.is_empty(), "a table needs at least one column");
        TextTable {
            header: header.iter().map(|h| (*h).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Short rows are padded with empty cells; extra
    /// cells beyond the header width are rejected so a malformed report
    /// fails loudly instead of rendering a ragged table.
    ///
    /// # Panics
    ///
    /// Panics if `cells` has more entries than the header.
    pub fn row(&mut self, mut cells: Vec<String>) {
        assert!(
            cells.len() <= self.header.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.header.len()
        );
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows appended so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table: header, a dashed rule, then the rows. Trailing
    /// spaces are trimmed from every line so the output survives
    /// whitespace-normalizing diffs.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        self.render_line(&mut out, &self.header, &widths);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        self.render_line(&mut out, &rule, &widths);
        for row in &self.rows {
            self.render_line(&mut out, row, &widths);
        }
        out
    }

    #[expect(clippy::let_underscore_must_use, reason = "String writes cannot fail")]
    fn render_line(&self, out: &mut String, cells: &[String], widths: &[usize]) {
        let mut line = String::new();
        for (i, (cell, width)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if i == 0 {
                let _ = write!(line, "{cell:<width$}");
            } else {
                let _ = write!(line, "{cell:>width$}");
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_align_and_pad() {
        let mut t = TextTable::new(&["name", "n"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "12345".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "name        n");
        assert_eq!(lines[1], "------  -----");
        assert_eq!(lines[2], "a           1");
        assert_eq!(lines[3], "longer  12345");
    }

    #[test]
    fn short_rows_pad_with_empty_cells() {
        let mut t = TextTable::new(&["k", "v", "extra"]);
        t.row(vec!["x".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let mut t = TextTable::new(&["a", "b"]);
            t.row(vec!["r1".into(), "1".into()]);
            t.row(vec!["r2".into(), "2".into()]);
            t.render()
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn overlong_row_panics() {
        let mut t = TextTable::new(&["only"]);
        t.row(vec!["a".into(), "b".into()]);
    }
}
