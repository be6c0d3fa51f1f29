//! Aligned markdown tables and CSV output for the experiment reports.

/// A simple column-oriented table: a header plus rows of strings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    pub title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; it is padded or truncated to the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        let mut row = row;
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Convenience: append a row of displayable values.
    pub fn push<I, T>(&mut self, row: I)
    where
        I: IntoIterator<Item = T>,
        T: ToString,
    {
        self.push_row(row.into_iter().map(|v| v.to_string()).collect());
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Render as an aligned markdown table preceded by its title.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        let render_row = |cells: &[String]| {
            let mut line = String::from("|");
            for (i, cell) in cells.iter().enumerate() {
                line.push_str(&format!(" {:<width$} |", cell, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&render_row(&self.header));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&render_row(row));
        }
        out
    }

    /// Render as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_padded_to_header_width() {
        let mut t = Table::new("T", &["a", "b", "c"]);
        t.push_row(vec!["1".into()]);
        assert_eq!(t.row_count(), 1);
        let md = t.to_markdown();
        assert!(md.contains("### T"));
        assert_eq!(md.matches('|').count() % 2, 0, "balanced pipes");
    }

    #[test]
    fn markdown_is_aligned() {
        let mut t = Table::new("Convergence", &["n", "rounds"]);
        t.push(["10", "3.5"]);
        t.push(["100", "12.25"]);
        let md = t.to_markdown();
        assert!(md.contains("| n   |"));
        assert!(md.contains("| 100 |"));
    }

    #[test]
    fn csv_round_trip_structure() {
        let mut t = Table::new("x", &["col1", "col2"]);
        t.push([1, 2]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert_eq!(csv.lines().next().unwrap(), "col1,col2");
        assert_eq!(csv.lines().nth(1).unwrap(), "1,2");
    }

    #[test]
    fn mixed_types_via_push() {
        let mut t = Table::new("x", &["name", "value", "flag"]);
        t.push(vec!["a".to_string(), 3.25.to_string(), true.to_string()]);
        assert!(t.to_csv().contains("a,3.25,true"));
    }
}
