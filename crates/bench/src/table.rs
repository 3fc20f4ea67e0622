//! Result tables: printable, serialisable, diffable.

use std::time::Instant;

/// One experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (`e1` …).
    pub experiment: String,
    /// Human title (what claim this reproduces).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows (pre-formatted cells).
    pub rows: Vec<Vec<String>>,
    /// Expected shape per the paper, printed under the table and kept in
    /// its JSON.
    pub expected: String,
}

impl Table {
    /// Starts a table.
    #[must_use]
    pub fn new(experiment: &str, title: &str, columns: &[&str], expected: &str) -> Table {
        Table {
            experiment: experiment.to_owned(),
            title: title.to_owned(),
            columns: columns.iter().map(|&c| c.to_owned()).collect(),
            rows: Vec::new(),
            expected: expected.to_owned(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
    }

    /// Renders as aligned plain text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## [{}] {}\n", self.experiment, self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.columns));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&format!("expected: {}\n", self.expected));
        out
    }

    /// Renders as pretty-printed JSON (hand-rolled: the build environment
    /// is offline, so no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn str_array(items: &[String]) -> String {
            let inner: Vec<String> = items.iter().map(|s| esc(s)).collect();
            format!("[{}]", inner.join(", "))
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|c| esc(c)).collect();
                format!("    [{}]", cells.join(", "))
            })
            .collect();
        format!(
            "{{\n  \"experiment\": {},\n  \"title\": {},\n  \"columns\": {},\n  \"rows\": [\n{}\n  ],\n  \"expected\": {}\n}}\n",
            esc(&self.experiment),
            esc(&self.title),
            str_array(&self.columns),
            rows.join(",\n"),
            esc(&self.expected)
        )
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn time_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Formats seconds as milliseconds with 2 decimals.
#[must_use]
pub fn ms(secs: f64) -> String {
    format!("{:.2}", secs * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns() {
        let mut t = Table::new("e0", "demo", &["N", "value"], "grows");
        t.row(vec!["1".into(), "10".into()]);
        t.row(vec!["100".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("## [e0] demo"));
        assert!(s.contains("expected: grows"));
        assert_eq!(s.lines().count(), 6);
    }

    #[test]
    fn timing_positive() {
        let (v, t) = time_secs(|| (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(t >= 0.0);
        assert_eq!(ms(0.0015), "1.50");
    }
}
