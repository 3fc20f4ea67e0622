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

/// Two closures timed against each other by [`time_pair`]: each side's
/// median time and the spread of the per-repetition ratio
/// `first / second`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTiming {
    /// Median seconds of the first closure.
    pub first_secs: f64,
    /// Median seconds of the second closure.
    pub second_secs: f64,
    /// Median of the per-repetition ratios `first / second`.
    pub ratio_median: f64,
    /// Smallest per-repetition ratio.
    pub ratio_min: f64,
    /// Largest per-repetition ratio.
    pub ratio_max: f64,
}

/// Times `first` against `second` over `reps` repetitions (at least one).
/// Each repetition runs both, and the side that goes first alternates, so
/// a drift in the machine's speed lands on both sides and each ratio
/// compares two runs taken back to back. Returns the last repetition's
/// outputs and the [`PairTiming`].
pub fn time_pair<A, B>(
    reps: usize,
    mut first: impl FnMut() -> A,
    mut second: impl FnMut() -> B,
) -> (A, B, PairTiming) {
    let reps = reps.max(1);
    let mut outputs = None;
    let (mut a_secs, mut b_secs, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let ((a, ta), (b, tb)) = if rep.is_multiple_of(2) {
            let a = time_secs(&mut first);
            (a, time_secs(&mut second))
        } else {
            let b = time_secs(&mut second);
            (time_secs(&mut first), b)
        };
        outputs = Some((a, b));
        a_secs.push(ta);
        b_secs.push(tb);
        ratios.push(ta / tb);
    }
    let (a, b) = outputs.expect("at least one repetition");
    let timing = PairTiming {
        first_secs: median(&mut a_secs),
        second_secs: median(&mut b_secs),
        ratio_median: median(&mut ratios),
        ratio_min: ratios.iter().copied().fold(f64::INFINITY, f64::min),
        ratio_max: ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    };
    (a, b, timing)
}

/// The median of a non-empty sample (the mean of the middle two when its
/// length is even).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
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

    #[test]
    fn time_pair_alternates_which_side_goes_first() {
        let log = std::cell::RefCell::new(Vec::new());
        let side = |name: char, out: u32| {
            let log = &log;
            move || {
                // long enough that no timing reads zero
                std::thread::sleep(std::time::Duration::from_micros(100));
                log.borrow_mut().push(name);
                out
            }
        };
        let (a, b, timing) = time_pair(4, side('a', 1), side('b', 2));
        assert_eq!((a, b), (1, 2));
        assert_eq!(log.take(), ['a', 'b', 'b', 'a', 'a', 'b', 'b', 'a']);
        assert!(timing.ratio_min > 0.0 && timing.ratio_max.is_finite());
        assert!(timing.ratio_min <= timing.ratio_median);
        assert!(timing.ratio_median <= timing.ratio_max);
        // zero repetitions still run each side once
        let (_, _, one) = time_pair(0, side('a', 1), side('b', 2));
        assert_eq!(log.take(), ['a', 'b']);
        assert_eq!(one.ratio_min, one.ratio_max);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
