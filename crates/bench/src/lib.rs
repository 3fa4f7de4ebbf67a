//! Shared plumbing for the Pilgrim experiment harnesses.
//!
//! Each `benches/eN_*.rs` target reproduces one quantitative claim or
//! figure from the paper (the mapping lives in `DESIGN.md` and the results
//! in `EXPERIMENTS.md`). The targets are plain `main` functions
//! (`harness = false`), so `cargo bench` prints every paper-style table.

#![warn(missing_docs)]

use std::fmt::Display;

/// A printable experiment table.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    claim: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and the paper claim it checks.
    pub fn new(title: impl Into<String>, claim: impl Into<String>) -> Table {
        Table {
            title: title.into(),
            claim: claim.into(),
            ..Default::default()
        }
    }

    /// Sets the column headers.
    pub fn headers<S: Into<String>>(mut self, hs: impl IntoIterator<Item = S>) -> Table {
        self.headers = hs.into_iter().map(Into::into).collect();
        self
    }

    /// Adds one row.
    pub fn row<S: Display>(&mut self, cells: impl IntoIterator<Item = S>) {
        self.rows
            .push(cells.into_iter().map(|c| c.to_string()).collect());
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("\n=== {} ===", self.title);
        if !self.claim.is_empty() {
            println!("paper: {}", self.claim);
        }
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(0);
                }
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(
                    "{:<w$}  ",
                    c,
                    w = widths.get(i).copied().unwrap_or(8)
                ));
            }
            println!("  {}", s.trim_end());
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        println!("  {}", "-".repeat(total.min(110)));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats microseconds as a human-readable duration.
pub fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.3}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// A verdict column value.
pub fn verdict(ok: bool) -> &'static str {
    if ok {
        "OK"
    } else {
        "MISMATCH"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panicking() {
        let mut t = Table::new("t", "c").headers(["a", "bb"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        t.print();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_us(10), "10us");
        assert_eq!(fmt_us(1500), "1.500ms");
        assert_eq!(fmt_us(2_500_000), "2.500s");
        assert_eq!(verdict(true), "OK");
        assert_eq!(verdict(false), "MISMATCH");
    }
}
