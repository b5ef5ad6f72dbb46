//! # datacell-bench — the evaluation harness
//!
//! One binary per experiment in DESIGN.md §6; each regenerates the rows/
//! series of its table or figure on stdout. Criterion micro-benchmarks for
//! the underlying primitives live in `benches/`.
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run -p datacell-bench --release --bin exp1_batch
//! ```
//!
//! Shared here: deterministic workload generators and the fixed-width table
//! printer every binary uses, so outputs are uniform and diffable, and the
//! §2.5 strategies as SQL wirings ([`strategy`]).

pub mod strategy;

use datacell_bat::types::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic stream of `(v,)` integer tuples uniform in `[0, domain)`.
pub fn int_stream(n: usize, domain: i64, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| vec![Value::Int(rng.gen_range(0..domain))])
        .collect()
}

/// Deterministic stream of `(k, v)` pairs: key uniform in `[0, keys)`,
/// value uniform in `[0, domain)`.
pub fn kv_stream(n: usize, keys: i64, domain: i64, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            vec![
                Value::Int(rng.gen_range(0..keys)),
                Value::Int(rng.gen_range(0..domain)),
            ]
        })
        .collect()
}

/// Fixed-width table printer.
pub struct TablePrinter {
    headers: Vec<String>,
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Print the header and remember column widths.
    pub fn new(headers: &[&str]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(12)).collect();
        let printer = TablePrinter {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            widths,
        };
        printer.print_header();
        printer
    }

    fn print_header(&self) {
        let cells: Vec<String> = self
            .headers
            .iter()
            .zip(&self.widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("{}", cells.join("  "));
        println!("{}", "-".repeat(cells.join("  ").len()));
    }

    /// Print one row.
    pub fn row(&self, cells: &[String]) {
        let line: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Format a float tersely.
pub fn f(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Print the standard experiment banner.
pub fn banner(id: &str, what: &str, shape: &str) {
    println!("== {id} ==");
    println!("{what}");
    println!("expected shape: {shape}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        assert_eq!(int_stream(10, 100, 1), int_stream(10, 100, 1));
        assert_ne!(int_stream(10, 100, 1), int_stream(10, 100, 2));
        assert_eq!(kv_stream(5, 3, 10, 1).len(), 5);
    }

    #[test]
    fn values_in_domain() {
        for row in int_stream(100, 7, 3) {
            let v = row[0].as_int().unwrap();
            assert!((0..7).contains(&v));
        }
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(12345.6), "12346");
        assert_eq!(f(42.42), "42.4");
        assert_eq!(f(0.1234), "0.123");
    }
}
