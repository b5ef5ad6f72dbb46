//! # datacell-bench — the evaluation harness
//!
//! The `ledger` binary runs the gated benchmark (`dcbench`, declared by
//! `BENCHMARK.json`) in alternating pairs of two revisions and writes the
//! committed `BENCH_<n>.json` record:
//!
//! ```text
//! cargo run -p datacell-bench --release --bin ledger -- <parent-rev> <change-rev> BENCH_<n>.json
//! ```
//!
//! The other binaries draw the paper's curves that `dcbench` does not:
//! bulk against tuple-at-a-time (`exp1_batch`), latency under paced load
//! (`exp2_latency`), the §2.5 strategies (`exp3_strategies`), the kernels
//! (`exp13_kernels`), the metrics scrape cost (`exp16_observability`) and
//! Linear Road (`linearroad_bench`). Criterion micro-benchmarks live in
//! `benches/`.
//!
//! Shared here: deterministic workload generators, a rate-paced writer
//! ([`pace`]) and the fixed-width table printer every binary uses, so
//! outputs are uniform and diffable, and the §2.5 strategies as SQL
//! wirings ([`strategy`]).

pub mod strategy;

use std::time::{Duration, Instant};

use datacell::StreamWriter;
use datacell_bat::types::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Most rows [`pace`] appends per step.
const PACE_STEP: u64 = 4096;

/// Append `total` rows `(i % 1000,)` through `writer` from the calling
/// thread, none before its due time at `rate` rows/s, flushing after each
/// step of at most 4096 rows. `idle` runs whenever no row is due yet,
/// before the thread sleeps until the next one is.
pub fn pace(writer: &mut StreamWriter, rate: f64, total: u64, mut idle: impl FnMut()) {
    let started = Instant::now();
    let mut produced = 0;
    while produced < total {
        let due = ((started.elapsed().as_secs_f64() * rate) as u64).min(total);
        if due == produced {
            idle();
            let next = Duration::from_secs_f64((produced + 1) as f64 / rate);
            std::thread::sleep(next.saturating_sub(started.elapsed()));
            continue;
        }
        let upto = due.min(produced + PACE_STEP);
        for i in produced..upto {
            writer
                .append(((i % 1000) as i64,))
                .expect("an int row fits a one-int basket");
        }
        writer
            .flush()
            .expect("a Block writer waits instead of failing");
        produced = upto;
    }
}

/// Deterministic stream of `(v,)` integer tuples uniform in `[0, domain)`.
pub fn int_stream(n: usize, domain: i64, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| vec![Value::Int(rng.gen_range(0..domain))])
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
