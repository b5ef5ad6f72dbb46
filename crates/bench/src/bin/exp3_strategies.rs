//! `fig:exp3_strategies` — scaling the number of standing queries under the
//! three basket strategies (§2.5), each wired in SQL
//! ([`datacell_bench::strategy`]).
//!
//! N range-selection queries with adjacent disjoint ranges run over the
//! same stream; we sweep N and report total processing time per strategy.
//! Where N does not divide the domain, the cascade's complement query takes
//! the uncovered tail.
//!
//! Expected shape: separate degrades fastest (the N-fold ingest copy);
//! shared ingests once, but each range is a shared head plus a tail, so it
//! pays two firings and an intermediate per query; cascading wins as N
//! grows because earlier queries prune the basket for later ones.
//!
//! Optional first argument: tuple count (CI smoke runs pass a small one).

use std::time::Instant;

use datacell_bench::strategy::{deploy, Wiring};
use datacell_bench::{banner, f, int_stream, TablePrinter};

const BATCH: usize = 1_000;
const DOMAIN: i64 = 1_000;

fn ranges(n: usize) -> Vec<(i64, i64)> {
    let width = DOMAIN / n as i64;
    (0..n as i64)
        .map(|i| (i * width, (i + 1) * width - 1))
        .collect()
}

/// Seconds to process `total` tuples, and every query's sorted answer.
fn run(wiring: Wiring, n: usize, total: usize) -> (f64, Vec<Vec<i64>>) {
    let d = deploy(wiring, &ranges(n), 0..=DOMAIN - 1).unwrap();
    let data = int_stream(total, DOMAIN, 11);
    let started = Instant::now();
    for chunk in data.chunks(BATCH) {
        d.ingest(chunk).unwrap();
        d.cell.run_until_quiescent(10_000);
    }
    let elapsed = started.elapsed().as_secs_f64();
    assert!(
        d.inputs.iter().all(|b| b.is_empty()),
        "{wiring:?}: source drained"
    );
    let answers = d
        .queries
        .iter()
        .map(|q| {
            let mut v = d.output(q);
            v.sort_unstable();
            v
        })
        .collect();
    (elapsed, answers)
}

fn main() {
    let total: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    banner(
        "fig:exp3_strategies",
        &format!(
            "N disjoint range queries over one {total}-tuple stream (batch {BATCH}); \
             total processing time per strategy"
        ),
        "separate grows fastest with N (copy cost); cascading cheapest at high N \
         (disjoint pruning)",
    );
    let table = TablePrinter::new(&["queries", "separate (s)", "shared (s)", "cascading (s)"]);
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let (sep, out_sep) = run(Wiring::Separate, n, total);
        let (sha, out_sha) = run(Wiring::Shared, n, total);
        let (cas, out_cas) = run(Wiring::Cascading, n, total);
        assert_eq!(out_sep, out_sha, "strategies must agree");
        assert_eq!(out_sha, out_cas, "strategies must agree");
        table.row(&[n.to_string(), f(sep), f(sha), f(cas)]);
    }
}
