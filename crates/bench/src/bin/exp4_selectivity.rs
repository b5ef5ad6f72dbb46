//! `fig:exp4_selectivity` — the cascading strategy's win as a function of
//! how much of the stream the query set covers (§2.5's disjoint-ranges
//! argument), both strategies wired in SQL ([`datacell_bench::strategy`]).
//!
//! Eight disjoint range queries whose combined coverage of the value domain
//! is swept from 10% to 100%. Under cascading, a tuple matched by query i
//! is never seen by queries i+1..N, so higher coverage means more pruning;
//! the shared strategy always scans every tuple N times.
//!
//! Expected shape: cascading's advantage over shared grows with coverage;
//! at low coverage most tuples match nobody, every stage scans them, and
//! only the complement query removes them.
//!
//! Optional first argument: tuple count (CI smoke runs pass a small one).

use std::time::Instant;

use datacell_bench::strategy::{deploy, Wiring};
use datacell_bench::{banner, f, int_stream, TablePrinter};

const BATCH: usize = 10_000;
const N_QUERIES: usize = 8;
const DOMAIN: i64 = 1_000;

fn ranges(coverage_pct: i64) -> Vec<(i64, i64)> {
    // N adjacent ranges, together spanning coverage% of the domain.
    let covered = DOMAIN * coverage_pct / 100;
    let width = (covered / N_QUERIES as i64).max(1);
    (0..N_QUERIES as i64)
        .map(|i| (i * width, (i + 1) * width - 1))
        .collect()
}

/// Seconds to process `total` tuples, and the result tuple count.
fn run(wiring: Wiring, coverage_pct: i64, total: usize) -> (f64, usize) {
    let d = deploy(wiring, &ranges(coverage_pct), 0..=DOMAIN - 1).unwrap();
    let data = int_stream(total, DOMAIN, 13);
    let started = Instant::now();
    for chunk in data.chunks(BATCH) {
        d.ingest(chunk).unwrap();
        d.cell.run_until_quiescent(10_000);
    }
    let elapsed = started.elapsed().as_secs_f64();
    assert!(d.inputs[0].is_empty(), "{wiring:?}: source drained");
    (elapsed, d.total_output())
}

fn main() {
    let total: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400_000);
    banner(
        "fig:exp4_selectivity",
        &format!(
            "{N_QUERIES} disjoint range queries, combined domain coverage swept; \
             shared vs cascading over {total} tuples"
        ),
        "cascading's win over shared grows with coverage (more pruning)",
    );
    let table = TablePrinter::new(&["coverage %", "shared (s)", "cascading (s)", "speedup"]);
    for coverage in [10i64, 25, 50, 75, 100] {
        // Best of three to suppress scheduler noise.
        let best = |wiring| {
            (0..3)
                .map(|_| run(wiring, coverage, total))
                .fold((f64::MAX, 0), |(best, _), (secs, out)| {
                    (best.min(secs), out)
                })
        };
        let (shared, out_shared) = best(Wiring::Shared);
        let (cascading, out_cascading) = best(Wiring::Cascading);
        assert_eq!(out_shared, out_cascading, "strategies must agree");
        table.row(&[
            coverage.to_string(),
            f(shared),
            f(cascading),
            f(shared / cascading),
        ]);
    }
}
