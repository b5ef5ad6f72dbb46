//! `fig:exp2_latency` — end-to-end latency vs input rate.
//!
//! The full Figure-1 chain runs threaded: the caller's thread paces a
//! `StreamWriter` at a target rate into a basket, the scheduler thread
//! fires the factory into the output basket, and a consumer thread drains
//! a `Subscription` on it. The subscription records each tuple's
//! arrival→delivery latency from the carried `ts` column into the query's
//! latency histogram (`MetricsSnapshot::per_query_latency`).
//!
//! Expected shape: latency stays flat (sub-millisecond scheduling delay)
//! until the rate approaches the engine's capacity, then grows sharply as
//! baskets queue — the classic hockey stick.

use std::time::Duration;

use datacell::DataCell;
use datacell_bench::{banner, f, pace, TablePrinter};

fn run(rate: f64, total: u64) -> (f64, u64, u64) {
    let cell = DataCell::builder().build();
    cell.execute("create basket s (v int)").unwrap();
    let q = cell
        .continuous_query(
            "q",
            "select s2.v, s2.ts from [select * from s] as s2 where s2.v < 500",
        )
        .unwrap();
    let sub = q.subscribe::<(i64,)>().unwrap();
    let expected = (0..total).filter(|i| i % 1000 < 500).count();
    let within = Duration::from_secs_f64(total as f64 / rate) + Duration::from_secs(10);
    let consumer = std::thread::spawn(move || {
        sub.collect_n(expected, within).unwrap();
    });
    cell.start();
    pace(&mut cell.writer("s").unwrap(), rate, total, || {});
    consumer.join().unwrap();
    cell.stop();
    let m = cell.metrics();
    let (_, hist) = m
        .per_query_latency
        .into_iter()
        .find(|(name, _)| name == "q")
        .expect("q records latency");
    (hist.mean_micros(), hist.quantile_micros(0.99), hist.count)
}

fn main() {
    // Optional first argument caps the per-rate tuple count (CI smoke runs
    // pass a tiny number so the experiment finishes in seconds).
    let cap: Option<u64> = std::env::args().nth(1).and_then(|a| a.parse().ok());
    banner(
        "fig:exp2_latency",
        "Figure-1 chain, threaded; per-tuple arrival→delivery latency vs input rate",
        "flat sub-ms latency until saturation, then a sharp hockey stick",
    );
    let table = TablePrinter::new(&["rate (t/s)", "mean (us)", "p99 (us)", "delivered"]);
    let rates: &[f64] = if cap.is_some() {
        &[10_000.0, 200_000.0]
    } else {
        &[
            1_000.0,
            10_000.0,
            50_000.0,
            200_000.0,
            1_000_000.0,
            4_000_000.0,
        ]
    };
    for &rate in rates {
        let total = ((rate * 1.5) as u64).clamp(20_000, 2_000_000);
        let total = cap.map_or(total, |c| total.min(c.max(100)));
        let (mean, p99, n) = run(rate, total);
        table.row(&[f(rate), f(mean), p99.to_string(), n.to_string()]);
    }
}
