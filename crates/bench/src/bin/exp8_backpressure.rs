//! `fig:exp8_backpressure` — ingest throughput vs basket capacity under
//! each overflow policy.
//!
//! The full typed pipeline runs threaded (writer → bounded basket →
//! scheduler-driven factory → bounded output basket → broadcast
//! subscription), with the engine-level capacity set per run. `Block`
//! trades throughput for losslessness (the writer stalls at the bound),
//! `Reject` pushes the retry loop to the client, and `ShedOldest` keeps
//! ingest fast by dropping the oldest resident tuples.
//!
//! Expected shape: `Block`/`Reject` throughput grows with capacity (less
//! producer/consumer ping-pong) and sheds stay zero; `ShedOldest` ingest
//! throughput is near-flat in capacity while the shed count falls as the
//! basket widens.
//!
//! `Block` and `Reject` must deliver every tuple: each such run waits up
//! to 10 s for `delivered == total`, and the binary exits non-zero if one
//! falls short.
//!
//! Emits one machine-readable summary line at the end
//! (`BENCH_backpressure.json: {...}`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::{DataCell, DataCellError, OverflowPolicy};
use datacell_bench::{banner, f, TablePrinter};

struct Outcome {
    ingest_tps: f64,
    delivered: u64,
    shed: u64,
    overflow_events: u64,
}

fn run(total: u64, capacity: usize, policy: OverflowPolicy) -> Outcome {
    let cell = DataCell::builder()
        .basket_capacity(capacity)
        .overflow_policy(policy)
        .writer_batch_size(1024)
        .auto_start(true)
        .build();
    cell.execute("create basket s (v int)").unwrap();
    let q = cell
        .continuous_query("q", "select s2.v from [select * from s] as s2")
        .unwrap();
    let sub = q.subscribe::<(i64,)>().unwrap();
    let delivered = Arc::new(AtomicU64::new(0));
    let drain_count = Arc::clone(&delivered);
    let drainer = std::thread::spawn(move || {
        while let Ok(Some(_)) = sub.next_timeout(Duration::from_millis(200)) {
            drain_count.fetch_add(1, Ordering::Relaxed);
        }
    });

    let mut w = cell.writer("s").unwrap();
    let started = Instant::now();
    for i in 0..total {
        // A Backpressure error from append means the row *was* buffered
        // but the auto-flush hit a full Reject basket — keep appending;
        // later flushes retry the backlog.
        match w.append((i as i64,)) {
            Ok(()) | Err(DataCellError::Backpressure { .. }) => {}
            Err(e) => panic!("append: {e}"),
        }
    }
    // Drain the writer buffer; under Reject the client owns the retry loop.
    loop {
        match w.flush() {
            Ok(_) => break,
            Err(DataCellError::Backpressure { .. }) => {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) => panic!("flush: {e}"),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Let the pipeline settle: a lossless policy until every tuple is
    // delivered, a shedding one until the delivered count is stable.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = delivered.load(Ordering::Relaxed);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = delivered.load(Ordering::Relaxed);
        let settled = if lossless(policy) {
            now == total
        } else {
            now == last && now > 0
        };
        if settled || Instant::now() > deadline {
            break;
        }
        last = now;
    }
    let metrics = cell.metrics();
    cell.stop();
    let _ = drainer.join();
    Outcome {
        ingest_tps: total as f64 / elapsed,
        delivered: delivered.load(Ordering::Relaxed),
        shed: metrics.tuples_shed,
        overflow_events: metrics.overflow_events,
    }
}

/// Policies that must deliver every tuple.
fn lossless(policy: OverflowPolicy) -> bool {
    matches!(policy, OverflowPolicy::Block | OverflowPolicy::Reject)
}

fn main() {
    let total: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200_000);
    banner(
        "fig:exp8_backpressure",
        "ingest throughput vs basket capacity per overflow policy (writer → bounded \
         baskets → factory → subscription)",
        "Block/Reject throughput grows with capacity at zero loss; ShedOldest stays \
         fast but sheds more as capacity shrinks",
    );
    let table = TablePrinter::new(&[
        "policy",
        "capacity",
        "ingest (t/s)",
        "delivered",
        "shed",
        "overflow",
    ]);
    let mut json_rows = Vec::new();
    let mut lost = Vec::new();
    for policy in [
        OverflowPolicy::Block,
        OverflowPolicy::Reject,
        OverflowPolicy::ShedOldest,
    ] {
        for capacity in [256usize, 4_096, 65_536] {
            let o = run(total, capacity, policy);
            if lossless(policy) && o.delivered != total {
                lost.push(format!(
                    "{policy:?} at capacity {capacity}: {}",
                    o.delivered
                ));
            }
            let name = match policy {
                OverflowPolicy::Block => "block",
                OverflowPolicy::Reject => "reject",
                OverflowPolicy::ShedOldest => "shed",
                // Spill is measured by its own experiment (exp11_spill).
                OverflowPolicy::Spill { .. } => "spill",
            };
            table.row(&[
                name.to_string(),
                capacity.to_string(),
                f(o.ingest_tps),
                o.delivered.to_string(),
                o.shed.to_string(),
                o.overflow_events.to_string(),
            ]);
            json_rows.push(format!(
                "{{\"policy\":\"{name}\",\"capacity\":{capacity},\"tuples\":{total},\
                 \"ingest_tps\":{:.0},\"delivered\":{},\"shed\":{},\"overflow_events\":{}}}",
                o.ingest_tps, o.delivered, o.shed, o.overflow_events
            ));
        }
    }
    println!();
    println!(
        "BENCH_backpressure.json: {{\"experiment\":\"exp8_backpressure\",\"results\":[{}]}}",
        json_rows.join(",")
    );
    if !lost.is_empty() {
        eprintln!("lossless runs delivered fewer than {total} tuples:");
        for l in &lost {
            eprintln!("  {l}");
        }
        std::process::exit(1);
    }
}
