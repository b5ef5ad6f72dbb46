//! `fig:exp11_spill` — sustained ingest with a deliberately slow consumer
//! under `Spill` vs `Block` vs `ShedOldest`.
//!
//! The pipeline is the full typed path (writer → bounded basket →
//! scheduler-driven factory → bounded output basket → subscription), with
//! a subscriber that sleeps per row so the backlog *must* land somewhere:
//!
//! * `Block` — lossless, memory-bounded, but the producer is dragged down
//!   to the consumer's pace (ingest throughput collapses);
//! * `ShedOldest` — fast ingest, memory-bounded, **loses data** (the shed
//!   count is the loss at this offered load);
//! * `Spill` — fast ingest, memory-bounded at the spill budget, zero
//!   tuples shed: the head of the backlog absorbs into sealed on-disk
//!   segments and is re-read as the consumer catches up.
//!
//! A sampler thread tracks the peak in-memory residency across both
//! baskets (the claim under test: `Spill` keeps a hard resident-memory
//! ceiling with no loss). Emits one machine-readable summary line
//! (`BENCH_spill.json: {...}`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::{DataCell, DataCellError, OverflowPolicy};
use datacell_bench::{banner, f, TablePrinter};
use datacell_storage::testutil::TempDir;

/// In-memory budget per basket (the `Spill` budget doubles as the
/// `Block`/`ShedOldest` capacity, so every policy gets the same memory
/// allowance).
const MEM_ROWS: usize = 8_192;

/// Consumer-side delay per row — slow enough that the offered load
/// outruns the drain and the overflow policy decides the outcome.
const CONSUMER_DELAY: Duration = Duration::from_micros(30);

struct Outcome {
    ingest_tps: f64,
    delivered: u64,
    shed: u64,
    spilled: u64,
    peak_resident: usize,
    segments_written: u64,
    segments_deleted: u64,
    peak_bytes_on_disk: u64,
}

fn run(total: u64, policy: OverflowPolicy) -> Outcome {
    let dir = TempDir::new("exp11-spill");
    // The slow subscriber holds its reader's watermark on the output
    // basket, so the basket's bound (a capacity, or the spill budget)
    // is what backpressures the engine; a `Spill` basket ignores the
    // capacity.
    let mut builder = DataCell::builder()
        .overflow_policy(policy)
        .writer_batch_size(1024)
        .basket_capacity(MEM_ROWS)
        .auto_start(true);
    if let OverflowPolicy::Spill { .. } = policy {
        builder = builder.data_dir(dir.path());
    }
    let cell = Arc::new(builder.build());
    cell.execute("create basket s (v int)").unwrap();
    let q = cell
        .continuous_query("q", "select s2.v from [select * from s] as s2")
        .unwrap();
    let sub = q.subscribe::<(i64,)>().unwrap();
    drop(q);

    // The deliberately slow consumer.
    let delivered = Arc::new(AtomicU64::new(0));
    let drain_count = Arc::clone(&delivered);
    let drainer = std::thread::spawn(move || {
        while let Ok(Some(_)) = sub.next_timeout(Duration::from_millis(500)) {
            drain_count.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(CONSUMER_DELAY);
        }
    });

    // Residency sampler: the peak of in-memory rows across both baskets
    // plus the peak on-disk footprint.
    let stop_sampler = Arc::new(AtomicBool::new(false));
    let peak_resident = Arc::new(AtomicUsize::new(0));
    let peak_disk = Arc::new(AtomicU64::new(0));
    let sampler = {
        let cell = Arc::clone(&cell);
        let stop = Arc::clone(&stop_sampler);
        let peak = Arc::clone(&peak_resident);
        let disk = Arc::clone(&peak_disk);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let resident = cell.basket("s").map(|b| b.resident_len()).unwrap_or(0)
                    + cell
                        .query_output("q")
                        .map(|b| b.resident_len())
                        .unwrap_or(0);
                peak.fetch_max(resident, Ordering::Relaxed);
                if let Some(s) = cell.metrics().storage {
                    disk.fetch_max(s.bytes_on_disk, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };

    // Offer the load as fast as the policy admits it.
    let mut w = cell.writer("s").unwrap();
    let started = Instant::now();
    for i in 0..total {
        match w.append((i as i64,)) {
            Ok(()) | Err(DataCellError::Backpressure { .. }) => {}
            Err(e) => panic!("append: {e}"),
        }
    }
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

    // Let delivery settle (the spill leg has a deep disk backlog to
    // drain; stop when the count stops moving).
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = delivered.load(Ordering::Relaxed);
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = delivered.load(Ordering::Relaxed);
        if (now == last && now > 0) || Instant::now() > deadline {
            break;
        }
        last = now;
    }
    let metrics = cell.metrics();
    stop_sampler.store(true, Ordering::Relaxed);
    let _ = sampler.join();
    cell.stop();
    let _ = drainer.join();
    let storage = metrics.storage.unwrap_or_default();
    let shed = metrics.tuples_shed;
    if let OverflowPolicy::Spill { .. } = policy {
        assert_eq!(shed, 0, "Spill must lose nothing");
        assert_eq!(
            delivered.load(Ordering::Relaxed),
            total,
            "Spill must deliver every offered tuple"
        );
    }
    Outcome {
        ingest_tps: total as f64 / elapsed,
        delivered: delivered.load(Ordering::Relaxed),
        shed,
        spilled: storage.tuples_spilled,
        peak_resident: peak_resident.load(Ordering::Relaxed),
        segments_written: storage.segments_written,
        segments_deleted: storage.segments_deleted,
        peak_bytes_on_disk: peak_disk.load(Ordering::Relaxed),
    }
}

fn main() {
    let total: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(150_000);
    banner(
        "fig:exp11_spill",
        "sustained ingest with a slow consumer: Spill vs Block vs ShedOldest (writer → \
         basket → factory → basket → subscription, consumer sleeping per row)",
        "Spill keeps ShedOldest-class ingest throughput and a bounded resident-memory \
         ceiling with ZERO tuples shed; Block is lossless but collapses ingest to the \
         consumer's pace; ShedOldest is fast but lossy",
    );
    let table = TablePrinter::new(&[
        "policy",
        "ingest (t/s)",
        "delivered",
        "shed",
        "spilled",
        "peak resident",
        "segs w/d",
        "peak disk B",
    ]);
    let mut json_rows = Vec::new();
    for (name, policy) in [
        ("spill", OverflowPolicy::Spill { mem_rows: MEM_ROWS }),
        ("shed_oldest", OverflowPolicy::ShedOldest),
        ("block", OverflowPolicy::Block),
    ] {
        let o = run(total, policy);
        table.row(&[
            name.to_string(),
            f(o.ingest_tps),
            o.delivered.to_string(),
            o.shed.to_string(),
            o.spilled.to_string(),
            o.peak_resident.to_string(),
            format!("{}/{}", o.segments_written, o.segments_deleted),
            o.peak_bytes_on_disk.to_string(),
        ]);
        json_rows.push(format!(
            "{{\"policy\":\"{name}\",\"tuples\":{total},\"mem_rows\":{MEM_ROWS},\
             \"ingest_tps\":{:.0},\"delivered\":{},\"shed\":{},\"spilled\":{},\
             \"peak_resident\":{},\"segments_written\":{},\"segments_deleted\":{},\
             \"peak_bytes_on_disk\":{}}}",
            o.ingest_tps,
            o.delivered,
            o.shed,
            o.spilled,
            o.peak_resident,
            o.segments_written,
            o.segments_deleted,
            o.peak_bytes_on_disk
        ));
    }
    println!();
    println!(
        "BENCH_spill.json: {{\"experiment\":\"exp11_spill\",\"results\":[{}]}}",
        json_rows.join(",")
    );
}
