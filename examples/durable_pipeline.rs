//! Durable baskets surviving a crash: ingest, kill the cell mid-stream,
//! recover, and watch the subscription resume without loss.
//!
//! ```text
//! cargo run --example durable_pipeline
//! ```
//!
//! Run 1 builds a persistent pipeline (every append is WAL-logged with
//! group commit before it is acknowledged), delivers a first batch, then
//! is dropped abruptly with a second batch still undelivered in the
//! query's output basket. Run 2 points a fresh cell at the same
//! `data_dir`, calls `recover()`, re-runs the *same* startup script
//! (identical declarations adopt the recovered baskets), and the
//! subscription picks up exactly the undelivered rows — nothing lost,
//! nothing the first run already delivered-and-committed repeated.

use std::time::Duration;

use datacell::{DataCell, Durability};

fn cell_at(dir: &std::path::Path) -> DataCell {
    DataCell::builder()
        .data_dir(dir)
        .durability(Durability::Persistent)
        .auto_start(true)
        .build()
}

fn declare(cell: &DataCell) {
    // The startup script both runs execute verbatim: after a recovery,
    // identical declarations adopt the recovered baskets instead of
    // failing with "already exists".
    cell.execute("create basket trades (sym varchar(8), px float)")
        .unwrap();
    cell.execute(
        "create continuous query big as \
         select t.sym, t.px from [select * from trades] as t where t.px > 100.0",
    )
    .unwrap();
}

fn main() {
    let dir = std::env::temp_dir().join(format!("datacell-durable-{}", std::process::id()));

    // ---- Run 1: ingest and die mid-stream. ----
    {
        let cell = cell_at(&dir);
        declare(&cell);
        let sub = cell.subscribe::<(String, f64)>("big").unwrap();

        cell.execute("insert into trades values ('ETH', 2500.0), ('DOGE', 0.08)")
            .unwrap();
        let first = sub.collect_n(1, Duration::from_secs(5)).unwrap();
        println!("run 1 delivered: {first:?}");
        // The delivery is already *committed*: a subscription commits its
        // claim as it takes it, so the output basket has trimmed and run 2
        // can show that committed rows are never re-delivered.
        assert!(cell.query_output("big").unwrap().is_empty());

        // The subscriber goes away; more durable appends pile up in the
        // output basket, undelivered. (The scheduler thread is live —
        // auto_start — so we wait for the factory to digest the batch
        // rather than driving manually.)
        drop(sub);
        cell.execute("insert into trades values ('BTC', 64000.5), ('XAU', 2300.25)")
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !cell.basket("trades").unwrap().is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        println!("run 1: killed with undelivered results on disk");
        // ...and the cell dies. (A real crash — kill -9, power loss after
        // the fsync — leaves the same on-disk state.)
        drop(cell);
    }

    // ---- Run 2: recover and resume. ----
    {
        let cell = cell_at(&dir);
        let report = cell.recover().unwrap();
        println!(
            "run 2 recovered: {} baskets, {} tuples, {} wal bytes (torn tail: {})",
            report.baskets.len(),
            report.tuples,
            report.wal_bytes,
            report.torn_bytes
        );
        declare(&cell); // same script — adopts the recovered baskets
        let sub = cell.subscribe::<(String, f64)>("big").unwrap();

        let resumed = sub.collect_n(2, Duration::from_secs(5)).unwrap();
        println!("run 2 delivered (resumed, no loss, no repeats): {resumed:?}");
        assert_eq!(resumed.len(), 2, "both undelivered rows arrive");
        assert!(resumed.iter().all(|(s, _)| s == "BTC" || s == "XAU"));

        // The pipeline is fully live again.
        cell.execute("insert into trades values ('SPX', 5200.0)")
            .unwrap();
        let next = sub.collect_n(1, Duration::from_secs(5)).unwrap();
        println!("run 2 new traffic: {next:?}");
        cell.stop();
    }

    let _ = std::fs::remove_dir_all(&dir);
}
