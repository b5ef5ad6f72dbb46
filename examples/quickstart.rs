//! Quickstart: the paper's Figure 1, end to end, through the typed facade.
//!
//! ```text
//! stream ─▶ StreamWriter ─▶ Basket B1 ─▶ Factory(Q) ─▶ Basket B2 ─▶ Subscription ─▶ you
//! ```
//!
//! A sensor stream flows into basket `b1` through a schema-validated
//! [`StreamWriter`]; the continuous query `q` (registered in plain SQL
//! with a basket expression, §2.6) filters it; a typed
//! [`Subscription`] decodes each result row into `(i64, f64)`. When the
//! query is dropped through its [`QueryHandle`], the factory detaches and
//! the subscription closes.
//!
//! [`StreamWriter`]: datacell::StreamWriter
//! [`Subscription`]: datacell::Subscription
//! [`QueryHandle`]: datacell::QueryHandle
//!
//! Run with: `cargo run --example quickstart`

use std::time::Duration;

use datacell::DataCell;

fn main() {
    // 1. Configure and build the session: scheduler policy, writer
    //    batching, backpressure and metrics all live on the builder.
    let cell = DataCell::builder()
        .writer_batch_size(8)
        .metrics(true)
        .auto_start(true) // Petri-net scheduler thread (§2.4) starts now
        .build();

    // 2. Declare the stream buffer — CREATE BASKET is CREATE TABLE with
    //    stream retention semantics (§2.2). A `ts` column is implicit.
    cell.execute("create basket b1 (sensor int, reading float)")
        .unwrap();

    // 3. Register the continuous query and keep its lifecycle handle. The
    //    square brackets are the basket expression: tuples it references
    //    are consumed from b1.
    let query = cell
        .continuous_query(
            "q",
            "select s.sensor, s.reading from [select * from b1] as s \
             where s.reading > 30.0",
        )
        .unwrap();

    // 4. Subscribe before data flows; each result row decodes into a
    //    typed tuple.
    let alerts = query.subscribe::<(i64, f64)>().unwrap();

    // 5. Ingest through a typed writer: rows are validated against the
    //    basket schema, buffered, and appended in batches.
    let mut writer = cell.writer("b1").unwrap();
    for i in 0..20i64 {
        writer
            .append((i % 4, 20.0 + ((i as f64) * 7.3) % 25.0))
            .unwrap();
    }
    writer.flush().unwrap();

    // 6. Watch typed results arrive.
    let mut delivered = 0;
    for (sensor, reading) in alerts.iter_timeout(Duration::from_millis(500)) {
        println!("alert: sensor {sensor} read {reading:.1}");
        delivered += 1;
        if delivered == 12 {
            break;
        }
    }

    // 7. Drop the query through its handle: the factory detaches and the
    //    subscription closes.
    query.drop_query().unwrap();
    assert!(alerts.try_next().is_err(), "subscription closed with query");

    let metrics = cell.metrics();
    cell.stop();
    println!(
        "--\n{delivered} readings exceeded the threshold \
         ({} ingested, {} delivered, mean latency {:.0} us)",
        metrics.tuples_ingested, metrics.tuples_delivered, metrics.mean_latency_micros
    );
    assert!(delivered > 0, "the chain must deliver something");
}
