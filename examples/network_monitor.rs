//! Network monitoring — the paper's first motivating application domain.
//!
//! A packet-header stream is watched by three standing queries of very
//! different weight, sharing one basket under the shared-readers
//! discipline (§2.5):
//!
//! 1. a cheap blocklist filter (suspicious destination ports),
//! 2. a heavy "top talkers" report (group-by + order-by + limit),
//! 3. a per-window traffic volume aggregate over tumbling windows.
//!
//! Everything below the surface is ordinary SQL compiled by the ordinary
//! optimizer — no bespoke stream operators. The session is configured
//! through [`DataCellBuilder`]; ingestion runs through typed
//! [`StreamWriter`]s; the shared-reader factories are wired through the
//! low-level `Factory` API the facade intentionally keeps public, and the
//! window is a SQL window clause.
//!
//! [`DataCellBuilder`]: datacell::DataCellBuilder
//! [`StreamWriter`]: datacell::StreamWriter
//!
//! Run with: `cargo run --example network_monitor`

use datacell::factory::{Factory, FactoryOutput};
use datacell::scheduler::SchedulePolicy;
use datacell::DataCell;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let cell = DataCell::builder().writer_batch_size(500).build();
    for ddl in [
        "create basket packets (src int, dst int, port int, bytes int)",
        "create basket alerts (src int, port int)",
        "create basket talkers (src int, total int)",
        "create basket packets_w (src int, dst int, port int, bytes int)",
    ] {
        cell.execute(ddl).unwrap();
    }

    // Queries 1 and 2 share the `packets` basket under the shared-readers
    // discipline (§2.5): a tuple is removed only once both have seen it.
    {
        let catalog = cell.catalog();
        let cat = catalog.read();
        let alerts = cat.basket("alerts").unwrap();
        let talkers = cat.basket("talkers").unwrap();

        // Query 1 (cheap, shared reader): blocklisted ports.
        let mut blocklist = Factory::compile(
            "blocklist",
            "select p.src, p.port from [select * from packets] as p \
             where p.port in (23, 445, 1433)",
            &cat,
            FactoryOutput::Basket(alerts),
        )
        .unwrap();
        blocklist.set_shared("packets").unwrap();

        // Query 2 (heavy, shared reader): top talkers per batch.
        let mut top = Factory::compile(
            "top_talkers",
            "select p.src, sum(p.bytes) as total from [select * from packets] as p \
             group by p.src order by total desc limit 3",
            &cat,
            FactoryOutput::Basket(talkers),
        )
        .unwrap();
        top.set_shared("packets").unwrap();

        drop(cat);

        cell.add_factory(blocklist, SchedulePolicy::default())
            .unwrap();
        cell.add_factory(top, SchedulePolicy::default()).unwrap();
    }
    // Query 3: tumbling-window byte counts per 1000 packets, on a private
    // copy of the stream (window processing, §3.1).
    cell.execute(
        "create continuous query volume_window as \
         select sum(p.bytes) as total from packets_w [rows 1000] as p",
    )
    .unwrap();

    // Synthetic packet trace: 5000 packets, a Zipf-ish source skew, a few
    // suspicious ports, ingested through typed writers (validated against
    // the basket schema, appended in 500-row batches).
    let mut wire = cell.writer("packets").unwrap();
    let mut wire_w = cell.writer("packets_w").unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    for i in 0..5_000u32 {
        let src = [10, 10, 10, 11, 12, 13, 14][rng.gen_range(0..7)];
        let port = if rng.gen_ratio(2, 100) {
            [23, 445, 1433][rng.gen_range(0..3)]
        } else {
            rng.gen_range(1024..65535i64)
        };
        let row = (
            src,
            rng.gen_range(1..255i64),
            port,
            rng.gen_range(40..1500i64),
        );
        wire.append(row).unwrap();
        wire_w.append(row).unwrap();
        if (i + 1) % 500 == 0 {
            cell.run_until_quiescent(1000);
        }
    }
    cell.run_until_quiescent(1000);

    let alerts = cell.basket("alerts").unwrap();
    let talkers = cell.basket("talkers").unwrap();
    let volumes = cell.query_output("volume_window").unwrap();
    println!("suspicious-port alerts : {}", alerts.len());
    println!("top-talker report rows : {}", talkers.len());
    println!("volume windows         : {}", volumes.len());
    // Baskets remain inspectable as tables with one-time SQL (§2.6).
    let vsnap = cell
        .query(&format!(
            "select total from {} order by total",
            volumes.name()
        ))
        .unwrap();
    for i in 0..vsnap.len() {
        println!("  window {i}: {} bytes", vsnap.columns[0].get(i).unwrap());
    }
    assert!(!alerts.is_empty() && volumes.len() == 5);
}
