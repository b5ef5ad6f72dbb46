//! Financial ticker — the paper's second motivating domain.
//!
//! Trades stream in through a typed [`StreamWriter`]; the system
//! maintains, per symbol:
//! * a sliding volume sum (incremental basic windows, §3.1 — a
//!   [`BasicWindowAgg`] whose output basket is inspectable with an
//!   ordinary one-time query), and
//! * a large-trade alert via a continuous SQL query that *joins the stream
//!   against a stored reference table* — the kind of reuse a from-scratch
//!   DSMS has to rebuild (§1). Alerts arrive as typed
//!   `(String, i64, i64)` rows on a [`Subscription`].
//!
//! [`StreamWriter`]: datacell::StreamWriter
//! [`Subscription`]: datacell::Subscription
//!
//! Run with: `cargo run --example financial_ticker`

use std::sync::Arc;

use datacell::scheduler::SchedulePolicy;
use datacell::window::{BasicWindowAgg, RangeFilter};
use datacell::DataCell;
use datacell_bat::aggregate::AggFunc;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let cell = DataCell::builder().writer_batch_size(1_000).build();
    // Reference data lives in an ordinary table.
    cell.execute("create table symbols (sid int, name varchar(8), lot_limit int)")
        .unwrap();
    cell.execute(
        "insert into symbols values (1, 'ACME', 5000), (2, 'GLOBEX', 8000), (3, 'INITECH', 3000)",
    )
    .unwrap();

    cell.execute("create basket trades (sid int, price int, volume int)")
        .unwrap();

    // Continuous query: large trades, enriched by the reference table.
    // The handle keeps the lifecycle (pause/resume/drop) in reach.
    let big_trades = cell
        .continuous_query(
            "big_trades",
            "select sym.name, t.price, t.volume \
             from [select * from trades] as t \
             join symbols sym on t.sid = sym.sid \
             where t.volume > sym.lot_limit",
        )
        .unwrap();
    let alerts = big_trades.subscribe::<(String, i64, i64)>().unwrap();

    // Incremental sliding aggregates for symbol 1: sum(price*volume) needs
    // a derived column, so keep it simple and faithful to the basic-window
    // model: sliding sum of volume and count of trades.
    {
        let catalog = cell.catalog();
        let mut cat = catalog.write();
        let vcopy = cat
            .create_basket(
                "trades_w",
                datacell_sql::Schema::new(vec![
                    ("sid".into(), datacell_bat::DataType::Int),
                    ("price".into(), datacell_bat::DataType::Int),
                    ("volume".into(), datacell_bat::DataType::Int),
                ]),
            )
            .unwrap();
        let vol_out = cat
            .create_basket(
                "acme_volume",
                datacell_sql::Schema::new(vec![("value".into(), datacell_bat::DataType::Int)]),
            )
            .unwrap();
        let sliding_volume = BasicWindowAgg::new(
            "acme_sliding_volume",
            Arc::clone(&vcopy),
            "volume",
            AggFunc::Sum,
            // Pre-filter: only symbol 1 (column 0 of the basket schema).
            Some(RangeFilter {
                column: 0,
                lo: 1,
                hi: 1,
            }),
            2_000,
            500,
            vol_out,
        )
        .unwrap();
        drop(cat);
        cell.add_transition(Arc::new(sliding_volume), SchedulePolicy::default())
            .unwrap();
    }

    cell.start();

    // Feed a synthetic tape through typed writers: rows are validated
    // against the basket schemas and appended in 1000-row batches (the
    // session default configured on the builder above).
    let mut trades = cell.writer("trades").unwrap();
    let mut trades_w = cell.writer("trades_w").unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..20_000 {
        let row = (
            rng.gen_range(1..4i64),
            rng.gen_range(90..110i64),
            rng.gen_range(1..10_000i64),
        );
        trades.append(row).unwrap();
        trades_w.append(row).unwrap();
    }
    trades.flush().unwrap();
    trades_w.flush().unwrap();
    // Let the scheduler finish, then inspect.
    std::thread::sleep(std::time::Duration::from_millis(200));
    cell.run_until_quiescent(10_000);

    let alert_rows = alerts.drain().unwrap();
    cell.stop();
    println!("large-trade alerts: {}", alert_rows.len());
    for (name, price, volume) in alert_rows.iter().take(5) {
        println!("  {name}: {volume} @ {price}");
    }
    // Baskets are inspectable as tables outside basket expressions (§2.6):
    let windows = cell
        .query("select count(*) as n, min(value) as lo, max(value) as hi from acme_volume")
        .unwrap();
    let row = windows.row(0).unwrap();
    println!(
        "ACME sliding-volume windows: n={} min={} max={}",
        row[0], row[1], row[2]
    );
    assert!(!alert_rows.is_empty());
}
