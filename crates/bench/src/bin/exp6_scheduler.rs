//! `fig:exp6_scheduler` — scheduler firing-policy ablation (§2.4, D4).
//!
//! The same selection query under three firing disciplines while the
//! caller's thread paces a `StreamWriter` into the stream and drains the
//! output basket between appends, recording each result's arrival→drain
//! latency:
//! * **eager** — fire whenever the basket is non-empty (min latency);
//! * **threshold(n)** — fire only with ≥ n tuples buffered (bigger batches,
//!   better per-tuple cost, more queueing delay);
//! * **time-slice(d)** — fire at most every d (bounded batching by time).
//!
//! Expected shape: per-tuple cost falls and mean latency rises as the
//! policy batches more aggressively — the latency/throughput trade-off the
//! paper assigns to the scheduler.

use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::basket::Basket;
use datacell::clock::now_micros;
use datacell::metrics::LatencyHistogram;
use datacell::scheduler::SchedulePolicy;
use datacell::{DataCell, ReaderId};
use datacell_bench::{banner, f, pace, TablePrinter};

const TOTAL: u64 = 200_000;
const RATE: f64 = 300_000.0;

/// Claim everything `reader` has not seen in `out`, record each row's
/// latency off its `ts` column, and commit.
fn drain(out: &Basket, reader: ReaderId, hist: &LatencyHistogram) {
    let (chunk, start, end) = out.claim_for_reader(reader, usize::MAX);
    if let Some(ts) = chunk.columns.last().and_then(|c| c.as_timestamps().ok()) {
        hist.record_many(ts, now_micros());
    }
    out.commit_claim(reader, start, end);
}

fn run(min_tuples: usize, min_interval: Option<Duration>) -> (f64, u64, u64) {
    let cell = DataCell::builder()
        .scheduler_policy(SchedulePolicy {
            priority: 0,
            min_interval,
            ..SchedulePolicy::default()
        })
        .build();
    cell.execute("create basket s (v int)").unwrap();
    // Build the factory by SQL, then adjust the threshold through the
    // registered handle; the typed lifecycle (QueryHandle::drop_query)
    // detaches the SQL-registered factory first.
    cell.continuous_query(
        "q",
        "select s2.v, s2.ts from [select * from s] as s2 where s2.v < 500",
    )
    .unwrap()
    .drop_query()
    .unwrap();
    let factory = {
        let catalog = cell.catalog();
        let mut cat = catalog.write();
        let out = cat
            .create_basket(
                "qo",
                datacell_sql::Schema::new(vec![("v".into(), datacell_bat::DataType::Int)]),
            )
            .unwrap();
        let mut f = datacell::factory::Factory::compile(
            "q",
            "select s2.v, s2.ts from [select * from s] as s2 where s2.v < 500",
            &cat,
            datacell::factory::FactoryOutput::Basket(Arc::clone(&out)),
        )
        .unwrap();
        f.set_min_tuples(min_tuples);
        f
    };
    cell.add_factory(
        factory,
        SchedulePolicy {
            priority: 0,
            min_interval,
            ..SchedulePolicy::default()
        },
    )
    .expect("register factory");
    let hist = LatencyHistogram::new();
    let out = cell.basket("qo").unwrap();
    let reader = out.register_reader(true);
    let mut writer = cell.writer("s").unwrap();
    cell.start();
    let started = Instant::now();
    pace(&mut writer, RATE, TOTAL, || drain(&out, reader, &hist));
    // Stragglers: a threshold policy can leave a final partial batch; give
    // the scheduler a moment, then flush by one quiescent drive.
    std::thread::sleep(Duration::from_millis(30));
    cell.run_until_quiescent(1000);
    std::thread::sleep(Duration::from_millis(30));
    drain(&out, reader, &hist);
    let wall = started.elapsed().as_secs_f64();
    cell.stop();
    let (_, firings, _) = cell.scheduler().stats();
    (wall, hist.quantile_micros(0.5), firings.max(1))
}

fn main() {
    banner(
        "fig:exp6_scheduler",
        &format!("firing-policy ablation at {RATE} t/s offered load, {TOTAL} tuples"),
        "aggressive batching lowers per-tuple cost but raises latency",
    );
    let table = TablePrinter::new(&[
        "policy",
        "wall (s)",
        "p50 latency (us)",
        "firings",
        "tuples/firing",
    ]);
    let configs: Vec<(&str, usize, Option<Duration>)> = vec![
        ("eager", 1, None),
        ("threshold(100)", 100, None),
        ("threshold(10000)", 10_000, None),
        ("timeslice(1ms)", 1, Some(Duration::from_millis(1))),
        ("timeslice(20ms)", 1, Some(Duration::from_millis(20))),
    ];
    for (name, min_tuples, interval) in configs {
        let (wall, p50, firings) = run(min_tuples, interval);
        table.row(&[
            name.into(),
            f(wall),
            p50.to_string(),
            firings.to_string(),
            f(TOTAL as f64 / firings as f64),
        ]);
    }
}
