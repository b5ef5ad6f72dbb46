//! `fig:exp6_scheduler` — scheduler firing-policy ablation (§2.4, D4).
//!
//! The same selection query under three firing disciplines while a paced
//! receptor feeds the stream:
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

use datacell::emitter::{Emitter, LatencySink};
use datacell::metrics::LatencyHistogram;
use datacell::receptor::{Receptor, SourceBatch, TupleSource};
use datacell::scheduler::SchedulePolicy;
use datacell::DataCell;
use datacell_bat::types::Value;
use datacell_bench::{banner, f, TablePrinter};

const TOTAL: u64 = 200_000;
const RATE: f64 = 300_000.0;

struct PacedSource {
    produced: u64,
    started: Option<Instant>,
}

impl TupleSource for PacedSource {
    fn next_batch(&mut self, max: usize) -> SourceBatch {
        let started = *self.started.get_or_insert_with(Instant::now);
        if self.produced >= TOTAL {
            return SourceBatch::Exhausted;
        }
        let due = ((started.elapsed().as_secs_f64() * RATE) as u64).min(TOTAL);
        if due <= self.produced {
            return SourceBatch::Idle;
        }
        let n = (due - self.produced).min(max as u64);
        let rows = (0..n)
            .map(|k| vec![Value::Int(((self.produced + k) % 1000) as i64)])
            .collect();
        self.produced += n;
        SourceBatch::Rows(rows)
    }
}

fn run(policy_name: &str, min_tuples: usize, min_interval: Option<Duration>) -> (f64, u64, u64) {
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
    );
    let hist = Arc::new(LatencyHistogram::new());
    let out = cell.basket("qo").unwrap();
    let emitter =
        Emitter::spawn("lat", Arc::clone(&out), LatencySink::new(Arc::clone(&hist))).unwrap();
    cell.start();
    let started = Instant::now();
    let receptor = Receptor::spawn(
        policy_name,
        PacedSource {
            produced: 0,
            started: None,
        },
        vec![cell.basket("s").unwrap()],
        4096,
    )
    .unwrap();
    receptor.join();
    // Stragglers: a threshold policy can leave a final partial batch; give
    // the scheduler a moment, then flush by one quiescent drive.
    std::thread::sleep(Duration::from_millis(30));
    cell.run_until_quiescent(1000);
    std::thread::sleep(Duration::from_millis(30));
    let wall = started.elapsed().as_secs_f64();
    cell.stop();
    emitter.stop();
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
        let (wall, p50, firings) = run(name, min_tuples, interval);
        table.row(&[
            name.into(),
            f(wall),
            p50.to_string(),
            firings.to_string(),
            f(TOTAL as f64 / firings as f64),
        ]);
    }
}
