//! `fig:exp7_split` — plan splitting on a shared basket (§3.2).
//!
//! A lightweight selection (q1) shares an input basket with a heavy
//! aggregation (q2). The heavy query is deliberately slow (time-sliced to
//! fire at most every 25 ms, emulating an expensive plan). Under the
//! shared-baskets discipline a tuple is released only after *both* readers
//! pass it, so the shared basket balloons to the heavy query's pace.
//! Splitting q2 into a cheap head (a `select *` of the shared basket into a
//! private `heavy_mid` basket) plus the heavy tail (the aggregation over
//! `heavy_mid`, time-sliced) lets the shared basket drain at selection
//! speed; the backlog moves into `heavy_mid` where it delays nobody else.
//! Head and tail are two ordinary continuous queries, as the paper writes
//! them.
//!
//! Expected shape: peak shared-basket size drops by orders of magnitude
//! with splitting; the light query's answers are identical.
//!
//! Optional first argument: tuple count (CI smoke runs pass a small one).

use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::basket::Basket;
use datacell::catalog::StreamCatalog;
use datacell::factory::{Factory, FactoryOutput};
use datacell::scheduler::{SchedulePolicy, Scheduler};
use datacell_bat::DataType;
use datacell_bench::{banner, f, kv_stream, TablePrinter};
use datacell_sql::Schema;
use parking_lot::RwLock;

const FEED_BATCH: usize = 2_000;
const HEAVY_SLICE: Duration = Duration::from_millis(25);

const HEAVY_SQL: &str = "select s2.k, count(*) as n, sum(s2.v) as sv \
                         from [select * from s] as s2 group by s2.k order by n desc";
const LIGHT_SQL: &str = "select s2.v, s2.ts from [select * from s] as s2 \
                         where s2.v between 0 and 99";
/// §3.2 split of `HEAVY_SQL`: the head forwards whole tuples (arrival
/// times included) into `heavy_mid`; the tail is the heavy plan over it.
const HEAD_SQL: &str = "select s2.k, s2.v, s2.ts from [select * from s] as s2";
const TAIL_SQL: &str = "select m.k, count(*) as n, sum(m.v) as sv \
                        from [select * from heavy_mid] as m group by m.k order by n desc";

struct Rig {
    scheduler: Scheduler,
    input: Arc<Basket>,
    light_out: Arc<Basket>,
}

fn kv() -> Schema {
    Schema::new(vec![
        ("k".into(), DataType::Int),
        ("v".into(), DataType::Int),
    ])
}

fn build(split_heavy: bool) -> Rig {
    let mut cat = StreamCatalog::new();
    let input = cat.create_basket("s", kv()).unwrap();
    let light_out = cat
        .create_basket("light_out", Schema::new(vec![("v".into(), DataType::Int)]))
        .unwrap();
    let heavy_out = FactoryOutput::Basket(
        cat.create_basket(
            "heavy_out",
            Schema::new(vec![
                ("k".into(), DataType::Int),
                ("n".into(), DataType::Int),
                ("sv".into(), DataType::Int),
            ]),
        )
        .unwrap(),
    );
    // Every query reading `s` does so through its own reader cursor.
    let shared = |sql: &str, name: &str, output: FactoryOutput, cat: &StreamCatalog| {
        let mut f = Factory::compile(name, sql, cat, output).unwrap();
        f.set_shared("s", input.register_reader(true)).unwrap();
        f
    };
    let light = shared(
        LIGHT_SQL,
        "light",
        FactoryOutput::Basket(Arc::clone(&light_out)),
        &cat,
    );
    let slow = SchedulePolicy {
        priority: 0,
        min_interval: Some(HEAVY_SLICE),
        ..SchedulePolicy::default()
    };
    let mut factories = vec![(light, SchedulePolicy::default())];
    if split_heavy {
        // The cheap head runs eagerly; only the heavy *tail* is slow — the
        // whole point of the split.
        let mid = FactoryOutput::Basket(cat.create_basket("heavy_mid", kv()).unwrap());
        factories.push((
            shared(HEAD_SQL, "heavy_head", mid, &cat),
            SchedulePolicy::default(),
        ));
        let tail = Factory::compile("heavy_tail", TAIL_SQL, &cat, heavy_out).unwrap();
        factories.push((tail, slow));
    } else {
        factories.push((shared(HEAVY_SQL, "heavy", heavy_out, &cat), slow));
    }
    let scheduler = Scheduler::new(Arc::new(RwLock::new(cat)));
    for (f, policy) in factories {
        scheduler.add_factory_with_policy(f, policy);
    }
    Rig {
        scheduler,
        input,
        light_out,
    }
}

fn run(split_heavy: bool, total: usize) -> (f64, usize, usize) {
    let rig = build(split_heavy);
    rig.scheduler.start();
    let rows = kv_stream(total, 50_000, 1_000, 23);
    let started = Instant::now();
    let mut peak = 0usize;
    for chunk in rows.chunks(FEED_BATCH) {
        rig.input.append_rows(chunk).unwrap();
        // Pace the feed a little so the slow heavy query's effect shows.
        std::thread::sleep(Duration::from_millis(1));
        peak = peak.max(rig.input.len());
    }
    // Drain.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !rig.input.is_empty() && Instant::now() < deadline {
        peak = peak.max(rig.input.len());
        std::thread::sleep(Duration::from_millis(2));
    }
    let wall = started.elapsed().as_secs_f64();
    rig.scheduler.stop();
    (wall, peak, rig.light_out.len())
}

fn main() {
    let total: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200_000);
    banner(
        "fig:exp7_split",
        &format!(
            "light selection + slow heavy group-by (time-sliced {HEAVY_SLICE:?}) share one \
             basket; {total} tuples; monolithic vs split heavy plan"
        ),
        "splitting shrinks the peak shared-basket backlog by orders of magnitude; \
         light answers unchanged",
    );
    let table = TablePrinter::new(&[
        "configuration",
        "wall (s)",
        "peak shared basket",
        "light results",
    ]);
    let (wall_m, peak_m, light_m) = run(false, total);
    table.row(&[
        "monolithic".into(),
        f(wall_m),
        peak_m.to_string(),
        light_m.to_string(),
    ]);
    let (wall_s, peak_s, light_s) = run(true, total);
    table.row(&[
        "split".into(),
        f(wall_s),
        peak_s.to_string(),
        light_s.to_string(),
    ]);
    assert_eq!(light_m, light_s, "same light-query answers");
    println!();
    println!(
        "peak backlog reduction: {:.1}x",
        peak_m as f64 / peak_s.max(1) as f64
    );
}
