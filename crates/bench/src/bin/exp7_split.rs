//! `fig:exp7_split` — plan splitting on a shared basket (§3.2).
//!
//! A lightweight selection (q1) shares an input basket with a heavy
//! aggregation (q2). The heavy query is deliberately slow (time-sliced to
//! fire at most every 25 ms, emulating an expensive plan). Under the
//! shared-baskets discipline a tuple is released only after *both* readers
//! pass it, so the shared basket balloons to the heavy query's pace.
//! Splitting q2 into a cheap head (selection → private intermediate basket)
//! plus the heavy tail lets the shared basket drain at selection speed; the
//! backlog moves into q2's private intermediate basket where it delays
//! nobody else.
//!
//! Expected shape: peak shared-basket size drops by orders of magnitude
//! with splitting; the light query's answers are identical.

use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::basket::Basket;
use datacell::catalog::StreamCatalog;
use datacell::factory::{Factory, FactoryOutput};
use datacell::multiquery::split;
use datacell::scheduler::{SchedulePolicy, Scheduler};
use datacell_bat::types::Value;
use datacell_bat::DataType;
use datacell_bench::{banner, f, kv_stream, TablePrinter};
use datacell_sql::Schema;
use parking_lot::RwLock;

const TOTAL: usize = 200_000;
const FEED_BATCH: usize = 2_000;
const HEAVY_SLICE: Duration = Duration::from_millis(25);

const HEAVY_SQL: &str = "select s2.k, count(*) as n, sum(s2.v) as sv \
                         from [select * from s] as s2 group by s2.k order by n desc";
const LIGHT_SQL: &str = "select s2.v, s2.ts from [select * from s] as s2 \
                         where s2.v between 0 and 99";

struct Rig {
    scheduler: Scheduler,
    input: Arc<Basket>,
    light_out: Arc<Basket>,
    #[allow(dead_code)]
    catalog: Arc<RwLock<StreamCatalog>>,
}

fn build(split_heavy: bool) -> Rig {
    let mut cat = StreamCatalog::new();
    let input = cat
        .create_basket(
            "s",
            Schema::new(vec![
                ("k".into(), DataType::Int),
                ("v".into(), DataType::Int),
            ]),
        )
        .unwrap();
    let light_out = cat
        .create_basket("light_out", Schema::new(vec![("v".into(), DataType::Int)]))
        .unwrap();
    let heavy_out = cat
        .create_basket(
            "heavy_out",
            Schema::new(vec![
                ("k".into(), DataType::Int),
                ("n".into(), DataType::Int),
                ("sv".into(), DataType::Int),
            ]),
        )
        .unwrap();

    let mut light = Factory::compile(
        "light",
        LIGHT_SQL,
        &cat,
        FactoryOutput::Basket(Arc::clone(&light_out)),
    )
    .unwrap();
    light.set_shared("s", input.register_reader(true)).unwrap();

    let catalog = Arc::new(RwLock::new(cat));
    let scheduler = Scheduler::new(Arc::clone(&catalog));
    scheduler.add_factory(light);

    let slow = SchedulePolicy {
        priority: 0,
        min_interval: Some(HEAVY_SLICE),
        ..SchedulePolicy::default()
    };
    if split_heavy {
        let mut cat = catalog.write();
        let mut sq = split(
            &mut cat,
            "heavy",
            HEAVY_SQL,
            FactoryOutput::Basket(heavy_out),
        )
        .unwrap();
        sq.head
            .set_shared("s", input.register_reader(true))
            .unwrap();
        drop(cat);
        // The cheap head runs eagerly; only the heavy *tail* is slow — the
        // whole point of the split.
        scheduler.add_factory(sq.head);
        scheduler.add_factory_with_policy(sq.tail, slow);
    } else {
        let cat = catalog.read();
        let mut heavy =
            Factory::compile("heavy", HEAVY_SQL, &cat, FactoryOutput::Basket(heavy_out)).unwrap();
        heavy.set_shared("s", input.register_reader(true)).unwrap();
        drop(cat);
        scheduler.add_factory_with_policy(heavy, slow);
    }
    Rig {
        scheduler,
        input,
        light_out,
        catalog,
    }
}

fn run(split_heavy: bool) -> (f64, usize, usize) {
    let rig = build(split_heavy);
    rig.scheduler.start();
    let data = kv_stream(TOTAL, 50_000, 1_000, 23);
    let rows: Vec<Vec<Value>> = data;
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
    banner(
        "fig:exp7_split",
        &format!(
            "light selection + slow heavy group-by (time-sliced {HEAVY_SLICE:?}) share one \
             basket; {TOTAL} tuples; monolithic vs split heavy plan"
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
    let (wall_m, peak_m, light_m) = run(false);
    table.row(&[
        "monolithic".into(),
        f(wall_m),
        peak_m.to_string(),
        light_m.to_string(),
    ]);
    let (wall_s, peak_s, light_s) = run(true);
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
