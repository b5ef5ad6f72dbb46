//! `fig:exp1_batch` — batch (basket) processing vs tuple-at-a-time.
//!
//! One standing range-selection query (10% selectivity). The DataCell
//! column processes the stream in baskets of varying batch size; the
//! baseline pushes each tuple through an operator chain. We report
//! per-tuple processing cost and throughput per configuration.
//!
//! Expected shape: DataCell per-tuple cost falls steeply with batch size
//! and beats the baseline beyond small batches; the baseline is flat.

use std::sync::Arc;
use std::time::Instant;

use datacell::catalog::StreamCatalog;
use datacell::factory::{Factory, FactoryOutput};
use datacell::scheduler::Transition;
use datacell_baseline::{Query, Selection, TupleEngine};
use datacell_bat::DataType;
use datacell_bench::{banner, f, int_stream, TablePrinter};
use datacell_sql::Schema;
use parking_lot::RwLock;

const TOTAL: usize = 400_000;
const DOMAIN: i64 = 1000;
const LO: i64 = 0;
const HI: i64 = 99; // 10% selectivity

fn datacell_run(batch: usize) -> (f64, usize) {
    let mut cat = StreamCatalog::new();
    let input = cat
        .create_basket("s", Schema::new(vec![("v".into(), DataType::Int)]))
        .unwrap();
    let out = cat
        .create_basket("out", Schema::new(vec![("v".into(), DataType::Int)]))
        .unwrap();
    let factory = Factory::compile(
        "q",
        &format!("select s2.v from [select * from s] as s2 where s2.v between {LO} and {HI}"),
        &cat,
        FactoryOutput::Basket(Arc::clone(&out)),
    )
    .unwrap();
    let catalog = Arc::new(RwLock::new(cat));
    let _ = &catalog;
    let data = int_stream(TOTAL, DOMAIN, 7);
    let started = Instant::now();
    for chunk in data.chunks(batch) {
        input.append_rows(chunk).unwrap();
        factory.step(None, usize::MAX).unwrap();
    }
    let elapsed = started.elapsed().as_secs_f64();
    (elapsed, out.len())
}

fn baseline_run() -> (f64, usize) {
    let mut engine = TupleEngine::new();
    engine.add_query(Query::new(
        "q",
        vec![Box::new(Selection {
            column: 0,
            lo: LO,
            hi: HI,
        })],
    ));
    let data = int_stream(TOTAL, DOMAIN, 7);
    let tuples: Vec<datacell_baseline::Tuple> = data
        .into_iter()
        .map(|values| datacell_baseline::Tuple::new(values, 0))
        .collect();
    let started = Instant::now();
    for t in &tuples {
        engine.push(t);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let produced = engine.query_mut(0).drain_results().len();
    (elapsed, produced)
}

fn main() {
    banner(
        "fig:exp1_batch",
        &format!(
            "single 10%-selectivity selection over {TOTAL} tuples; DataCell basket batching \
             vs tuple-at-a-time baseline"
        ),
        "DataCell per-tuple cost falls with batch size; baseline flat; crossover at small batches",
    );
    let table = TablePrinter::new(&["engine", "batch", "tuples/s", "ns/tuple", "results"]);
    let (bt, bn) = baseline_run();
    table.row(&[
        "tuple-at-a-time".into(),
        "1".into(),
        f(TOTAL as f64 / bt),
        f(bt * 1e9 / TOTAL as f64),
        bn.to_string(),
    ]);
    for batch in [1usize, 10, 100, 1_000, 10_000, 100_000] {
        let (t, n) = datacell_run(batch);
        table.row(&[
            "datacell".into(),
            batch.to_string(),
            f(TOTAL as f64 / t),
            f(t * 1e9 / TOTAL as f64),
            n.to_string(),
        ]);
    }
}
