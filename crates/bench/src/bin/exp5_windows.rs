//! `fig:exp5_windows` — sliding-window aggregation: full re-evaluation vs
//! incremental basic windows (§3.1).
//!
//! A sliding sum over a count window; the window size grows while the slide
//! stays fixed, so re-evaluation — the SQL window
//! `FROM w [ROWS size SLIDE 100]` — reprocesses ever more tuples per slide
//! while the incremental evaluator's per-slide work stays O(slide +
//! size/slide). Both routes must emit the same windows.
//!
//! Expected shape: near-parity at size≈slide (tumbling), then an
//! increasingly large incremental win as size/slide grows.

use std::sync::Arc;
use std::time::Instant;

use datacell::catalog::StreamCatalog;
use datacell::scheduler::Transition;
use datacell::window::BasicWindowAgg;
use datacell::DataCell;
use datacell_bat::aggregate::AggFunc;
use datacell_bat::DataType;
use datacell_bench::{banner, f, int_stream, TablePrinter};
use datacell_sql::Schema;

const TOTAL: usize = 200_000;
const SLIDE: usize = 100;
const BATCH: usize = 2_000;

fn run_reeval(size: usize) -> (f64, usize) {
    let cell = DataCell::new();
    cell.execute("create basket w (v int)").unwrap();
    cell.execute(&format!(
        "create continuous query re as \
         select sum(w.v) as value from w [rows {size} slide {SLIDE}]"
    ))
    .unwrap();
    let input = cell.basket("w").unwrap();
    let w = cell.window_join("re").unwrap();
    let data = int_stream(TOTAL, 1_000, 17);
    let started = Instant::now();
    for chunk in data.chunks(BATCH) {
        input.append_rows(chunk).unwrap();
        while w.ready() {
            w.step(None).unwrap();
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    (elapsed, cell.query_output("re").unwrap().len())
}

fn run_incremental(size: usize) -> (f64, usize) {
    let mut cat = StreamCatalog::new();
    let input = cat
        .create_basket("w", Schema::new(vec![("v".into(), DataType::Int)]))
        .unwrap();
    let out = cat
        .create_basket("o", Schema::new(vec![("value".into(), DataType::Int)]))
        .unwrap();
    let w = BasicWindowAgg::new(
        "inc",
        Arc::clone(&input),
        "v",
        AggFunc::Sum,
        None,
        size,
        SLIDE,
        Arc::clone(&out),
    )
    .unwrap();
    let data = int_stream(TOTAL, 1_000, 17);
    let started = Instant::now();
    for chunk in data.chunks(BATCH) {
        input.append_rows(chunk).unwrap();
        w.step(None).unwrap();
    }
    (started.elapsed().as_secs_f64(), out.len())
}

fn main() {
    banner(
        "fig:exp5_windows",
        &format!(
            "sliding SUM, slide {SLIDE}, window size swept; {TOTAL} tuples fed in \
             batches of {BATCH}"
        ),
        "re-evaluation cost grows with window size; incremental stays flat",
    );
    let table = TablePrinter::new(&[
        "window",
        "size/slide",
        "sql window (s)",
        "incremental (s)",
        "speedup",
        "windows",
    ]);
    for size in [100usize, 500, 1_000, 5_000, 10_000, 50_000] {
        let (re, n_re) = run_reeval(size);
        let (inc, n_inc) = run_incremental(size);
        assert_eq!(n_re, n_inc, "both evaluators must emit the same windows");
        table.row(&[
            size.to_string(),
            (size / SLIDE).to_string(),
            f(re),
            f(inc),
            f(re / inc),
            n_re.to_string(),
        ]);
    }
}
