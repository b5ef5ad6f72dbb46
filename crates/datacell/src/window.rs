//! Windowed query processing (§3.1) — *without* new window operators.
//!
//! "Following the DataCell approach, our goal is not to rebuild a new
//! special class of windowed operators. Instead, we study a scheme that
//! achieves window processing based on careful high level scheduling and
//! dynamic query plan rewriting." Both routes are scheduler transitions
//! that buffer the stream in ordinary columns and invoke ordinary
//! relational plans/kernels:
//!
//! * **re-evaluation** — a SQL window clause
//!   (`SELECT sum(w.v) FROM w [ROWS 1000 SLIDE 100]`, or `[RANGE …]`)
//!   registers a [`WindowJoin`](crate::window_join::WindowJoin) with one
//!   side: when a window is complete, the query's full (unchanged!) plan
//!   runs over the whole window; the window then slides and expired tuples
//!   are dropped. O(window) work per slide. Any SQL the plan compiles —
//!   predicates, grouping, ordering, joins with more windowed streams or
//!   stored tables — runs per window.
//! * [`BasicWindowAgg`] — the incremental route following the basic-window
//!   model of Zhu & Shasha's StatStream (reference 25 of the paper): the window splits
//!   into `size/slide` *basic windows*; each keeps a summary
//!   ([`Accumulator`]) computed once by ordinary aggregation; a slide
//!   merges `size/slide` summaries instead of reprocessing `size` tuples.
//!   O(slide + size/slide) work per slide. No SQL form selects it: it is
//!   wired programmatically as a transition.
//!
//! The SQL route takes count- and time-based windows, [`BasicWindowAgg`]
//! count-based ones; the trigger rule matches §3.1: "for count-based windows all we need to do is to monitor
//! the number of tuples in baskets; for time-based windows the scheduler
//! needs to monitor the timestamp of incoming stream tuples."

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use datacell_bat::aggregate::{Accumulator, AggFunc};
use datacell_bat::candidates::Candidates;
use datacell_bat::types::{DataType, Value};
use datacell_engine::Catalog;
use datacell_sql::ast::WindowSpec;
use datacell_sql::Schema;
use parking_lot::Mutex;

use crate::basket::{Basket, ReaderId, Signal};
use crate::error::{DataCellError, Result};
use crate::factory::StepOutcome;
use crate::scheduler::Transition;

// ---------------------------------------------------------------------
// Incremental (basic windows)
// ---------------------------------------------------------------------

/// Optional pre-filter for the incremental aggregate: `lo <= col <= hi`.
#[derive(Debug, Clone, Copy)]
pub struct RangeFilter {
    /// Column index in the input basket schema.
    pub column: usize,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

#[derive(Clone)]
struct BasicState {
    /// Summary under construction for the current basic window.
    current: Accumulator,
    /// Stream tuples folded into `current` so far.
    filled: usize,
    /// Completed basic-window summaries, oldest first.
    ring: VecDeque<Accumulator>,
}

/// Incremental sliding-window aggregate via basic-window summaries
/// (count-based; see module docs).
pub struct BasicWindowAgg {
    name: String,
    input: Arc<Basket>,
    /// Registered reader on `input` (unified cursor discipline).
    reader: ReaderId,
    /// Aggregated column index in the input basket schema.
    column: usize,
    func: AggFunc,
    filter: Option<RangeFilter>,
    size: usize,
    slide: usize,
    output: Arc<Basket>,
    state: Mutex<BasicState>,
    windows_emitted: AtomicU64,
}

impl BasicWindowAgg {
    /// Build an incremental windowed aggregate. Requires `size % slide == 0`
    /// (the window must be a whole number of basic windows) and a numeric
    /// or orderable aggregated column. The output basket takes one column:
    /// the aggregate value.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        input: Arc<Basket>,
        column: &str,
        func: AggFunc,
        filter: Option<RangeFilter>,
        size: usize,
        slide: usize,
        output: Arc<Basket>,
    ) -> Result<BasicWindowAgg> {
        WindowSpec::Count {
            size: size as u64,
            slide: slide as u64,
        }
        .validate()
        .map_err(DataCellError::Wiring)?;
        if !size.is_multiple_of(slide) {
            return Err(DataCellError::Wiring(format!(
                "basic-window model requires size % slide == 0, got {size} % {slide}"
            )));
        }
        let column = input
            .schema()
            .index_of(column)
            .ok_or_else(|| DataCellError::Wiring(format!("unknown column {column}")))?;
        let agg_ty = func.output_type(input.schema().columns[column].ty);
        if output.user_width() != 1 || output.schema().columns[0].ty != agg_ty {
            return Err(DataCellError::Wiring(format!(
                "output basket must have exactly one {agg_ty} column"
            )));
        }
        let reader = input.register_reader(true);
        Ok(BasicWindowAgg {
            name: name.into(),
            input,
            reader,
            column,
            func,
            filter,
            size,
            slide,
            output,
            state: Mutex::new(BasicState {
                current: Accumulator::new(),
                filled: 0,
                ring: VecDeque::new(),
            }),
            windows_emitted: AtomicU64::new(0),
        })
    }

    /// Windows emitted so far.
    pub fn windows_emitted(&self) -> u64 {
        self.windows_emitted.load(Ordering::Relaxed)
    }

    /// Pop every complete window off the ring into `out` (delivery happens
    /// once per step so a rejected output defers the step losslessly).
    fn collect_if_full(&self, state: &mut BasicState, out: &mut Vec<Vec<Value>>) -> Result<()> {
        let bw_per_window = self.size / self.slide;
        while state.ring.len() >= bw_per_window {
            // Merge the summaries — O(size/slide) instead of O(size).
            let mut merged = Accumulator::new();
            for acc in state.ring.iter().take(bw_per_window) {
                merged.merge(acc);
            }
            let in_ty = self.input.schema().columns[self.column].ty;
            out.push(vec![merged.finish(self.func, in_ty)?]);
            state.ring.pop_front();
        }
        Ok(())
    }
}

impl Transition for BasicWindowAgg {
    fn name(&self) -> &str {
        &self.name
    }

    fn ready(&self) -> bool {
        self.input.pending_for(self.reader) > 0
    }

    fn step(&self, _tables: Option<&Catalog>) -> Result<StepOutcome> {
        // Snapshot without committing; fold into a *working copy* of the
        // summaries and deliver all completed windows in one non-waiting
        // append — only on success do the state and cursor commit, so a
        // full bounded output defers the step losslessly.
        let (incoming, end) = self.input.snapshot_for_reader(self.reader, usize::MAX);
        let tuples_in = incoming.len();
        if tuples_in == 0 {
            return Ok(StepOutcome::default());
        }
        // Qualification mask from the ordinary selection kernel.
        let qualifies: Option<Candidates> = match self.filter {
            None => None,
            Some(f) => {
                let bat = datacell_bat::Bat::new(incoming.columns[f.column].clone());
                Some(datacell_bat::select::select_range(
                    &bat,
                    Some(&datacell_bat::Value::Int(f.lo)),
                    Some(&datacell_bat::Value::Int(f.hi)),
                    true,
                    true,
                    false,
                    None,
                )?)
            }
        };
        let col = &incoming.columns[self.column];
        let mut state = self.state.lock();
        let mut work = state.clone();
        let mut out: Vec<Vec<Value>> = Vec::new();
        for i in 0..tuples_in {
            let qualified = qualifies.as_ref().is_none_or(|c| c.contains(i));
            if qualified {
                work.current.update(&col.get(i)?);
            } else {
                // Non-qualifying tuples still advance the count window.
                work.current.update(&datacell_bat::Value::Nil);
            }
            work.filled += 1;
            if work.filled == self.slide {
                let acc = std::mem::take(&mut work.current);
                work.ring.push_back(acc);
                work.filled = 0;
                self.collect_if_full(&mut work, &mut out)?;
            }
        }
        let produced = out.len();
        self.output.try_append_rows(&out)?;
        *state = work;
        drop(state);
        self.windows_emitted
            .fetch_add(produced as u64, Ordering::Relaxed);
        self.input.commit_reader(self.reader, end);
        Ok(StepOutcome {
            tuples_in,
            consumed: tuples_in,
            produced,
        })
    }

    fn subscribe(&self, signal: Arc<Signal>) {
        self.input.set_parent_signal(signal);
    }
}

/// Convenience: the output basket schema for a [`BasicWindowAgg`] of `func`
/// over a column of type `input_ty`.
pub fn agg_output_schema(func: AggFunc, input_ty: DataType) -> Schema {
    Schema::new(vec![("value".into(), func.output_type(input_ty))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataCell;
    use datacell_engine::Chunk;

    /// An input basket `w (v int)` and an output basket `wout (value int)`
    /// for a [`BasicWindowAgg`].
    fn setup() -> (Arc<Basket>, Arc<Basket>) {
        let int = |name: &str, col: &str| {
            Arc::new(Basket::new(name, Schema::new(vec![(col.into(), DataType::Int)])).unwrap())
        };
        (int("w", "v"), int("wout", "value"))
    }

    fn push(b: &Basket, vals: &[i64]) {
        let rows: Vec<Vec<Value>> = vals.iter().map(|&v| vec![Value::Int(v)]).collect();
        b.append_rows(&rows).unwrap();
    }

    fn out_values(b: &Basket) -> Vec<i64> {
        b.snapshot().columns[0].as_ints().unwrap().to_vec()
    }

    /// The re-evaluation route: a session with stream `w (v int)` and the
    /// one-source SQL window query `q` over it.
    fn sql_window(select: &str) -> (DataCell, Arc<Basket>) {
        let cell = DataCell::new();
        cell.execute("create basket w (v int)").unwrap();
        cell.execute(&format!("create continuous query q as {select}"))
            .unwrap();
        let input = cell.basket("w").unwrap();
        (cell, input)
    }

    /// `(v, ts)` rows with hand-stamped arrival timestamps.
    fn stamped(vals: &[(i64, i64)]) -> Chunk {
        Chunk::new(
            Schema::new(vec![
                ("v".into(), DataType::Int),
                ("ts".into(), DataType::Timestamp),
            ]),
            vec![
                datacell_bat::Column::from_ints(vals.iter().map(|x| x.0).collect()),
                datacell_bat::Column::from_timestamps(vals.iter().map(|x| x.1).collect()),
            ],
        )
        .unwrap()
    }

    /// Run `q` to quiescence and read its whole output.
    fn run(cell: &DataCell) -> Vec<i64> {
        cell.run_until_quiescent(1_000);
        out_values(&cell.query_output("q").unwrap())
    }

    fn windows_evaluated(cell: &DataCell) -> u64 {
        cell.window_join("q").unwrap().windows_evaluated()
    }

    #[test]
    fn reeval_tumbling_count_sums() {
        let (cell, input) = sql_window("select sum(w.v) as value from w [rows 3]");
        push(&input, &[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(run(&cell), vec![6, 15]);
        assert_eq!(windows_evaluated(&cell), 2);
        // Leftover tuple 7 buffered; next batch completes the window.
        push(&input, &[8, 9]);
        assert_eq!(run(&cell), vec![6, 15, 24]);
    }

    #[test]
    fn reeval_sliding_count_overlaps() {
        let (cell, input) = sql_window("select sum(w.v) as value from w [rows 4 slide 2]");
        push(&input, &[1, 2, 3, 4, 5, 6, 7, 8]);
        // Windows: [1..4]=10, [3..6]=18, [5..8]=26.
        assert_eq!(run(&cell), vec![10, 18, 26]);
    }

    #[test]
    fn reeval_window_with_predicate_and_groupby() {
        // Full query reuse: the window plan may be any SQL.
        let (cell, input) = sql_window(
            "select w.v % 2 as k, count(*) as n from w [rows 4] \
             where w.v > 0 group by w.v % 2 order by k",
        );
        push(&input, &[1, 2, 3, 4]);
        cell.run_until_quiescent(1_000);
        let snap = cell.query_output("q").unwrap().snapshot();
        assert_eq!(snap.columns[0].as_ints().unwrap(), &[0, 1]);
        assert_eq!(snap.columns[1].as_ints().unwrap(), &[2, 2]);
    }

    #[test]
    fn reeval_time_window() {
        let (cell, input) = sql_window("select sum(w.v) as value from w [range 1ms]");
        input
            .append_chunk(&stamped(&[(1, 0), (2, 500), (3, 999), (4, 1200)]))
            .unwrap();
        // Window [0, 1000) is complete (tuple at 1200 arrived): 1+2+3.
        assert_eq!(run(&cell), vec![6]);
        // Tuple at 1200 is buffered for the next window.
        input.append_chunk(&stamped(&[(5, 2100)])).unwrap();
        assert_eq!(run(&cell), vec![6, 4]);
    }

    #[test]
    fn basic_window_matches_reevaluation() {
        // The §3.1 correctness claim: incremental == re-evaluation.
        let (cell, input) = sql_window("select sum(w.v) as value from w [rows 6 slide 2]");
        let (inc_input, inc_out) = setup();
        let inc = BasicWindowAgg::new(
            "inc",
            Arc::clone(&inc_input),
            "v",
            AggFunc::Sum,
            None,
            6,
            2,
            Arc::clone(&inc_out),
        )
        .unwrap();

        let data: Vec<i64> = (0..40).map(|i| (i * 13) % 17).collect();
        push(&input, &data);
        push(&inc_input, &data);
        inc.step(None).unwrap();
        assert_eq!(run(&cell), out_values(&inc_out));
        assert!(inc.windows_emitted() > 0);
    }

    #[test]
    fn basic_window_with_filter_matches_reevaluation() {
        let (cell, input) = sql_window(
            "select sum(w.v) as value from w [rows 4 slide 2] where w.v between 3 and 12",
        );
        let (inc_input, inc_out) = setup();
        let inc = BasicWindowAgg::new(
            "inc",
            Arc::clone(&inc_input),
            "v",
            AggFunc::Sum,
            Some(RangeFilter {
                column: 0,
                lo: 3,
                hi: 12,
            }),
            4,
            2,
            Arc::clone(&inc_out),
        )
        .unwrap();
        let data: Vec<i64> = (0..30).map(|i| (i * 7) % 20).collect();
        push(&input, &data);
        push(&inc_input, &data);
        inc.step(None).unwrap();
        assert_eq!(run(&cell), out_values(&inc_out));
    }

    #[test]
    fn basic_window_min_max_work_via_summaries() {
        let (inc_input, inc_out) = setup();
        let inc = BasicWindowAgg::new(
            "mx",
            Arc::clone(&inc_input),
            "v",
            AggFunc::Max,
            None,
            4,
            2,
            Arc::clone(&inc_out),
        )
        .unwrap();
        push(&inc_input, &[5, 1, 9, 2, 3, 4, 10, 0]);
        inc.step(None).unwrap();
        // Windows: [5,1,9,2]→9, [9,2,3,4]→9, [3,4,10,0]→10.
        assert_eq!(out_values(&inc_out), vec![9, 9, 10]);
    }

    #[test]
    fn bounded_output_defers_window_step_losslessly() {
        use crate::basket::OverflowPolicy;
        let (inc_input, inc_out) = setup();
        let inc = BasicWindowAgg::new(
            "inc",
            Arc::clone(&inc_input),
            "v",
            AggFunc::Sum,
            None,
            2,
            2,
            Arc::clone(&inc_out),
        )
        .unwrap();
        // A resident tuple + cap 1 leaves no room for the step's output.
        inc_out.append_rows(&[vec![Value::Int(0)]]).unwrap();
        inc_out.set_capacity(Some(1), OverflowPolicy::Reject);
        push(&inc_input, &[1, 2, 3, 4]);
        assert!(inc.step(None).is_err(), "full output defers the step");
        assert!(inc.ready(), "input cursor did not move");
        assert_eq!(inc.windows_emitted(), 0, "state untouched");
        // Downstream drains: the retry reproduces the same windows.
        inc_out.clear();
        inc.step(None).unwrap();
        assert!(!inc.ready());
        assert_eq!(out_values(&inc_out), vec![3, 7]);
        assert_eq!(inc.windows_emitted(), 2);
    }

    #[test]
    fn flush_closes_idle_stream_window_at_horizon() {
        let (cell, input) = sql_window("select sum(w.v) as value from w [range 1ms]");
        // The stream goes quiescent mid-window: no tuple at/after 1000
        // ever arrives, so stepping can never close the window (the
        // online trigger is sound only because a later tuple on the same
        // stream bounds its timestamps).
        input
            .append_chunk(&stamped(&[(1, 0), (2, 400), (3, 900)]))
            .unwrap();
        assert_eq!(run(&cell), Vec::<i64>::new());
        assert_eq!(windows_evaluated(&cell), 0, "window must not close online");
        // The explicit close evaluates it at the horizon and drains.
        cell.flush_query("q").unwrap();
        assert_eq!(run(&cell), vec![6]);
        assert_eq!(windows_evaluated(&cell), 1);
        assert_eq!(cell.window_join("q").unwrap().buffered(), vec![0]);
        // Idempotent once drained.
        cell.flush_query("q").unwrap();
        assert_eq!(run(&cell), vec![6]);
        // The stream may resume afterwards; later windows keep working.
        input
            .append_chunk(&stamped(&[(7, 1500), (8, 2600)]))
            .unwrap();
        assert_eq!(run(&cell), vec![6, 7]);
    }

    #[test]
    fn invalid_specs_rejected() {
        let cell = DataCell::new();
        cell.execute("create basket w (v int)").unwrap();
        for clause in ["[rows 0]", "[rows 2 slide 3]", "[range 1ms slide 2ms]"] {
            assert!(
                cell.execute(&format!(
                    "create continuous query bad as select sum(w.v) as value from w {clause}"
                ))
                .is_err(),
                "{clause}"
            );
        }
        let (input, out) = setup();
        assert!(BasicWindowAgg::new(
            "bad",
            Arc::clone(&input),
            "v",
            AggFunc::Sum,
            None,
            5,
            2, // 5 % 2 != 0
            Arc::clone(&out),
        )
        .is_err());
        assert!(
            BasicWindowAgg::new("bad", input, "missing", AggFunc::Sum, None, 4, 2, out,).is_err()
        );
    }

    #[test]
    fn incremental_spreads_work_across_steps() {
        // Feeding slide-by-slide emits one window per step once warm.
        let (inc_input, inc_out) = setup();
        let inc = BasicWindowAgg::new(
            "s",
            Arc::clone(&inc_input),
            "v",
            AggFunc::Count { star: false },
            None,
            6,
            2,
            Arc::clone(&inc_out),
        )
        .unwrap();
        for chunk in [[1, 2], [3, 4], [5, 6], [7, 8]] {
            push(&inc_input, &chunk);
            inc.step(None).unwrap();
        }
        // Windows complete after 6 and 8 tuples → two emissions of count 6.
        assert_eq!(out_values(&inc_out), vec![6, 6]);
    }
}
