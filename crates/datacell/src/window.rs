//! Windowed query processing (§3.1) — *without* new window operators.
//!
//! "Following the DataCell approach, our goal is not to rebuild a new
//! special class of windowed operators. Instead, we study a scheme that
//! achieves window processing based on careful high level scheduling and
//! dynamic query plan rewriting." Both evaluators below are scheduler
//! transitions that buffer the stream in ordinary columns and invoke
//! ordinary relational plans/kernels:
//!
//! * [`ReEvalWindow`] — the re-evaluation route: when a window is complete,
//!   the factory's full (unchanged!) query plan runs over the whole window;
//!   the window then slides and expired tuples are dropped. O(window) work
//!   per slide.
//! * [`BasicWindowAgg`] — the incremental route following the basic-window
//!   model of Zhu & Shasha's StatStream (reference 25 of the paper): the window splits
//!   into `size/slide` *basic windows*; each keeps a summary
//!   ([`Accumulator`]) computed once by ordinary aggregation; a slide
//!   merges `size/slide` summaries instead of reprocessing `size` tuples.
//!   O(slide + size/slide) work per slide.
//!
//! Count-based and time-based windows are both supported; the trigger rule
//! matches §3.1: "for count-based windows all we need to do is to monitor
//! the number of tuples in baskets; for time-based windows the scheduler
//! needs to monitor the timestamp of incoming stream tuples."

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use datacell_bat::aggregate::{Accumulator, AggFunc};
use datacell_bat::candidates::Candidates;
use datacell_bat::types::{DataType, Value};
use datacell_engine::{execute, Catalog, Chunk};
use datacell_sql::physical::PhysicalPlan;
use datacell_sql::Schema;
use parking_lot::Mutex;

use crate::basket::{Basket, ReaderId, Signal};
use crate::catalog::{StepSource, StreamCatalog};
use crate::error::{DataCellError, Result};
use crate::factory::{FactoryOutput, StepOutcome};
use crate::scheduler::Transition;

/// Window shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Count-based sliding window: `size` tuples, advancing by `slide`.
    /// `slide == size` gives a tumbling window.
    Count {
        /// Window size in tuples.
        size: usize,
        /// Slide in tuples.
        slide: usize,
    },
    /// Time-based sliding window over the `ts` column, in microseconds.
    Time {
        /// Window span in µs.
        size_micros: i64,
        /// Slide in µs.
        slide_micros: i64,
    },
}

impl WindowSpec {
    fn validate(&self) -> Result<()> {
        let ok = match *self {
            WindowSpec::Count { size, slide } => size > 0 && slide > 0 && slide <= size,
            WindowSpec::Time {
                size_micros,
                slide_micros,
            } => size_micros > 0 && slide_micros > 0 && slide_micros <= size_micros,
        };
        if ok {
            Ok(())
        } else {
            Err(DataCellError::Wiring(format!(
                "invalid window spec {self:?}: size and slide must be positive, slide <= size"
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Re-evaluation
// ---------------------------------------------------------------------

struct ReEvalState {
    /// Buffered stream tuples (input basket schema, `ts` last).
    buffer: Chunk,
    /// Start of the current window (time-based only).
    window_start: Option<i64>,
}

/// Re-evaluation window processor (see module docs).
pub struct ReEvalWindow {
    name: String,
    input: Arc<Basket>,
    /// Registered reader on `input`: the evaluator consumes through the
    /// unified cursor discipline, so it can share the basket with other
    /// readers instead of destructively draining it.
    reader: ReaderId,
    plan: PhysicalPlan,
    spec: WindowSpec,
    output: FactoryOutput,
    state: Mutex<ReEvalState>,
    windows_evaluated: AtomicU64,
}

impl ReEvalWindow {
    /// Compile `sql` (a continuous query whose single basket expression
    /// consumes `input`) into a re-evaluation window processor. Each
    /// complete window is evaluated by the *unchanged* plan over the window
    /// contents.
    pub fn new(
        name: impl Into<String>,
        sql: &str,
        catalog: &StreamCatalog,
        input: Arc<Basket>,
        spec: WindowSpec,
        output: FactoryOutput,
    ) -> Result<ReEvalWindow> {
        spec.validate()?;
        let (plan, _) = datacell_sql::compile_query(sql, catalog)?;
        let consumed = plan.consumed_baskets();
        if consumed != vec![input.name().to_string()] {
            return Err(DataCellError::Wiring(format!(
                "window query must consume exactly [{}], consumes {consumed:?}",
                input.name()
            )));
        }
        let reader = input.register_reader(true);
        Ok(ReEvalWindow {
            name: name.into(),
            input,
            reader,
            plan,
            spec,
            output,
            state: Mutex::new(ReEvalState {
                buffer: Chunk::empty(Schema::default()),
                window_start: None,
            }),
            windows_evaluated: AtomicU64::new(0),
        })
    }

    /// Number of full window evaluations so far.
    pub fn windows_evaluated(&self) -> u64 {
        self.windows_evaluated.load(Ordering::Relaxed)
    }

    /// Run the unchanged plan over one complete window, returning its
    /// result rows (delivery happens once per step, after every window of
    /// the step has evaluated).
    fn evaluate_window(&self, window: &Chunk, tables: Option<&Catalog>) -> Result<Chunk> {
        let src = StepSource {
            snapshots: &[(self.input.name(), window)],
            tables,
        };
        Ok(execute(&self.plan, &src)?.chunk.into_owned())
    }

    /// Declare the input stream quiescent and close the remaining
    /// window(s) at the horizon, draining the buffer.
    ///
    /// Online, a time window only closes when a tuple at/after its end
    /// arrives *on this stream* — arrival order bounds the stream's own
    /// timestamps, nothing else does. A stream that goes quiescent
    /// therefore never closes its last window and the buffered tail is
    /// never evaluated. Deciding quiescence online would need a timeout
    /// oracle, so the close is explicit: `flush` evaluates every window
    /// holding buffered tuples as if the stream had ended. A tuple
    /// arriving afterwards below the flushed horizon is dropped — the
    /// caller owns that soundness trade (see `docs/windows.md`).
    ///
    /// Count-based windows close on arrival count and never stall, but
    /// for symmetry `flush` also evaluates their trailing partial window.
    /// Follows the step discipline: deliver first, commit only on success.
    pub fn flush(&self, tables: Option<&Catalog>) -> Result<StepOutcome> {
        let (incoming, end) = self.input.snapshot_for_reader(self.reader, usize::MAX);
        let tuples_in = incoming.len();
        let mut state = self.state.lock();
        let mut buffer = if state.buffer.schema.is_empty() {
            Chunk::empty(incoming.schema.clone())
        } else {
            state.buffer.clone()
        };
        buffer.append(&incoming)?;
        let mut window_start = state.window_start;

        let mut produced = 0;
        let mut windows_run = 0;
        let mut out: Option<Chunk> = None;
        match self.spec {
            WindowSpec::Count { size, slide } => {
                while !buffer.is_empty() {
                    let window = buffer.head(size.min(buffer.len()))?;
                    let result = self.evaluate_window(&window, tables)?;
                    produced += result.len();
                    windows_run += 1;
                    match &mut out {
                        None => out = Some(result),
                        Some(o) => o.append(&result)?,
                    }
                    let remaining = buffer.len();
                    buffer = buffer.gather(&Candidates::Dense(slide.min(remaining)..remaining))?;
                }
            }
            WindowSpec::Time {
                size_micros,
                slide_micros,
            } => {
                let ts_idx = buffer.schema.len() - 1;
                while !buffer.is_empty() {
                    let ts = buffer.columns[ts_idx].as_timestamps()?.to_vec();
                    let w_start = window_start.unwrap_or(ts[0]);
                    let w_end = w_start + size_micros;
                    let in_window: Vec<usize> = ts
                        .iter()
                        .enumerate()
                        .filter(|(_, &t)| t >= w_start && t < w_end)
                        .map(|(i, _)| i)
                        .collect();
                    if in_window.is_empty() {
                        // A gap: jump to the first window that can hold the
                        // oldest buffered tuple instead of grinding through
                        // gap/slide empty evaluations.
                        let first = ts[0];
                        let n = ((first - w_start - size_micros) / slide_micros + 1).max(1);
                        window_start = Some(w_start + n * slide_micros);
                        continue;
                    }
                    let window = buffer.gather(&Candidates::from_sorted_unchecked(in_window))?;
                    let result = self.evaluate_window(&window, tables)?;
                    produced += result.len();
                    windows_run += 1;
                    match &mut out {
                        None => out = Some(result),
                        Some(o) => o.append(&result)?,
                    }
                    let new_start = w_start + slide_micros;
                    window_start = Some(new_start);
                    let keep: Vec<usize> = ts
                        .iter()
                        .enumerate()
                        .filter(|(_, &t)| t >= new_start)
                        .map(|(i, _)| i)
                        .collect();
                    buffer = buffer.gather(&Candidates::from_sorted_unchecked(keep))?;
                }
            }
        }

        if let (Some(chunk), FactoryOutput::Basket(b)) = (&out, &self.output) {
            b.try_append_chunk(chunk)?;
        }
        state.buffer = buffer;
        state.window_start = window_start;
        drop(state);
        self.windows_evaluated
            .fetch_add(windows_run, Ordering::Relaxed);
        self.input.commit_reader(self.reader, end);
        Ok(StepOutcome {
            tuples_in,
            consumed: tuples_in,
            produced,
        })
    }
}

impl Transition for ReEvalWindow {
    fn name(&self) -> &str {
        &self.name
    }

    fn ready(&self) -> bool {
        self.input.pending_for(self.reader) > 0
    }

    fn step(&self, tables: Option<&Catalog>) -> Result<StepOutcome> {
        // Snapshot without committing: all window evaluation below runs on
        // a *working copy* of the buffer, and results are delivered in one
        // non-waiting append. Only on success do the working state and the
        // reader cursor commit — a full bounded output (Backpressure)
        // therefore defers the whole step losslessly.
        let (incoming, end) = self.input.snapshot_for_reader(self.reader, usize::MAX);
        let tuples_in = incoming.len();
        let mut state = self.state.lock();
        let mut buffer = if state.buffer.schema.is_empty() {
            Chunk::empty(incoming.schema.clone())
        } else {
            state.buffer.clone()
        };
        buffer.append(&incoming)?;
        let mut window_start = state.window_start;

        let mut produced = 0;
        let mut windows_run = 0;
        let mut out: Option<Chunk> = None;
        match self.spec {
            WindowSpec::Count { size, slide } => {
                while buffer.len() >= size {
                    let window = buffer.head(size)?;
                    let result = self.evaluate_window(&window, tables)?;
                    produced += result.len();
                    windows_run += 1;
                    match &mut out {
                        None => out = Some(result),
                        Some(o) => o.append(&result)?,
                    }
                    // Slide: drop the oldest `slide` tuples.
                    let remaining = buffer.len();
                    buffer = buffer.gather(&Candidates::Dense(slide..remaining))?;
                }
            }
            WindowSpec::Time {
                size_micros,
                slide_micros,
            } => {
                let ts_idx = buffer.schema.len() - 1;
                loop {
                    if buffer.is_empty() {
                        break;
                    }
                    let ts = buffer.columns[ts_idx].as_timestamps()?.to_vec();
                    let w_start = match window_start {
                        Some(s) => s,
                        None => {
                            let s = ts[0];
                            window_start = Some(s);
                            s
                        }
                    };
                    let w_end = w_start + size_micros;
                    // The window is complete once a tuple at/after its end
                    // has arrived (arrival-ordered ts).
                    if ts.last().copied().unwrap_or(i64::MIN) < w_end {
                        break;
                    }
                    let in_window: Vec<usize> = ts
                        .iter()
                        .enumerate()
                        .filter(|(_, &t)| t >= w_start && t < w_end)
                        .map(|(i, _)| i)
                        .collect();
                    let window = buffer.gather(&Candidates::from_sorted_unchecked(in_window))?;
                    let result = self.evaluate_window(&window, tables)?;
                    produced += result.len();
                    windows_run += 1;
                    match &mut out {
                        None => out = Some(result),
                        Some(o) => o.append(&result)?,
                    }
                    // Slide and expire.
                    let new_start = w_start + slide_micros;
                    window_start = Some(new_start);
                    let keep: Vec<usize> = ts
                        .iter()
                        .enumerate()
                        .filter(|(_, &t)| t >= new_start)
                        .map(|(i, _)| i)
                        .collect();
                    buffer = buffer.gather(&Candidates::from_sorted_unchecked(keep))?;
                }
            }
        }

        // Deliver every window's results in one batch; only then commit.
        if let (Some(chunk), FactoryOutput::Basket(b)) = (&out, &self.output) {
            b.try_append_chunk(chunk)?;
        }
        state.buffer = buffer;
        state.window_start = window_start;
        drop(state);
        self.windows_evaluated
            .fetch_add(windows_run, Ordering::Relaxed);
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
        WindowSpec::Count { size, slide }.validate()?;
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
    use datacell_bat::types::Value;
    use datacell_sql::Schema;

    fn setup() -> (StreamCatalog, Arc<Basket>, Arc<Basket>) {
        let mut cat = StreamCatalog::new();
        let input = cat
            .create_basket("w", Schema::new(vec![("v".into(), DataType::Int)]))
            .unwrap();
        let out = cat
            .create_basket("wout", Schema::new(vec![("value".into(), DataType::Int)]))
            .unwrap();
        (cat, input, out)
    }

    fn push(b: &Basket, vals: &[i64]) {
        let rows: Vec<Vec<Value>> = vals.iter().map(|&v| vec![Value::Int(v)]).collect();
        b.append_rows(&rows).unwrap();
    }

    fn out_values(b: &Basket) -> Vec<i64> {
        b.snapshot().columns[0].as_ints().unwrap().to_vec()
    }

    #[test]
    fn reeval_tumbling_count_sums() {
        let (cat, input, out) = setup();
        let w = ReEvalWindow::new(
            "sumw",
            "select sum(s.v) as value from [select * from w] as s",
            &cat,
            Arc::clone(&input),
            WindowSpec::Count { size: 3, slide: 3 },
            FactoryOutput::Basket(Arc::clone(&out)),
        )
        .unwrap();
        push(&input, &[1, 2, 3, 4, 5, 6, 7]);
        assert!(w.ready());
        let o = w.step(None).unwrap();
        assert_eq!(o.tuples_in, 7);
        assert_eq!(out_values(&out), vec![6, 15]);
        assert_eq!(w.windows_evaluated(), 2);
        // Leftover tuple 7 buffered; next batch completes the window.
        push(&input, &[8, 9]);
        w.step(None).unwrap();
        assert_eq!(out_values(&out), vec![6, 15, 24]);
    }

    #[test]
    fn reeval_sliding_count_overlaps() {
        let (cat, input, out) = setup();
        let w = ReEvalWindow::new(
            "sumw",
            "select sum(s.v) as value from [select * from w] as s",
            &cat,
            Arc::clone(&input),
            WindowSpec::Count { size: 4, slide: 2 },
            FactoryOutput::Basket(Arc::clone(&out)),
        )
        .unwrap();
        push(&input, &[1, 2, 3, 4, 5, 6, 7, 8]);
        w.step(None).unwrap();
        // Windows: [1..4]=10, [3..6]=18, [5..8]=26.
        assert_eq!(out_values(&out), vec![10, 18, 26]);
    }

    #[test]
    fn reeval_window_with_predicate_and_groupby() {
        // Full query reuse: the window plan may be any SQL.
        let (cat, input, out) = setup();
        let _ = out;
        let mut cat = cat;
        let out2 = cat
            .create_basket(
                "gout",
                Schema::new(vec![
                    ("k".into(), DataType::Int),
                    ("n".into(), DataType::Int),
                ]),
            )
            .unwrap();
        let w = ReEvalWindow::new(
            "grp",
            "select s.v % 2 as k, count(*) as n from [select * from w] as s \
             where s.v > 0 group by s.v % 2 order by k",
            &cat,
            Arc::clone(&input),
            WindowSpec::Count { size: 4, slide: 4 },
            FactoryOutput::Basket(Arc::clone(&out2)),
        )
        .unwrap();
        push(&input, &[1, 2, 3, 4]);
        w.step(None).unwrap();
        let snap = out2.snapshot();
        assert_eq!(snap.columns[0].as_ints().unwrap(), &[0, 1]);
        assert_eq!(snap.columns[1].as_ints().unwrap(), &[2, 2]);
    }

    #[test]
    fn reeval_time_window() {
        let (cat, input, out) = setup();
        let w = ReEvalWindow::new(
            "sumw",
            "select sum(s.v) as value from [select * from w] as s",
            &cat,
            Arc::clone(&input),
            WindowSpec::Time {
                size_micros: 1000,
                slide_micros: 1000,
            },
            FactoryOutput::Basket(Arc::clone(&out)),
        )
        .unwrap();
        // Hand-stamp timestamps by appending a chunk with a ts column.
        let mk = |vals: &[(i64, i64)]| {
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
        };
        input
            .append_chunk(&mk(&[(1, 0), (2, 500), (3, 999), (4, 1200)]))
            .unwrap();
        w.step(None).unwrap();
        // Window [0, 1000) is complete (tuple at 1200 arrived): 1+2+3.
        assert_eq!(out_values(&out), vec![6]);
        // Tuple at 1200 is buffered for the next window.
        input.append_chunk(&mk(&[(5, 2100)])).unwrap();
        w.step(None).unwrap();
        assert_eq!(out_values(&out), vec![6, 4]);
    }

    #[test]
    fn basic_window_matches_reevaluation() {
        // The §3.1 correctness claim: incremental == re-evaluation.
        let (cat, input, out) = setup();
        let reeval_out = out;
        let mut cat = cat;
        let inc_input = cat
            .create_basket("w2", Schema::new(vec![("v".into(), DataType::Int)]))
            .unwrap();
        let inc_out = cat
            .create_basket("iout", Schema::new(vec![("value".into(), DataType::Int)]))
            .unwrap();

        let reeval = ReEvalWindow::new(
            "re",
            "select sum(s.v) as value from [select * from w] as s",
            &cat,
            Arc::clone(&input),
            WindowSpec::Count { size: 6, slide: 2 },
            FactoryOutput::Basket(Arc::clone(&reeval_out)),
        )
        .unwrap();
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
        reeval.step(None).unwrap();
        inc.step(None).unwrap();
        assert_eq!(out_values(&reeval_out), out_values(&inc_out));
        assert!(inc.windows_emitted() > 0);
    }

    #[test]
    fn basic_window_with_filter_matches_reevaluation() {
        let (cat, input, reeval_out) = setup();
        let mut cat = cat;
        let inc_input = cat
            .create_basket("w2", Schema::new(vec![("v".into(), DataType::Int)]))
            .unwrap();
        let inc_out = cat
            .create_basket("iout", Schema::new(vec![("value".into(), DataType::Int)]))
            .unwrap();
        let reeval = ReEvalWindow::new(
            "re",
            "select sum(s.v) as value from [select * from w] as s where s.v between 3 and 12",
            &cat,
            Arc::clone(&input),
            WindowSpec::Count { size: 4, slide: 2 },
            FactoryOutput::Basket(Arc::clone(&reeval_out)),
        )
        .unwrap();
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
        reeval.step(None).unwrap();
        inc.step(None).unwrap();
        assert_eq!(out_values(&reeval_out), out_values(&inc_out));
    }

    #[test]
    fn basic_window_min_max_work_via_summaries() {
        let (cat, input, _) = setup();
        let mut cat = cat;
        let _ = input;
        let inc_input = cat
            .create_basket("w3", Schema::new(vec![("v".into(), DataType::Int)]))
            .unwrap();
        let inc_out = cat
            .create_basket("mout", Schema::new(vec![("value".into(), DataType::Int)]))
            .unwrap();
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
        let (cat, input, _) = setup();
        let mut cat = cat;
        let _ = input;
        let inc_input = cat
            .create_basket("wb", Schema::new(vec![("v".into(), DataType::Int)]))
            .unwrap();
        let inc_out = cat
            .create_basket("bout", Schema::new(vec![("value".into(), DataType::Int)]))
            .unwrap();
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
        let (cat, input, out) = setup();
        let w = ReEvalWindow::new(
            "sumw",
            "select sum(s.v) as value from [select * from w] as s",
            &cat,
            Arc::clone(&input),
            WindowSpec::Time {
                size_micros: 1000,
                slide_micros: 1000,
            },
            FactoryOutput::Basket(Arc::clone(&out)),
        )
        .unwrap();
        let mk = |vals: &[(i64, i64)]| {
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
        };
        // The stream goes quiescent mid-window: no tuple at/after 1000
        // ever arrives, so stepping can never close the window (the
        // online trigger is sound only because a later tuple on the same
        // stream bounds its timestamps).
        input
            .append_chunk(&mk(&[(1, 0), (2, 400), (3, 900)]))
            .unwrap();
        w.step(None).unwrap();
        assert_eq!(w.windows_evaluated(), 0, "window must not close online");
        // The explicit close evaluates it at the horizon and drains.
        w.flush(None).unwrap();
        assert_eq!(out_values(&out), vec![6]);
        assert_eq!(w.windows_evaluated(), 1);
        assert!(!w.ready());
        // Idempotent once drained.
        w.flush(None).unwrap();
        assert_eq!(out_values(&out), vec![6]);
        // The stream may resume afterwards; later windows keep working.
        input.append_chunk(&mk(&[(7, 1500), (8, 2600)])).unwrap();
        w.step(None).unwrap();
        assert_eq!(out_values(&out), vec![6, 7]);
    }

    #[test]
    fn invalid_specs_rejected() {
        let (cat, input, out) = setup();
        assert!(ReEvalWindow::new(
            "bad",
            "select sum(s.v) as value from [select * from w] as s",
            &cat,
            Arc::clone(&input),
            WindowSpec::Count { size: 0, slide: 0 },
            FactoryOutput::Discard,
        )
        .is_err());
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
        let (cat, input, _) = setup();
        let mut cat = cat;
        let _ = (cat.basket_names(), input);
        let inc_input = cat
            .create_basket("w4", Schema::new(vec![("v".into(), DataType::Int)]))
            .unwrap();
        let inc_out = cat
            .create_basket("sout", Schema::new(vec![("value".into(), DataType::Int)]))
            .unwrap();
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
