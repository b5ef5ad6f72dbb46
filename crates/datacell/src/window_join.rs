//! Cross-stream windowed joins — per-source window specs, ordinary kernels.
//!
//! The DataCell thesis (§3.1) extends to joins unchanged: a windowed join
//! needs *no* new streaming operator. [`WindowJoin`] is a scheduler
//! transition that buffers each input stream in ordinary columns behind a
//! registered reader cursor, pairs up the per-source windows in lockstep,
//! and evaluates each pairing by handing the window chunks to the
//! *unchanged* compiled plan — an equality between two windowed sources
//! plans as a hash join, so every pairing runs on the `bat` join kernel
//! the one-shot path uses.
//!
//! Pairing semantics: evaluation `k` joins window `k` of every source,
//! where window `k` of a source with spec `(size, slide)` is
//!
//! * count-based: arrival positions `[k·slide, k·slide + size)`;
//! * time-based: `ts ∈ [t0 + k·slide, t0 + k·slide + size)` with `t0` the
//!   earliest timestamp across all time-windowed sources (a common anchor,
//!   so windows of equal specs align in wall-time).
//!
//! Evaluation `k` fires once window `k` is *complete on every source*:
//! count windows close when enough tuples arrived, time windows close when
//! a tuple at/after the window end arrives on that same source (per-source
//! closure — arrival order bounds a source's own timestamps, never its
//! partner's, so closing a window on a partner's horizon would be
//! unsound). After evaluating, each source evicts below the start of its
//! own next window — the watermark is the minimum across sources only in
//! the sense that nothing is evicted until the joint evaluation passed it.
//!
//! A quiescent source therefore stalls the join (its last window never
//! sees a closing tuple) and its partners' buffers hold state for windows
//! that cannot fire. [`WindowJoin::flush`] is the explicit close: it
//! declares the inputs quiescent and evaluates every remaining window at
//! each source's horizon (last-seen timestamp), draining the buffers.
//! Deciding quiescence *online* would require a timeout oracle; a tuple
//! arriving after a flushed window is silently dropped, which is exactly
//! the soundness gap the explicit call makes the caller own.
//!
//! **Each window is evaluated once.** A step moves a source's pending
//! tuples into its private buffer (committing the reader cursor) only while
//! that source's next window is still open, so a buffer never holds more
//! than one ingest plus one window, and a full buffer leaves the rest in
//! the input basket, where backpressure reaches the producer. The step then
//! evaluates complete windows in order while their results fit the
//! output's free room, delivers that prefix in one non-waiting append and
//! evicts once. The first window that does not fit is evaluated but its
//! result is *held*, to be delivered first by a later step; the join is not
//! [`Transition::ready`] while a bounded output has no room for it, so a
//! full output costs no work and nothing is ever computed twice.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use datacell_bat::candidates::Candidates;
use datacell_engine::{execute, Catalog, Chunk};
use datacell_sql::ast::WindowSpec;
use datacell_sql::physical::PhysicalPlan;
use parking_lot::Mutex;

use crate::basket::{AppendRoom, Basket, ReaderId, Signal};
use crate::catalog::StepSource;
use crate::error::{DataCellError, Result};
use crate::factory::{FactoryOutput, StepOutcome};
use crate::scheduler::Transition;

/// One input stream of the join: its basket, the transition's reader
/// cursor on it, and the source's own window spec.
struct Side {
    basket: Arc<Basket>,
    reader: ReaderId,
    spec: WindowSpec,
}

/// Mutable per-side buffering state.
struct SideState {
    /// Buffered tuples (full basket schema, `ts` last).
    buffer: Chunk,
    /// Total tuples ever ingested on this side.
    arrived: u64,
    /// Absolute arrival index of `buffer[0]` (tuples evicted so far).
    evicted: u64,
    /// Max timestamp seen (the side's closing horizon).
    horizon: Option<i64>,
    /// First timestamp seen (anchor candidate).
    first_ts: Option<i64>,
}

struct JoinState {
    sides: Vec<SideState>,
    /// Next window index to evaluate (shared across sides — lockstep).
    next_eval: u64,
    /// Common `t0` for time windows: min first-ts across time-windowed
    /// sides, settled once every time side has seen a tuple.
    anchor: Option<i64>,
    /// Results of evaluated windows the output had no room for, in window
    /// order; delivered, whole, before anything else.
    held: Option<Chunk>,
}

/// What the last step left for [`Transition::ready`] to read without
/// taking the state lock. The flags publish no other data (a step re-reads
/// everything under the lock), so they are `Relaxed`; the scheduler's
/// signal mutex orders a step's stores before the pass it wakes.
struct Readiness {
    /// Per side: its next window is still open, so the side takes input.
    open: Vec<AtomicBool>,
    /// The next window is complete on every side.
    window: AtomicBool,
    /// Rows of held results (0 = none).
    held: AtomicUsize,
}

/// Cross-stream windowed join transition (see module docs).
pub struct WindowJoin {
    name: String,
    plan: PhysicalPlan,
    output: FactoryOutput,
    sides: Vec<Side>,
    state: Mutex<JoinState>,
    readiness: Readiness,
    windows_evaluated: AtomicU64,
    detached: AtomicBool,
}

impl WindowJoin {
    /// Wire a compiled plan whose scans carry window clauses to its input
    /// baskets. Every consumed basket must be windowed (mixing `[RANGE ..]`
    /// sources with plain basket expressions in one query is rejected), and
    /// each basket may appear once — a windowed self-join over one basket
    /// would need two cursors on one stream and is not supported.
    pub fn from_plan(
        name: impl Into<String>,
        plan: PhysicalPlan,
        catalog: &crate::catalog::StreamCatalog,
        output: FactoryOutput,
    ) -> Result<WindowJoin> {
        let windowed = plan.windowed_scans();
        if windowed.is_empty() {
            return Err(DataCellError::Wiring(
                "plan has no windowed scans; use a Factory".into(),
            ));
        }
        let mut names: Vec<&str> = windowed.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err(DataCellError::Wiring(
                "windowed self-joins over one basket are not supported".into(),
            ));
        }
        let mut consumed = plan.consumed_baskets();
        consumed.sort_unstable();
        if consumed != names.iter().map(|s| s.to_string()).collect::<Vec<_>>() {
            return Err(DataCellError::Wiring(format!(
                "every stream source of a windowed query must carry a window \
                 clause: windowed {names:?}, consumed {consumed:?}"
            )));
        }
        // Validate every side before registering any reader: a reader
        // registered on an early side and then leaked by a later error
        // would pin that basket's trim watermark forever (Side has no Drop;
        // detach() only exists on a constructed WindowJoin).
        let mut resolved = Vec::with_capacity(windowed.len());
        for (basket_name, spec) in &windowed {
            let basket = catalog.basket(basket_name)?;
            spec.validate().map_err(DataCellError::Wiring)?;
            resolved.push((basket, *spec));
        }
        let mut sides = Vec::with_capacity(resolved.len());
        let mut states = Vec::with_capacity(resolved.len());
        for (basket, spec) in resolved {
            let reader = basket.register_reader(true);
            states.push(SideState {
                buffer: Chunk::empty(basket.schema().clone()),
                arrived: 0,
                evicted: 0,
                horizon: None,
                first_ts: None,
            });
            sides.push(Side {
                basket,
                reader,
                spec,
            });
        }
        let readiness = Readiness {
            open: sides.iter().map(|_| AtomicBool::new(true)).collect(),
            window: AtomicBool::new(false),
            held: AtomicUsize::new(0),
        };
        Ok(WindowJoin {
            name: name.into(),
            plan,
            output,
            sides,
            state: Mutex::new(JoinState {
                sides: states,
                next_eval: 0,
                anchor: None,
                held: None,
            }),
            readiness,
            windows_evaluated: AtomicU64::new(0),
            detached: AtomicBool::new(false),
        })
    }

    /// Number of plan executions so far — one per evaluated window,
    /// whether its result was delivered or is still held.
    pub fn windows_evaluated(&self) -> u64 {
        self.windows_evaluated.load(Ordering::Relaxed)
    }

    /// Tuples buffered per input side, in [`WindowJoin::input_names`]
    /// order.
    pub fn buffered(&self) -> Vec<usize> {
        self.state
            .lock()
            .sides
            .iter()
            .map(|st| st.buffer.len())
            .collect()
    }

    /// Stored tables the compiled plan scans; the caller supplies their
    /// contents at step/flush time.
    pub fn scanned_tables(&self) -> Vec<String> {
        self.plan.scanned_tables()
    }

    /// Where the evaluated windows' results go.
    pub fn output(&self) -> &FactoryOutput {
        &self.output
    }

    /// Input basket names, in plan walk order.
    pub fn input_names(&self) -> Vec<String> {
        self.sides
            .iter()
            .map(|s| s.basket.name().to_string())
            .collect()
    }

    /// Unregister the reader cursors so the input baskets stop retaining
    /// tuples for this join. Idempotent; called on drop and on
    /// `DROP CONTINUOUS QUERY`.
    pub fn detach(&self) {
        if self.detached.swap(true, Ordering::AcqRel) {
            return;
        }
        for side in &self.sides {
            side.basket.unregister_reader(side.reader);
        }
    }

    /// Declare the inputs quiescent and close every remaining window at
    /// each source's horizon, draining the buffers (see module docs for the
    /// soundness contract). Pending uncommitted tuples are ingested first,
    /// so a flush is a normal step with completeness waived. Results the
    /// output has no room for are held and delivered by later steps.
    pub fn flush(&self, tables: Option<&Catalog>) -> Result<StepOutcome> {
        self.step_inner(tables, usize::MAX, true)
    }

    /// Is window `k` complete on side `i` given its buffered state?
    fn complete(side: &Side, st: &SideState, anchor: Option<i64>, k: u64) -> bool {
        match side.spec {
            WindowSpec::Count { size, slide } => st.arrived >= k * slide + size,
            WindowSpec::Time {
                size_micros,
                slide_micros,
            } => match (anchor, st.horizon) {
                (Some(t0), Some(h)) => h >= t0 + k as i64 * slide_micros + size_micros,
                _ => false,
            },
        }
    }

    /// Does side `i` buffer any tuple at or after the start of window `k`?
    /// (A time side without an anchor has never buffered one.)
    fn reaches(side: &Side, st: &SideState, anchor: Option<i64>, k: u64) -> Result<bool> {
        Ok(match side.spec {
            WindowSpec::Count { slide, .. } => st.arrived > st.evicted.max(k * slide),
            WindowSpec::Time { slide_micros, .. } => match anchor {
                Some(t0) => {
                    let start = t0 + k as i64 * slide_micros;
                    let ts_idx = st.buffer.schema.len() - 1;
                    st.buffer.columns[ts_idx]
                        .as_timestamps()?
                        .iter()
                        .any(|&t| t >= start)
                }
                None => false,
            },
        })
    }

    /// Gather side `i`'s window `k` out of its buffer.
    fn window_chunk(side: &Side, st: &SideState, anchor: Option<i64>, k: u64) -> Result<Chunk> {
        match side.spec {
            WindowSpec::Count { size, slide } => {
                let abs_lo = k * slide;
                let abs_hi = abs_lo + size;
                let lo = abs_lo.saturating_sub(st.evicted) as usize;
                let hi = (abs_hi.saturating_sub(st.evicted) as usize).min(st.buffer.len());
                if lo >= hi {
                    return Ok(Chunk::empty(st.buffer.schema.clone()));
                }
                Ok(st.buffer.gather(&Candidates::Dense(lo..hi))?)
            }
            WindowSpec::Time {
                size_micros,
                slide_micros,
            } => {
                let Some(t0) = anchor else {
                    return Ok(Chunk::empty(st.buffer.schema.clone()));
                };
                let w_start = t0 + k as i64 * slide_micros;
                let w_end = w_start + size_micros;
                let ts_idx = st.buffer.schema.len() - 1;
                let ts = st.buffer.columns[ts_idx].as_timestamps()?;
                let in_window: Vec<usize> = ts
                    .iter()
                    .enumerate()
                    .filter(|(_, &t)| t >= w_start && t < w_end)
                    .map(|(i, _)| i)
                    .collect();
                Ok(st
                    .buffer
                    .gather(&Candidates::from_sorted_unchecked(in_window))?)
            }
        }
    }

    /// Evict side `i` below the start of window `k`: one slice of the
    /// buffer per step, however many windows the step evaluated.
    fn evict(side: &Side, st: &mut SideState, anchor: Option<i64>, k: u64) -> Result<()> {
        match side.spec {
            WindowSpec::Count { slide, .. } => {
                let target = k * slide;
                if target > st.evicted {
                    let drop = ((target - st.evicted) as usize).min(st.buffer.len());
                    for c in &mut st.buffer.columns {
                        c.drop_head(drop);
                    }
                    st.evicted += drop as u64;
                    // A partial flush window may drain the buffer short of
                    // the target; account the skipped positions anyway so
                    // indices stay aligned if the stream resumes.
                    st.evicted = st.evicted.max(target.min(st.arrived));
                }
            }
            WindowSpec::Time { slide_micros, .. } => {
                let Some(t0) = anchor else { return Ok(()) };
                let start = t0 + k as i64 * slide_micros;
                let ts_idx = st.buffer.schema.len() - 1;
                let ts = st.buffer.columns[ts_idx].as_timestamps()?;
                let keep: Vec<usize> = (0..ts.len()).filter(|&i| ts[i] >= start).collect();
                st.evicted += (ts.len() - keep.len()) as u64;
                st.buffer = st.buffer.gather(&Candidates::from_sorted_unchecked(keep))?;
            }
        }
        Ok(())
    }

    /// Move up to `budget` of side `i`'s pending tuples into its buffer
    /// and commit its reader cursor past them. Returns how many moved.
    fn ingest(side: &Side, st: &mut SideState, budget: usize) -> Result<usize> {
        let (incoming, end) = side.basket.snapshot_for_reader(side.reader, budget);
        let n = incoming.len();
        if n > 0 {
            let ts = incoming.columns[incoming.schema.len() - 1].as_timestamps()?;
            let last = *ts.last().expect("non-empty");
            st.horizon = Some(st.horizon.map_or(last, |h| h.max(last)));
            st.first_ts.get_or_insert(ts[0]);
            st.arrived += n as u64;
            if st.buffer.is_empty() {
                st.buffer = incoming;
            } else {
                st.buffer.append(&incoming)?;
            }
        }
        side.basket.commit_reader(side.reader, end);
        Ok(n)
    }

    /// The output's occupancy (`None`: it never refuses a batch).
    fn output_room(&self) -> Option<AppendRoom> {
        match &self.output {
            FactoryOutput::Basket(b) => b.append_room(),
            FactoryOutput::Discard => None,
        }
    }

    /// Store what [`Transition::ready`] reads.
    fn publish(&self, state: &JoinState) {
        let k = state.next_eval;
        let mut all = true;
        for ((side, st), open) in self
            .sides
            .iter()
            .zip(&state.sides)
            .zip(&self.readiness.open)
        {
            let complete = Self::complete(side, st, state.anchor, k);
            open.store(!complete, Ordering::Relaxed);
            all &= complete;
        }
        self.readiness.window.store(all, Ordering::Relaxed);
        self.readiness
            .held
            .store(state.held.as_ref().map_or(0, Chunk::len), Ordering::Relaxed);
    }

    /// One step: ingest the sides whose next window is open (at most
    /// `budget` tuples each), evaluate complete windows in order, deliver
    /// the prefix whose results fit the output and hold the first one that
    /// does not, evict once. `closing` (flush) ingests everything, waives
    /// completeness and evaluates every remaining window, holding whatever
    /// does not fit. The state lock is held throughout: flush arrives from
    /// the session thread outside the scheduler's conflict-key
    /// serialization, and two racing ingests would buffer the same tuples
    /// twice.
    fn step_inner(
        &self,
        tables: Option<&Catalog>,
        budget: usize,
        closing: bool,
    ) -> Result<StepOutcome> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let room = self.output_room();
        let admits = |taken: usize, rows: usize| room.is_none_or(|r| r.admits(taken, rows));

        // Held results go out first and whole; until they fit, nothing
        // else is evaluated (a flush still closes every window behind
        // them).
        let held_rows = state.held.as_ref().map_or(0, Chunk::len);
        let held_fits = admits(0, held_rows);
        if !held_fits && !closing {
            // Only a refusing output basket leaves results held.
            let (Some(r), FactoryOutput::Basket(b)) = (room, &self.output) else {
                unreachable!("held rows that do not fit imply a bounded output basket");
            };
            return Err(DataCellError::Backpressure {
                basket: b.name().to_string(),
                resident: r.resident,
                capacity: r.capacity,
            });
        }
        let mut blocked = !held_fits;
        let mut taken = if held_fits { held_rows } else { 0 };

        let mut tuples_in = 0;
        for (side, st) in self.sides.iter().zip(state.sides.iter_mut()) {
            if closing || !Self::complete(side, st, state.anchor, state.next_eval) {
                tuples_in += Self::ingest(side, st, budget)?;
            }
        }

        self.settle_anchor(state, closing);
        let anchor = state.anchor;

        // Evaluate windows: `fresh` is delivered now, behind the held
        // results; `late` joins the held results. A failing window stops
        // the loop, and the windows before it are still committed.
        let schema = self.plan.schema();
        let mut fresh = Chunk::empty(schema.clone());
        let mut late = Chunk::empty(schema.clone());
        let mut failure = None;
        let mut k = state.next_eval;
        loop {
            let all_complete = self
                .sides
                .iter()
                .zip(&state.sides)
                .all(|(s, st)| Self::complete(s, st, anchor, k));
            if !all_complete {
                if !closing {
                    break;
                }
                // Flush mode: keep closing windows at the horizons until
                // no buffered tuple reaches window k.
                let mut reached = false;
                for (s, st) in self.sides.iter().zip(&state.sides) {
                    reached |= Self::reaches(s, st, anchor, k)?;
                }
                if !reached {
                    break;
                }
            }
            if blocked && !closing {
                break;
            }
            let windows = self
                .sides
                .iter()
                .zip(&state.sides)
                .map(|(s, st)| Self::window_chunk(s, st, anchor, k))
                .collect::<Result<Vec<Chunk>>>()?;
            // Flush mode sweeps window indices toward the horizons; skip
            // the plan for windows every source left empty (a ts gap) —
            // they cannot contribute join rows.
            if closing && windows.iter().all(Chunk::is_empty) {
                k += 1;
                continue;
            }
            let lent: Vec<(&str, &Chunk)> = self
                .sides
                .iter()
                .zip(&windows)
                .map(|(s, w)| (s.basket.name(), w))
                .collect();
            let src = StepSource {
                snapshots: &lent,
                tables,
            };
            let result = match execute(&self.plan, &src) {
                Ok(outcome) => outcome.chunk,
                Err(e) => {
                    failure = Some(DataCellError::from(e));
                    break;
                }
            };
            self.windows_evaluated.fetch_add(1, Ordering::Relaxed);
            if !blocked && (result.is_empty() || admits(taken, result.len())) {
                taken += result.len();
                fresh.append(&result)?;
            } else {
                blocked = true;
                late.append(&result)?;
            }
            k += 1;
        }

        if k > state.next_eval {
            for (s, st) in self.sides.iter().zip(state.sides.iter_mut()) {
                Self::evict(s, st, anchor, k)?;
            }
            state.next_eval = k;
        }
        let delivered = self.deliver(state, held_fits, fresh, late);
        self.publish(state);
        let produced = delivered?;
        match failure {
            Some(e) => Err(e),
            None => Ok(StepOutcome {
                tuples_in,
                consumed: tuples_in,
                produced,
            }),
        }
    }

    /// Settle the time anchor once every time-windowed side has data.
    /// Flush declares the inputs quiescent, so an empty time side can no
    /// longer contribute an earlier first-ts: anchor on whichever time
    /// sides do have data, or the sides that did buffer tuples could never
    /// drain (their windows would stay unanchored forever).
    fn settle_anchor(&self, state: &mut JoinState, closing: bool) {
        if state.anchor.is_some() {
            return;
        }
        let time_firsts: Vec<Option<i64>> = self
            .sides
            .iter()
            .zip(&state.sides)
            .filter(|(s, _)| matches!(s.spec, WindowSpec::Time { .. }))
            .map(|(_, st)| st.first_ts)
            .collect();
        let settled = if closing {
            time_firsts.iter().any(|f| f.is_some())
        } else {
            !time_firsts.is_empty() && time_firsts.iter().all(|f| f.is_some())
        };
        if settled {
            state.anchor = time_firsts.into_iter().flatten().min();
        }
    }

    /// Append the held results (when `held_fits`) and then `fresh` to the
    /// output in one non-waiting append, and add `late` to the held
    /// results. Returns the rows delivered.
    fn deliver(
        &self,
        state: &mut JoinState,
        held_fits: bool,
        fresh: Chunk,
        late: Chunk,
    ) -> Result<usize> {
        let mut deliver = match state.held.take() {
            Some(mut held) if held_fits => {
                held.append(&fresh)?;
                held
            }
            other => {
                state.held = other;
                fresh
            }
        };
        if !late.is_empty() {
            state.held = Some(match state.held.take() {
                Some(mut held) => {
                    held.append(&late)?;
                    held
                }
                None => late,
            });
        }
        if let (false, FactoryOutput::Basket(b)) = (deliver.is_empty(), &self.output) {
            // Another producer on the output can race the room check:
            // then everything goes back in front of the held results.
            if let Err(e) = b.try_append_chunk(&deliver) {
                if let Some(held) = state.held.take() {
                    deliver.append(&held)?;
                }
                state.held = Some(deliver);
                return Err(e);
            }
        }
        Ok(deliver.len())
    }
}

impl Drop for WindowJoin {
    fn drop(&mut self) {
        self.detach();
    }
}

impl Transition for WindowJoin {
    fn name(&self) -> &str {
        &self.name
    }

    /// Not while a bounded output has no room for the next result (held
    /// results: all of them); otherwise when a complete window is buffered
    /// or a side whose next window is open has pending input.
    fn ready(&self) -> bool {
        let room = self.output_room();
        if room.is_some_and(|r| !r.admits(0, 1)) {
            return false;
        }
        let held = self.readiness.held.load(Ordering::Relaxed);
        if held > 0 {
            return room.is_none_or(|r| r.admits(0, held));
        }
        self.readiness.window.load(Ordering::Relaxed)
            || self
                .sides
                .iter()
                .zip(&self.readiness.open)
                .any(|(s, open)| open.load(Ordering::Relaxed) && s.basket.pending_for(s.reader) > 0)
    }

    fn step(&self, tables: Option<&Catalog>) -> Result<StepOutcome> {
        self.step_inner(tables, usize::MAX, false)
    }

    /// Ingest at most `max_tuples` tuples per side: the join's firings are
    /// budgeted like any factory's.
    fn step_budgeted(&self, tables: Option<&Catalog>, max_tuples: usize) -> Result<StepOutcome> {
        self.step_inner(tables, max_tuples.max(1), false)
    }

    /// The input baskets wake the scheduler with new tuples, the output
    /// basket with freed room.
    fn subscribe(&self, signal: Arc<Signal>) {
        for side in &self.sides {
            side.basket.set_parent_signal(Arc::clone(&signal));
        }
        if let FactoryOutput::Basket(b) = &self.output {
            b.set_parent_signal(signal);
        }
    }

    /// Both (all) input baskets: a parallel scheduler must not fire this
    /// join concurrently with any transition touching either input.
    fn conflict_keys(&self) -> Vec<String> {
        self.input_names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::StreamCatalog;
    use datacell_bat::types::{DataType, Value};
    use datacell_sql::Schema;

    fn setup() -> (StreamCatalog, Arc<Basket>, Arc<Basket>, Arc<Basket>) {
        let mut cat = StreamCatalog::new();
        let left = cat
            .create_basket(
                "s1",
                Schema::new(vec![
                    ("k".into(), DataType::Int),
                    ("a".into(), DataType::Int),
                ]),
            )
            .unwrap();
        let right = cat
            .create_basket(
                "s2",
                Schema::new(vec![
                    ("k".into(), DataType::Int),
                    ("b".into(), DataType::Int),
                ]),
            )
            .unwrap();
        let out = cat
            .create_basket(
                "j",
                Schema::new(vec![
                    ("k".into(), DataType::Int),
                    ("a".into(), DataType::Int),
                    ("b".into(), DataType::Int),
                ]),
            )
            .unwrap();
        (cat, left, right, out)
    }

    fn compile(cat: &StreamCatalog, sql: &str) -> PhysicalPlan {
        datacell_sql::compile_query(sql, cat).unwrap().0
    }

    const JOIN_SQL: &str = "select s1.k as k, s1.a as a, s2.b as b \
         from s1 [rows 3] , s2 [rows 3] \
         where s1.k = s2.k order by k";

    fn push(b: &Basket, rows: &[(i64, i64)]) {
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(k, v)| vec![Value::Int(k), Value::Int(v)])
            .collect();
        b.append_rows(&rows).unwrap();
    }

    fn out_rows(b: &Basket) -> Vec<(i64, i64, i64)> {
        let snap = b.snapshot();
        let k = snap.columns[0].as_ints().unwrap();
        let a = snap.columns[1].as_ints().unwrap();
        let v = snap.columns[2].as_ints().unwrap();
        (0..snap.len()).map(|i| (k[i], a[i], v[i])).collect()
    }

    /// Build a `(k, a, ts)` chunk with hand-stamped timestamps.
    fn stamp(rows: &[(i64, i64, i64)]) -> Chunk {
        Chunk::new(
            Schema::new(vec![
                ("k".into(), DataType::Int),
                ("a".into(), DataType::Int),
                ("ts".into(), DataType::Timestamp),
            ]),
            vec![
                datacell_bat::Column::from_ints(rows.iter().map(|r| r.0).collect()),
                datacell_bat::Column::from_ints(rows.iter().map(|r| r.1).collect()),
                datacell_bat::Column::from_timestamps(rows.iter().map(|r| r.2).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn tumbling_count_join_pairs_windows_in_lockstep() {
        let (cat, left, right, out) = setup();
        let plan = compile(&cat, JOIN_SQL);
        let wj = WindowJoin::from_plan("wj", plan, &cat, FactoryOutput::Basket(Arc::clone(&out)))
            .unwrap();
        push(&left, &[(1, 10), (2, 20), (3, 30)]);
        assert!(wj.ready());
        // Right side incomplete: nothing fires.
        wj.step(None).unwrap();
        assert_eq!(wj.windows_evaluated(), 0);
        push(&right, &[(2, 200), (3, 300), (4, 400)]);
        wj.step(None).unwrap();
        assert_eq!(wj.windows_evaluated(), 1);
        assert_eq!(out_rows(&out), vec![(2, 20, 200), (3, 30, 300)]);
        // Second window joins only second-window tuples (no cross-window
        // leakage: (1,·) from window 0 must not meet (1,·) in window 1).
        push(&left, &[(5, 50), (6, 60), (1, 11)]);
        push(&right, &[(5, 500), (1, 111), (7, 700)]);
        wj.step(None).unwrap();
        assert_eq!(wj.windows_evaluated(), 2);
        assert_eq!(
            out_rows(&out),
            vec![(2, 20, 200), (3, 30, 300), (1, 11, 111), (5, 50, 500)]
        );
    }

    #[test]
    fn asymmetric_specs_slide_independently() {
        let (cat, left, right, out) = setup();
        let plan = compile(
            &cat,
            "select s1.k as k, s1.a as a, s2.b as b \
             from s1 [rows 2] , s2 [rows 4 slide 2] \
             where s1.k = s2.k order by k",
        );
        let wj = WindowJoin::from_plan("wj", plan, &cat, FactoryOutput::Basket(Arc::clone(&out)))
            .unwrap();
        // Left windows: [r0,r1], [r2,r3]. Right windows: [r0..r4), [r2..r6).
        push(&left, &[(1, 10), (2, 20), (3, 30), (4, 40)]);
        push(
            &right,
            &[(2, 200), (9, 900), (3, 300), (1, 100), (4, 400), (8, 800)],
        );
        wj.step(None).unwrap();
        assert_eq!(wj.windows_evaluated(), 2);
        // Window 0: left {1,2} × right {2,9,3,1} → (1,100),(2,200).
        // Window 1: left {3,4} × right {3,1,4,8} → (3,300),(4,400).
        assert_eq!(
            out_rows(&out),
            vec![(1, 10, 100), (2, 20, 200), (3, 30, 300), (4, 40, 400)]
        );
    }

    #[test]
    fn time_windows_anchor_to_common_t0_and_close_per_side() {
        let (cat, left, right, out) = setup();
        let plan = compile(
            &cat,
            "select s1.k as k, s1.a as a, s2.b as b \
             from s1 [range 1000us] , s2 [range 1000us] \
             where s1.k = s2.k order by k",
        );
        let wj = WindowJoin::from_plan("wj", plan, &cat, FactoryOutput::Basket(Arc::clone(&out)))
            .unwrap();
        left.append_chunk(&stamp(&[(1, 10, 0), (2, 20, 900)]))
            .unwrap();
        right
            .append_chunk(&stamp(&[(2, 200, 100), (3, 300, 950)]))
            .unwrap();
        // Neither side has passed t0+1000 yet.
        wj.step(None).unwrap();
        assert_eq!(wj.windows_evaluated(), 0);
        // Left passes the window end; right has not — still incomplete.
        left.append_chunk(&stamp(&[(9, 90, 1500)])).unwrap();
        wj.step(None).unwrap();
        assert_eq!(wj.windows_evaluated(), 0);
        // Right passes it too: window [0, 1000) joins {1,2}×{2,3}.
        right.append_chunk(&stamp(&[(9, 900, 1100)])).unwrap();
        wj.step(None).unwrap();
        assert_eq!(wj.windows_evaluated(), 1);
        assert_eq!(out_rows(&out), vec![(2, 20, 200)]);
    }

    #[test]
    fn flush_closes_quiescent_windows_at_horizon() {
        let (cat, left, right, out) = setup();
        let plan = compile(
            &cat,
            "select s1.k as k, s1.a as a, s2.b as b \
             from s1 [range 1000us] , s2 [range 1000us] \
             where s1.k = s2.k order by k",
        );
        let wj = WindowJoin::from_plan("wj", plan, &cat, FactoryOutput::Basket(Arc::clone(&out)))
            .unwrap();
        left.append_chunk(&stamp(&[(1, 10, 0), (2, 20, 500)]))
            .unwrap();
        right.append_chunk(&stamp(&[(2, 200, 100)])).unwrap();
        // Online: the window [0, 1000) can never close — both streams went
        // quiescent before any tuple at/after 1000 arrived.
        wj.step(None).unwrap();
        assert_eq!(wj.windows_evaluated(), 0);
        // Explicit flush closes it at the horizons and drains the buffers.
        wj.flush(None).unwrap();
        assert_eq!(out_rows(&out), vec![(2, 20, 200)]);
        assert!(wj.windows_evaluated() >= 1);
    }

    #[test]
    fn rejects_self_join_and_unwindowed_mix() {
        let (cat, _left, _right, out) = setup();
        let plan = compile(
            &cat,
            "select s1.k as k, s1.a as a, s2.b as b \
             from s1 [rows 2] , s2 [rows 2] where s1.k = s2.k",
        );
        // Sanity: the good plan wires.
        WindowJoin::from_plan("ok", plan, &cat, FactoryOutput::Basket(Arc::clone(&out))).unwrap();
        // No windowed scans at all → not a WindowJoin plan.
        let plain = compile(&cat, "select s.k as k from [select * from s1] as s");
        let err = match WindowJoin::from_plan("bad", plain, &cat, FactoryOutput::Discard) {
            Err(e) => e,
            Ok(_) => panic!("plan without windowed scans must be rejected"),
        };
        assert!(err.to_string().contains("no windowed scans"), "{err}");
    }

    #[test]
    fn conflict_keys_cover_both_inputs() {
        let (cat, _left, _right, out) = setup();
        let plan = compile(&cat, JOIN_SQL);
        let wj = WindowJoin::from_plan("wj", plan, &cat, FactoryOutput::Basket(out)).unwrap();
        let mut keys = wj.conflict_keys();
        keys.sort();
        assert_eq!(keys, vec!["s1".to_string(), "s2".to_string()]);
    }

    /// Regression: flush used to spin forever when a time-windowed side
    /// never received a tuple — the common anchor stayed `None`, so window
    /// chunks came back empty and eviction was a no-op on the side that
    /// *did* buffer data, yet the flush loop only broke once every buffer
    /// drained.
    #[test]
    fn flush_terminates_when_one_time_side_never_arrived() {
        let (cat, left, _right, out) = setup();
        let plan = compile(
            &cat,
            "select s1.k as k, s1.a as a, s2.b as b \
             from s1 [range 1000us] , s2 [range 1000us] \
             where s1.k = s2.k order by k",
        );
        let wj = WindowJoin::from_plan("wj", plan, &cat, FactoryOutput::Basket(Arc::clone(&out)))
            .unwrap();
        left.append_chunk(&stamp(&[(1, 10, 0), (2, 20, 2500)]))
            .unwrap();
        wj.step(None).unwrap();
        assert_eq!(wj.windows_evaluated(), 0);
        // Must return (anchoring on the sides that have data) and drain the
        // left buffer; an empty partner contributes no join rows.
        wj.flush(None).unwrap();
        assert!(out_rows(&out).is_empty());
        assert!(!wj.ready(), "flush committed the input cursors");
        // The drained state is durable: a second flush is a clean no-op.
        wj.flush(None).unwrap();
        assert!(out_rows(&out).is_empty());
    }

    /// Regression: a failed `from_plan` must not leave reader cursors
    /// registered on the sides it already resolved — a leaked reader pins
    /// the basket's trim watermark forever.
    #[test]
    fn from_plan_error_unwinds_without_leaking_readers() {
        let (mut cat, left, right, _out) = setup();
        let plan = compile(&cat, JOIN_SQL);
        let left_readers = left.reader_count();
        let right_readers = right.reader_count();
        // Invalidate one side after compilation; wiring must now fail.
        cat.drop_basket("s2").unwrap();
        assert!(WindowJoin::from_plan("bad", plan, &cat, FactoryOutput::Discard).is_err());
        assert_eq!(left.reader_count(), left_readers);
        assert_eq!(right.reader_count(), right_readers);
    }

    /// Regression: `flush` is called from the session thread, outside the
    /// scheduler's conflict-key serialization, so `step_inner` invocations
    /// can race. They used to snapshot the reader cursors before taking
    /// the state lock, letting two racers ingest the same uncommitted rows
    /// twice — duplicating buffered tuples and double-counting `arrived`.
    /// Two concurrent steppers hit the identical code path, and with
    /// tumbling `[rows 1]` windows a double-ingest shows up as duplicated
    /// output rows (online steps never close an incomplete window, so the
    /// full output is exactly predictable).
    #[test]
    fn concurrent_step_inner_calls_ingest_exactly_once() {
        use std::thread;
        let (cat, left, right, out) = setup();
        let plan = compile(
            &cat,
            "select s1.k as k, s1.a as a, s2.b as b \
             from s1 [rows 1] , s2 [rows 1] where s1.k = s2.k",
        );
        let wj = Arc::new(
            WindowJoin::from_plan("wj", plan, &cat, FactoryOutput::Basket(Arc::clone(&out)))
                .unwrap(),
        );
        const N: i64 = 256;
        let stop = Arc::new(AtomicBool::new(false));
        let steppers: Vec<_> = (0..2)
            .map(|_| {
                let wj = Arc::clone(&wj);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        wj.step(None).unwrap();
                        thread::yield_now();
                    }
                })
            })
            .collect();
        for i in 0..N {
            push(&left, &[(i, i)]);
            push(&right, &[(i, i)]);
        }
        stop.store(true, Ordering::Relaxed);
        for s in steppers {
            s.join().unwrap();
        }
        // Every window is complete by now, so this drains the remainder
        // without closing anything early.
        wj.flush(None).unwrap();
        let mut rows = out_rows(&out);
        rows.sort_unstable();
        let expect: Vec<(i64, i64, i64)> = (0..N).map(|i| (i, i, i)).collect();
        assert_eq!(rows, expect);
    }

    /// A window whose result does not fit is evaluated once and held: the
    /// join is not ready while the output has no room, a forced step
    /// defers, and the held rows go out — without re-evaluation — once
    /// downstream drains.
    #[test]
    fn bounded_output_defers_join_step_losslessly() {
        use crate::basket::OverflowPolicy;
        let (cat, left, right, out) = setup();
        let plan = compile(
            &cat,
            "select s1.k as k, s1.a as a, s2.b as b \
             from s1 [rows 2] , s2 [rows 2] where s1.k = s2.k order by k",
        );
        let wj = WindowJoin::from_plan("wj", plan, &cat, FactoryOutput::Basket(Arc::clone(&out)))
            .unwrap();
        // A resident row + cap 1 leaves no room for the window's two rows.
        out.append_rows(&[vec![Value::Int(0), Value::Int(0), Value::Int(0)]])
            .unwrap();
        out.set_capacity(Some(1), OverflowPolicy::Reject);
        push(&left, &[(1, 10), (2, 20)]);
        push(&right, &[(1, 100), (2, 200)]);
        assert!(!wj.ready(), "a full output makes the join wait");
        let step = wj.step(None).unwrap();
        assert_eq!((step.tuples_in, step.produced), (4, 0));
        assert_eq!(wj.windows_evaluated(), 1);
        assert_eq!(wj.buffered(), vec![0, 0], "the window is committed");
        assert!(!wj.ready(), "held rows wait for room");
        assert!(wj.step(None).is_err(), "a forced step defers");
        out.clear();
        assert!(wj.ready());
        wj.step(None).unwrap();
        assert_eq!(out_rows(&out), vec![(1, 10, 100), (2, 20, 200)]);
        assert_eq!(wj.windows_evaluated(), 1, "delivered, not re-evaluated");
        assert!(!wj.ready());
    }

    /// A step delivers the prefix of windows whose results fit the free
    /// room and holds the first that does not; the rest stay buffered.
    #[test]
    fn prefix_delivery_evaluates_each_window_once() {
        use crate::basket::OverflowPolicy;
        let (cat, left, right, out) = setup();
        let plan = compile(
            &cat,
            "select s1.k as k, s1.a as a, s2.b as b \
             from s1 [rows 1] , s2 [rows 1] where s1.k = s2.k",
        );
        let wj = WindowJoin::from_plan("wj", plan, &cat, FactoryOutput::Basket(Arc::clone(&out)))
            .unwrap();
        out.set_capacity(Some(3), OverflowPolicy::Block);
        let rows: Vec<(i64, i64)> = (0..6).map(|i| (i, i)).collect();
        push(&left, &rows);
        push(&right, &rows);
        let step = wj.step(None).unwrap();
        assert_eq!(step.produced, 3);
        assert_eq!(wj.windows_evaluated(), 4, "three delivered, one held");
        assert_eq!(wj.buffered(), vec![2, 2]);
        assert!(!wj.ready());
        out.clear();
        assert!(wj.ready());
        assert_eq!(
            wj.step(None).unwrap().tuples_in,
            0,
            "buffered windows first"
        );
        assert_eq!(out_rows(&out), vec![(3, 3, 3), (4, 4, 4), (5, 5, 5)]);
        assert_eq!(wj.windows_evaluated(), 6);
        assert!(!wj.ready());
    }
}
