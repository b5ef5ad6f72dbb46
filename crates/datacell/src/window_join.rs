//! Cross-stream windowed joins — per-source window specs, ordinary kernels.
//!
//! The DataCell thesis (§3.1) extends to joins unchanged: a windowed join
//! needs *no* new streaming operator. [`WindowJoin`] is a scheduler
//! transition that buffers each input stream in ordinary columns behind a
//! registered reader cursor, pairs up the per-source windows in lockstep,
//! and evaluates each pairing by handing the window chunks to the
//! *unchanged* compiled plan — the same monomorphized hash-join kernels the
//! one-shot path uses.
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
//! own window `k+1` — the watermark is the minimum across sources only in
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
//! The step discipline mirrors [`crate::window::ReEvalWindow`]: snapshot
//! all readers without committing, work on copies, deliver every result of
//! the step in one non-waiting append, and only then commit state and
//! cursors — a full bounded output defers the whole step losslessly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use datacell_bat::candidates::Candidates;
use datacell_engine::{execute, Catalog, Chunk};
use datacell_sql::physical::PhysicalPlan;
use parking_lot::Mutex;

use crate::basket::{Basket, ReaderId, Signal};
use crate::catalog::StepSource;
use crate::error::{DataCellError, Result};
use crate::factory::{FactoryOutput, StepOutcome};
use crate::scheduler::Transition;
use crate::window::WindowSpec;

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
}

/// Cross-stream windowed join transition (see module docs).
pub struct WindowJoin {
    name: String,
    plan: PhysicalPlan,
    output: FactoryOutput,
    sides: Vec<Side>,
    state: Mutex<JoinState>,
    windows_evaluated: AtomicU64,
    detached: AtomicBool,
}

fn to_runtime_spec(w: &datacell_sql::ast::WindowSpec) -> Result<WindowSpec> {
    Ok(match *w {
        datacell_sql::ast::WindowSpec::Count { size, slide } => WindowSpec::Count {
            size: usize::try_from(size)
                .map_err(|_| DataCellError::Wiring(format!("window size {size} too large")))?,
            slide: usize::try_from(slide)
                .map_err(|_| DataCellError::Wiring(format!("window slide {slide} too large")))?,
        },
        datacell_sql::ast::WindowSpec::Time {
            size_micros,
            slide_micros,
        } => WindowSpec::Time {
            size_micros,
            slide_micros,
        },
    })
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
            let spec = to_runtime_spec(spec)?;
            resolved.push((basket, spec));
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
        Ok(WindowJoin {
            name: name.into(),
            plan,
            output,
            sides,
            state: Mutex::new(JoinState {
                sides: states,
                next_eval: 0,
                anchor: None,
            }),
            windows_evaluated: AtomicU64::new(0),
            detached: AtomicBool::new(false),
        })
    }

    /// Number of joint window evaluations so far.
    pub fn windows_evaluated(&self) -> u64 {
        self.windows_evaluated.load(Ordering::Relaxed)
    }

    /// Stored tables the compiled plan scans; the caller supplies their
    /// contents at step/flush time.
    pub fn scanned_tables(&self) -> Vec<String> {
        self.plan.scanned_tables()
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
    /// so a flush is a normal step with completeness waived.
    pub fn flush(&self, tables: Option<&Catalog>) -> Result<StepOutcome> {
        self.step_inner(tables, true)
    }

    /// Is window `k` complete on side `i` given its buffered state?
    fn complete(side: &Side, st: &SideState, anchor: Option<i64>, k: u64) -> bool {
        match side.spec {
            WindowSpec::Count { size, slide } => st.arrived >= k * slide as u64 + size as u64,
            WindowSpec::Time {
                size_micros,
                slide_micros,
            } => match (anchor, st.horizon) {
                (Some(t0), Some(h)) => h >= t0 + k as i64 * slide_micros + size_micros,
                _ => false,
            },
        }
    }

    /// Gather side `i`'s window `k` out of its buffer.
    fn window_chunk(side: &Side, st: &SideState, anchor: Option<i64>, k: u64) -> Result<Chunk> {
        match side.spec {
            WindowSpec::Count { size, slide } => {
                let abs_lo = k * slide as u64;
                let abs_hi = abs_lo + size as u64;
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

    /// Evict side `i` below the start of window `k + 1`.
    fn evict(side: &Side, st: &mut SideState, anchor: Option<i64>, k: u64) -> Result<()> {
        match side.spec {
            WindowSpec::Count { slide, .. } => {
                let target = (k + 1) * slide as u64;
                if target > st.evicted {
                    let drop = ((target - st.evicted) as usize).min(st.buffer.len());
                    let len = st.buffer.len();
                    st.buffer = st.buffer.gather(&Candidates::Dense(drop..len))?;
                    st.evicted += drop as u64;
                    // A partial flush window may drain the buffer short of
                    // the target; account the skipped positions anyway so
                    // indices stay aligned if the stream resumes.
                    st.evicted = st.evicted.max(target.min(st.arrived));
                }
            }
            WindowSpec::Time { slide_micros, .. } => {
                let Some(t0) = anchor else { return Ok(()) };
                let new_start = t0 + (k + 1) as i64 * slide_micros;
                let ts_idx = st.buffer.schema.len() - 1;
                let ts = st.buffer.columns[ts_idx].as_timestamps()?.to_vec();
                let keep: Vec<usize> = ts
                    .iter()
                    .enumerate()
                    .filter(|(_, &t)| t >= new_start)
                    .map(|(i, _)| i)
                    .collect();
                let kept = keep.len();
                st.buffer = st.buffer.gather(&Candidates::from_sorted_unchecked(keep))?;
                st.evicted += (ts.len() - kept) as u64;
            }
        }
        Ok(())
    }

    fn step_inner(&self, tables: Option<&Catalog>, closing: bool) -> Result<StepOutcome> {
        // Snapshot every reader without committing; evaluate on working
        // copies; deliver once; only then commit state and cursors. The
        // whole snapshot→ingest→commit sequence runs under the state lock:
        // flush arrives from the session thread outside the scheduler's
        // conflict-key serialization, and a racing snapshot would ingest
        // the same uncommitted rows on both callers, double-counting
        // `arrived` and duplicating buffered tuples.
        let mut state = self.state.lock();
        let snaps: Vec<(Chunk, u64)> = self
            .sides
            .iter()
            .map(|s| s.basket.snapshot_for_reader(s.reader, usize::MAX))
            .collect();
        let tuples_in: usize = snaps.iter().map(|(c, _)| c.len()).sum();

        let JoinState {
            sides: ref prior,
            next_eval,
            anchor,
        } = *state;

        // Working copies + ingestion.
        let mut work: Vec<SideState> = Vec::with_capacity(self.sides.len());
        for (st, (incoming, _)) in prior.iter().zip(&snaps) {
            let mut buffer = st.buffer.clone();
            let mut horizon = st.horizon;
            let mut first_ts = st.first_ts;
            let mut arrived = st.arrived;
            if !incoming.is_empty() {
                buffer.append(incoming)?;
                arrived += incoming.len() as u64;
                let ts_idx = incoming.schema.len() - 1;
                let ts = incoming.columns[ts_idx].as_timestamps()?;
                let last = *ts.last().expect("non-empty");
                horizon = Some(horizon.map_or(last, |h| h.max(last)));
                if first_ts.is_none() {
                    first_ts = Some(ts[0]);
                }
            }
            work.push(SideState {
                buffer,
                arrived,
                evicted: st.evicted,
                horizon,
                first_ts,
            });
        }

        // Settle the time anchor once every time-windowed side has data.
        // Flush declares the inputs quiescent, so an empty time side can no
        // longer contribute an earlier first-ts: anchor on whichever time
        // sides do have data, or the sides that did buffer tuples could
        // never drain (their windows would stay unanchored forever).
        let mut anchor = anchor;
        if anchor.is_none() {
            let time_firsts: Vec<Option<i64>> = self
                .sides
                .iter()
                .zip(&work)
                .filter(|(s, _)| matches!(s.spec, WindowSpec::Time { .. }))
                .map(|(_, st)| st.first_ts)
                .collect();
            let settled = if closing {
                time_firsts.iter().any(|f| f.is_some())
            } else {
                !time_firsts.is_empty() && time_firsts.iter().all(|f| f.is_some())
            };
            if settled {
                anchor = time_firsts.into_iter().flatten().min();
            }
        }

        let mut k = next_eval;
        let mut windows_run = 0u64;
        let mut produced = 0;
        let mut out: Option<Chunk> = None;
        loop {
            let all_complete = self
                .sides
                .iter()
                .zip(&work)
                .all(|(s, st)| Self::complete(s, st, anchor, k));
            if !all_complete {
                if !closing {
                    break;
                }
                // Flush mode: keep closing windows at the horizons until
                // every buffer has drained.
                if work.iter().all(|st| st.buffer.is_empty()) {
                    break;
                }
            }
            let windows = self
                .sides
                .iter()
                .zip(&work)
                .map(|(s, st)| Self::window_chunk(s, st, anchor, k))
                .collect::<Result<Vec<Chunk>>>()?;
            let any_tuples = windows.iter().any(|w| !w.is_empty());
            // Flush mode sweeps window indices toward the horizons; skip
            // the plan for windows every source left empty (a ts gap) —
            // they cannot contribute join rows.
            if any_tuples || !closing {
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
                let result = execute(&self.plan, &src)?.chunk.into_owned();
                produced += result.len();
                windows_run += 1;
                match &mut out {
                    None => out = Some(result),
                    Some(o) => o.append(&result)?,
                }
            }
            let before: usize = work.iter().map(|st| st.buffer.len()).sum();
            for (s, st) in self.sides.iter().zip(work.iter_mut()) {
                Self::evict(s, st, anchor, k)?;
            }
            let after: usize = work.iter().map(|st| st.buffer.len()).sum();
            // Backstop against a non-terminating flush: with no anchor a
            // time side can never gather or evict, so a sweep that also
            // moved nothing elsewhere will never drain by advancing k.
            // (An anchored gap sweep legitimately passes empty windows —
            // that case is excluded by `anchor.is_none()`.)
            if closing && !all_complete && !any_tuples && after == before && anchor.is_none() {
                break;
            }
            k += 1;
        }

        // Deliver the whole step's results in one non-waiting append; a
        // Backpressure error here leaves state and cursors untouched.
        if let (Some(chunk), FactoryOutput::Basket(b)) = (&out, &self.output) {
            b.try_append_chunk(chunk)?;
        }
        state.sides = work;
        state.next_eval = k;
        state.anchor = anchor;
        for (side, (_, end)) in self.sides.iter().zip(&snaps) {
            side.basket.commit_reader(side.reader, *end);
        }
        drop(state);
        self.windows_evaluated
            .fetch_add(windows_run, Ordering::Relaxed);
        Ok(StepOutcome {
            tuples_in,
            consumed: tuples_in,
            produced,
        })
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

    fn ready(&self) -> bool {
        self.sides
            .iter()
            .any(|s| s.basket.pending_for(s.reader) > 0)
    }

    fn step(&self, tables: Option<&Catalog>) -> Result<StepOutcome> {
        self.step_inner(tables, false)
    }

    fn subscribe(&self, signal: Arc<Signal>) {
        for side in &self.sides {
            side.basket.set_parent_signal(Arc::clone(&signal));
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
        // A resident row + cap 1 leaves no room for the step's output.
        out.append_rows(&[vec![Value::Int(0), Value::Int(0), Value::Int(0)]])
            .unwrap();
        out.set_capacity(Some(1), OverflowPolicy::Reject);
        push(&left, &[(1, 10), (2, 20)]);
        push(&right, &[(1, 100), (2, 200)]);
        assert!(wj.step(None).is_err(), "full output defers the step");
        assert!(wj.ready(), "input cursors did not move");
        assert_eq!(wj.windows_evaluated(), 0);
        // Downstream drains: the retry reproduces the window exactly once.
        out.clear();
        wj.step(None).unwrap();
        assert_eq!(out_rows(&out), vec![(1, 10, 100), (2, 20, 200)]);
        assert!(!wj.ready());
    }
}
