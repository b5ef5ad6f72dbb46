//! Factories: compiled continuous queries with state saved between calls
//! (§2.3, Algorithm 1).
//!
//! A factory owns the physical plan of one continuous query (or the head or
//! tail of a split plan, §3.2), references to its input baskets (data
//! inputs, each exclusive or shared), optional *control* baskets that
//! regulate firing (the auxiliary token places of §2.4), and an optional
//! output basket.
//!
//! One `step()` is one loop iteration of Algorithm 1:
//!
//! 1. snapshot the input baskets (the locks are per-basket and internal —
//!    see the concurrency note below);
//! 2. run the plan in bulk over the snapshots;
//! 3. append results to the output basket — *before* consuming, so a
//!    bounded output basket that rejects the batch
//!    ([`OverflowPolicy::Reject`](crate::basket::OverflowPolicy)) defers
//!    the whole step without losing input tuples, and a `Block` output
//!    stalls the factory (backpressure propagating upstream);
//! 4. apply consumption: exclusive inputs delete exactly the tuples the
//!    basket expression referenced; shared inputs advance their reader
//!    cursor; control tokens are consumed and emitted last.
//!
//! **Concurrency.** The paper's Algorithm 1 holds the basket locks for the
//! whole loop body. We get the same effect with finer locks because (a)
//! receptors only ever *append*, and consumption is expressed as positions
//! within an *oid-anchored* snapshot — appends that slip in during plan
//! execution sit past the snapshot and are untouched, while head-drops
//! that slip in (a `ShedOldest` input evicting under pressure) shift the
//! anchor, so consumption deletes exactly the surviving processed tuples
//! and never the newer rows that moved into their positions; (b) two
//! factories never consume the same basket exclusively at the same time:
//! the scheduler holds a per-transition firing lock plus the factory's
//! [`Factory::conflict_basket_names`] keys for the duration of every
//! firing, so a factory runs at most once concurrently and exclusive
//! consumers of one basket are serialized even under the parallel worker
//! pool — which is all a §2.5 cascade of disjoint predicate windows needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use datacell_bat::candidates::Candidates;
use datacell_bat::types::Value;
use datacell_engine::{execute, Catalog, Chunk};
use datacell_sql::physical::PhysicalPlan;
use datacell_sql::Schema;

use crate::basket::{Basket, ExclusiveAnchor, ReaderId};
use crate::catalog::{consumed_positions, StepSource, StreamCatalog};
use crate::error::{DataCellError, Result};

/// How a factory reads one of its input baskets.
#[derive(Debug, Clone, Copy)]
pub enum InputMode {
    /// The basket expression's qualifying tuples are deleted right after
    /// the step: the whole basket for a plain `[select * from b]`, only
    /// the predicate window otherwise (§2.6).
    Exclusive,
    /// Read from this reader's cursor; tuples are removed only when every
    /// reader has passed them (§2.5). Plan sharing reads this way.
    Shared(ReaderId),
}

/// What one firing holds of an input between snapshot and consumption.
enum Cursor {
    /// Layout anchor of an exclusive snapshot.
    Exclusive(ExclusiveAnchor),
    /// The shared reader and the oid its snapshot ended at.
    Shared(ReaderId, u64),
}

/// One data input of a factory.
#[derive(Debug, Clone)]
pub struct FactoryInput {
    /// The basket read from.
    pub basket: Arc<Basket>,
    /// Read/consume discipline.
    pub mode: InputMode,
}

/// Where a factory's result tuples go.
#[derive(Clone)]
pub enum FactoryOutput {
    /// Append to a basket. A plan as wide as the basket's user columns gets
    /// a fresh arrival timestamp; a plan with one extra trailing timestamp
    /// column has it carried through as the arrival time — preserving
    /// end-to-end latency accounting across a factory chain.
    Basket(Arc<Basket>),
    /// Discard results (pure side-effect factories, or benchmarks
    /// measuring pure query cost).
    Discard,
}

impl std::fmt::Debug for FactoryOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactoryOutput::Basket(b) => write!(f, "Basket({})", b.name()),
            FactoryOutput::Discard => write!(f, "Discard"),
        }
    }
}

/// Monotone counters for one factory.
#[derive(Debug, Default)]
pub struct FactoryStats {
    /// Completed firings.
    pub invocations: AtomicU64,
    /// Input tuples processed (sum over data inputs of snapshot sizes).
    pub tuples_in: AtomicU64,
    /// Result tuples produced.
    pub tuples_out: AtomicU64,
    /// Time spent inside `step`, in microseconds.
    pub busy_micros: AtomicU64,
}

/// Snapshot of [`FactoryStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactoryStatsSnapshot {
    /// Completed firings.
    pub invocations: u64,
    /// Input tuples processed.
    pub tuples_in: u64,
    /// Result tuples produced.
    pub tuples_out: u64,
    /// Total busy time in microseconds.
    pub busy_micros: u64,
}

/// Result of one firing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// Tuples visible in input snapshots.
    pub tuples_in: usize,
    /// Tuples removed from input baskets.
    pub consumed: usize,
    /// Result tuples produced.
    pub produced: usize,
}

/// A compiled continuous query (or plan fragment) — see module docs.
pub struct Factory {
    name: String,
    plan: PhysicalPlan,
    out_schema: Schema,
    inputs: Vec<FactoryInput>,
    control_in: Vec<Arc<Basket>>,
    control_out: Vec<Arc<Basket>>,
    output: FactoryOutput,
    /// Fire only when every data input has at least this many pending
    /// tuples (§2.4: "the system may explicitly require a basket to have a
    /// minimum of n tuples before the relevant factory may run").
    min_tuples: usize,
    stats: FactoryStats,
}

impl std::fmt::Debug for Factory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Factory")
            .field("name", &self.name)
            .field("inputs", &self.inputs.len())
            .field("output", &self.output)
            .field("min_tuples", &self.min_tuples)
            .finish()
    }
}

impl Factory {
    /// Compile a continuous query into a factory.
    ///
    /// `sql` must be a SELECT containing at least one basket expression;
    /// the consumed baskets become the factory's data inputs (exclusive by
    /// default; [`Factory::set_shared`] switches one to a reader cursor).
    pub fn compile(
        name: impl Into<String>,
        sql: &str,
        catalog: &StreamCatalog,
        output: FactoryOutput,
    ) -> Result<Factory> {
        let (plan, out_schema) = datacell_sql::compile_query(sql, catalog)?;
        Factory::from_plan(name, plan, out_schema, catalog, output)
    }

    /// Build a factory from an already-compiled plan.
    pub fn from_plan(
        name: impl Into<String>,
        plan: PhysicalPlan,
        out_schema: Schema,
        catalog: &StreamCatalog,
        output: FactoryOutput,
    ) -> Result<Factory> {
        let name = name.into();
        let consumed = plan.consumed_baskets();
        if consumed.is_empty() {
            return Err(DataCellError::Wiring(format!(
                "factory {name}: the query has no basket expression — it is a one-time \
                 query, not a continuous one (§2.6)"
            )));
        }
        let inputs = consumed
            .iter()
            .map(|b| {
                Ok(FactoryInput {
                    basket: catalog.basket(b)?,
                    mode: InputMode::Exclusive,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let factory = Factory {
            name,
            plan,
            out_schema,
            inputs,
            control_in: Vec::new(),
            control_out: Vec::new(),
            output,
            min_tuples: 1,
            stats: FactoryStats::default(),
        };
        if let FactoryOutput::Basket(b) = &factory.output {
            b.check_shape(&factory.out_schema)?;
        }
        Ok(factory)
    }

    /// Factory name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compiled plan (diagnostics, Petri-net construction).
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// Output schema of the plan.
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Data inputs.
    pub fn inputs(&self) -> &[FactoryInput] {
        &self.inputs
    }

    /// Output wiring.
    pub fn output(&self) -> &FactoryOutput {
        &self.output
    }

    /// Control-input baskets (token places).
    pub fn control_in(&self) -> &[Arc<Basket>] {
        &self.control_in
    }

    /// Control-output baskets.
    pub fn control_out(&self) -> &[Arc<Basket>] {
        &self.control_out
    }

    /// Basket names this factory must hold exclusively while firing: its
    /// exclusive-mode data inputs (a firing snapshots, delivers, then
    /// *deletes* from them — two concurrent exclusive consumers would
    /// double-consume) and its control inputs (a firing eats one token).
    /// Shared-mode inputs are absent: each reader owns a private cursor,
    /// so concurrent firings of *different* factories over one shared
    /// basket are safe. The scheduler acquires these keys together with
    /// the per-transition firing lock before every firing.
    pub fn conflict_basket_names(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .inputs
            .iter()
            .filter(|i| matches!(i.mode, InputMode::Exclusive))
            .map(|i| i.basket.name().to_string())
            .collect();
        keys.extend(self.control_in.iter().map(|c| c.name().to_string()));
        keys
    }

    /// Set the firing threshold.
    pub fn set_min_tuples(&mut self, n: usize) {
        self.min_tuples = n.max(1);
    }

    /// Firing threshold.
    pub fn min_tuples(&self) -> usize {
        self.min_tuples
    }

    /// Switch input basket `name` to the shared discipline using reader `r`.
    pub fn set_shared(&mut self, basket: &str, r: ReaderId) -> Result<()> {
        for input in &mut self.inputs {
            if input.basket.name() == basket {
                input.mode = InputMode::Shared(r);
                return Ok(());
            }
        }
        Err(DataCellError::Wiring(format!(
            "factory {}: no input basket {basket}",
            self.name
        )))
    }

    /// Add a control input (the factory consumes one token per firing).
    pub fn add_control_in(&mut self, token_basket: Arc<Basket>) {
        self.control_in.push(token_basket);
    }

    /// Add a control output (the factory emits one token per firing).
    pub fn add_control_out(&mut self, token_basket: Arc<Basket>) {
        self.control_out.push(token_basket);
    }

    /// Petri-net firing condition (§2.4): every data input holds at least
    /// `min_tuples` pending tuples and every control input holds a token.
    pub fn ready(&self) -> bool {
        self.inputs.iter().all(|i| match i.mode {
            InputMode::Exclusive => i.basket.len() >= self.min_tuples,
            InputMode::Shared(r) => i.basket.pending_for(r) >= self.min_tuples,
        }) && self.control_in.iter().all(|c| !c.is_empty())
    }

    /// Fire once: snapshot → execute → consume → emit (Algorithm 1 body).
    pub fn step(&self, tables: Option<&Catalog>) -> Result<StepOutcome> {
        self.step_limited(tables, usize::MAX)
    }

    /// Fire once, processing at most `max_tuples` tuples *per data input*
    /// — the budgeted service used by the scheduler's deficit-round-robin
    /// fairness policy. Tuples beyond the budget stay in their baskets
    /// (exclusive inputs keep them resident, shared cursors advance only
    /// past the served prefix) and are picked up by a later firing, so a
    /// budgeted step is simply a smaller batch, not a loss. The budget is
    /// clamped up to [`Factory::min_tuples`] so a firing never undercuts
    /// the configured batch threshold.
    pub fn step_limited(&self, tables: Option<&Catalog>, max_tuples: usize) -> Result<StepOutcome> {
        let budget = max_tuples.max(self.min_tuples);
        let started = Instant::now();

        // 1. Snapshot inputs, at most `budget` tuples each. `snapshots` and
        // `cursors` stay aligned with `self.inputs`.
        //
        // Exclusive snapshots are anchored to the basket's layout epoch: a
        // concurrent `ShedOldest` eviction between snapshot and
        // consumption shifts positions, and consuming by stale positions
        // would delete newer tuples than the ones this step processed
        // (at-most-once under shedding). The snapshot is budgeted and
        // segment-aware: a spilled backlog is served from disk in
        // budget-sized bites instead of being re-materialized whole.
        let mut snapshots: Vec<Chunk> = Vec::with_capacity(self.inputs.len());
        let mut cursors: Vec<Cursor> = Vec::with_capacity(self.inputs.len());
        for input in &self.inputs {
            let (chunk, cursor) = match input.mode {
                InputMode::Exclusive => {
                    let (chunk, anchor) = input.basket.snapshot_exclusive(budget);
                    (chunk, Cursor::Exclusive(anchor))
                }
                InputMode::Shared(r) => {
                    let (chunk, end) = input.basket.snapshot_for_reader(r, budget);
                    (chunk, Cursor::Shared(r, end))
                }
            };
            snapshots.push(chunk);
            cursors.push(cursor);
        }
        let tuples_in: usize = snapshots.iter().map(Chunk::len).sum();

        // 2. Execute the plan over the snapshots, which it reads in place.
        let lent: Vec<(&str, &Chunk)> = self
            .inputs
            .iter()
            .zip(&snapshots)
            .map(|(input, chunk)| (input.basket.name(), chunk))
            .collect();
        let src = StepSource {
            snapshots: &lent,
            tables,
        };
        let outcome = execute(&self.plan, &src)?;

        // 3. Deliver results first, without waiting: a full bounded output
        // basket (any policy) surfaces as Backpressure here, which the
        // scheduler treats as a deferral — and because nothing has been
        // consumed yet, the deferred step retries later without loss. The
        // non-waiting append keeps the scheduler thread from wedging on a
        // `Block` output whose consumer runs on this same thread.
        let produced = outcome.chunk.len();
        if let FactoryOutput::Basket(b) = &self.output {
            b.try_append_chunk(&outcome.chunk)?;
        }

        // 4. Consumption (§2.6 side effect). Appends that slipped in since
        // the snapshot sit past the snapshot positions and are untouched.
        let mut consumed = 0usize;
        for ((input, snapshot), cursor) in self.inputs.iter().zip(&snapshots).zip(&cursors) {
            match cursor {
                Cursor::Exclusive(anchor) => {
                    if let Some(gone) = consumed_positions(&outcome.consumed, input.basket.name()) {
                        consumed += input.basket.consume_exclusive(anchor, &gone)?;
                    }
                }
                Cursor::Shared(r, end) => {
                    input.basket.commit_reader(*r, *end);
                    consumed += snapshot.len();
                }
            }
        }

        // 5. Control tokens: consume one per control input, then signal
        // downstream stages (the basket is in its post-consumption state).
        for c in &self.control_in {
            let (_, anchor) = c.snapshot_exclusive(1);
            c.consume_exclusive(&anchor, &Candidates::Dense(0..1))?;
        }
        for c in &self.control_out {
            c.append_rows(&[vec![Value::Int(1)]])?;
        }

        // 6. Book-keeping ("its status is kept around", §2.3).
        self.stats.invocations.fetch_add(1, Ordering::Relaxed);
        self.stats
            .tuples_in
            .fetch_add(tuples_in as u64, Ordering::Relaxed);
        self.stats
            .tuples_out
            .fetch_add(produced as u64, Ordering::Relaxed);
        self.stats
            .busy_micros
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);

        Ok(StepOutcome {
            tuples_in,
            consumed,
            produced,
        })
    }

    /// Snapshot the factory's counters.
    pub fn stats(&self) -> FactoryStatsSnapshot {
        FactoryStatsSnapshot {
            invocations: self.stats.invocations.load(Ordering::Relaxed),
            tuples_in: self.stats.tuples_in.load(Ordering::Relaxed),
            tuples_out: self.stats.tuples_out.load(Ordering::Relaxed),
            busy_micros: self.stats.busy_micros.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_bat::types::DataType;
    use datacell_sql::Schema;

    fn setup() -> (StreamCatalog, Arc<Basket>, Arc<Basket>) {
        let mut cat = StreamCatalog::new();
        let input = cat
            .create_basket(
                "r",
                Schema::new(vec![
                    ("a".into(), DataType::Int),
                    ("b".into(), DataType::Int),
                ]),
            )
            .unwrap();
        let output = cat
            .create_basket("out", Schema::new(vec![("a".into(), DataType::Int)]))
            .unwrap();
        (cat, input, output)
    }

    fn push(b: &Basket, vals: &[(i64, i64)]) {
        let rows: Vec<Vec<Value>> = vals
            .iter()
            .map(|&(a, bb)| vec![Value::Int(a), Value::Int(bb)])
            .collect();
        b.append_rows(&rows).unwrap();
    }

    #[test]
    fn paper_algorithm_one_selection() {
        // The running example of Algorithm 1: select values of X in a range.
        let (cat, input, output) = setup();
        let f = Factory::compile(
            "q",
            "select s.a from [select * from r] as s where s.a between 10 and 20",
            &cat,
            FactoryOutput::Basket(Arc::clone(&output)),
        )
        .unwrap();
        push(&input, &[(5, 0), (15, 0), (25, 0), (12, 0)]);
        assert!(f.ready());
        let out = f.step(Some(&cat.tables)).unwrap();
        assert_eq!(out.tuples_in, 4);
        assert_eq!(out.consumed, 4); // plain basket expression consumes all
        assert_eq!(out.produced, 2);
        assert!(input.is_empty());
        assert_eq!(output.len(), 2);
        let snap = output.snapshot();
        assert_eq!(snap.columns[0].as_ints().unwrap(), &[15, 12]);
        assert!(!f.ready(), "input drained, factory must suspend");
    }

    #[test]
    fn predicate_window_leaves_partial_basket() {
        // Query q2 of §2.6: the basket expression filters, so only the
        // tuples inside the predicate window are removed.
        let (cat, input, _) = setup();
        let f = Factory::compile(
            "q2",
            "select s.a from [select * from r where r.b < 10] as s where s.a > 0",
            &cat,
            FactoryOutput::Discard,
        )
        .unwrap();
        push(&input, &[(1, 5), (2, 50), (3, 7)]);
        f.step(Some(&cat.tables)).unwrap();
        // (2, 50) is outside the predicate window: it stays.
        assert_eq!(input.len(), 1);
        let snap = input.snapshot();
        assert_eq!(snap.columns[0].as_ints().unwrap(), &[2]);
    }

    #[test]
    fn non_continuous_query_rejected() {
        let (mut cat, _, _) = setup();
        cat.tables
            .create_table("t", Schema::new(vec![("x".into(), DataType::Int)]))
            .unwrap();
        let err =
            Factory::compile("bad", "select x from t", &cat, FactoryOutput::Discard).unwrap_err();
        assert!(err.to_string().contains("basket expression"), "{err}");
    }

    #[test]
    fn min_tuples_threshold_gates_firing() {
        let (cat, input, _) = setup();
        let mut f = Factory::compile(
            "q",
            "select s.a from [select * from r] as s",
            &cat,
            FactoryOutput::Discard,
        )
        .unwrap();
        f.set_min_tuples(3);
        push(&input, &[(1, 0), (2, 0)]);
        assert!(!f.ready());
        push(&input, &[(3, 0)]);
        assert!(f.ready());
    }

    #[test]
    fn control_tokens_regulate_firing() {
        let (mut cat, input, _) = setup();
        let token = cat
            .create_basket("tok", Schema::new(vec![("t".into(), DataType::Int)]))
            .unwrap();
        let mut f = Factory::compile(
            "q",
            "select s.a from [select * from r] as s",
            &cat,
            FactoryOutput::Discard,
        )
        .unwrap();
        f.add_control_in(Arc::clone(&token));
        push(&input, &[(1, 0)]);
        assert!(!f.ready(), "no token yet");
        token.append_rows(&[vec![Value::Int(1)]]).unwrap();
        assert!(f.ready());
        f.step(Some(&cat.tables)).unwrap();
        assert!(token.is_empty(), "token consumed");
    }

    #[test]
    fn control_token_emitted() {
        let (mut cat, input, _) = setup();
        let token = cat
            .create_basket("tok", Schema::new(vec![("t".into(), DataType::Int)]))
            .unwrap();
        let mut f = Factory::compile(
            "q",
            "select s.a from [select * from r] as s",
            &cat,
            FactoryOutput::Discard,
        )
        .unwrap();
        f.add_control_out(Arc::clone(&token));
        push(&input, &[(1, 0)]);
        f.step(Some(&cat.tables)).unwrap();
        assert_eq!(token.len(), 1);
    }

    #[test]
    fn shared_input_advances_cursor_only() {
        let (cat, input, _) = setup();
        let mut f = Factory::compile(
            "q",
            "select s.a from [select * from r where r.a > 100] as s",
            &cat,
            FactoryOutput::Discard,
        )
        .unwrap();
        let r = input.register_reader(true);
        f.set_shared("r", r).unwrap();
        let r2 = input.register_reader(true); // a second reader holds tuples
        push(&input, &[(1, 0), (2, 0)]);
        f.step(Some(&cat.tables)).unwrap();
        // Nothing qualified, but the reader has seen both tuples...
        assert_eq!(input.pending_for(r), 0);
        // ...and they stay resident because reader 2 hasn't.
        assert_eq!(input.len(), 2);
        assert_eq!(input.pending_for(r2), 2);
    }

    #[test]
    fn step_limited_serves_prefix_and_keeps_rest() {
        // Exclusive input: a budgeted step consumes only the served prefix.
        let (cat, input, output) = setup();
        let f = Factory::compile(
            "q",
            "select s.a from [select * from r] as s",
            &cat,
            FactoryOutput::Basket(Arc::clone(&output)),
        )
        .unwrap();
        push(&input, &[(1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]);
        let out = f.step_limited(Some(&cat.tables), 2).unwrap();
        assert_eq!((out.tuples_in, out.consumed, out.produced), (2, 2, 2));
        assert_eq!(input.snapshot().columns[0].as_ints().unwrap(), &[3, 4, 5]);
        assert_eq!(output.snapshot().columns[0].as_ints().unwrap(), &[1, 2]);
        // The remainder is served by later firings; no loss, no reorder.
        f.step_limited(Some(&cat.tables), 2).unwrap();
        f.step_limited(Some(&cat.tables), 2).unwrap();
        assert!(input.is_empty());
        assert_eq!(
            output.snapshot().columns[0].as_ints().unwrap(),
            &[1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn step_limited_shared_commits_only_served_prefix() {
        let (cat, input, _) = setup();
        let mut f = Factory::compile(
            "q",
            "select s.a from [select * from r] as s",
            &cat,
            FactoryOutput::Discard,
        )
        .unwrap();
        let r = input.register_reader(true);
        f.set_shared("r", r).unwrap();
        push(&input, &[(1, 0), (2, 0), (3, 0)]);
        f.step_limited(Some(&cat.tables), 2).unwrap();
        assert_eq!(input.pending_for(r), 1, "cursor advanced past the prefix");
        f.step_limited(Some(&cat.tables), 2).unwrap();
        assert_eq!(input.pending_for(r), 0);
        assert!(input.is_empty(), "sole reader passed: trimmed");
        // Deep backlog: the snapshot itself is budget-sized, and the cursor
        // commits past exactly the tuples served.
        let backlog: Vec<(i64, i64)> = (0..10_000).map(|i| (i, 0)).collect();
        push(&input, &backlog);
        let out = f.step_limited(Some(&cat.tables), 10).unwrap();
        assert_eq!((out.tuples_in, out.consumed), (10, 10));
        assert_eq!(input.pending_for(r), 9_990);
        let (next, _) = input.snapshot_for_reader(r, 1);
        assert_eq!(next.columns[0].as_ints().unwrap(), &[10]);
    }

    #[test]
    fn step_limited_budget_never_undercuts_min_tuples() {
        let (cat, input, _) = setup();
        let mut f = Factory::compile(
            "q",
            "select s.a from [select * from r] as s",
            &cat,
            FactoryOutput::Discard,
        )
        .unwrap();
        f.set_min_tuples(3);
        push(&input, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        // Budget 1 is clamped up to the firing threshold.
        let out = f.step_limited(Some(&cat.tables), 1).unwrap();
        assert_eq!(out.tuples_in, 3);
        assert_eq!(input.len(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let (cat, input, output) = setup();
        let f = Factory::compile(
            "q",
            "select s.a from [select * from r] as s",
            &cat,
            FactoryOutput::Basket(output),
        )
        .unwrap();
        push(&input, &[(1, 0), (2, 0)]);
        f.step(Some(&cat.tables)).unwrap();
        push(&input, &[(3, 0)]);
        f.step(Some(&cat.tables)).unwrap();
        let s = f.stats();
        assert_eq!(s.invocations, 2);
        assert_eq!(s.tuples_in, 3);
        assert_eq!(s.tuples_out, 3);
    }

    #[test]
    fn output_width_validated() {
        let (cat, _, output) = setup();
        // Plan outputs 2 columns, basket has 1 user column.
        let err = Factory::compile(
            "q",
            "select s.a, s.b from [select * from r] as s",
            &cat,
            FactoryOutput::Basket(output),
        )
        .unwrap_err();
        assert!(err.to_string().contains("width"), "{err}");
    }

    #[test]
    fn carry_ts_output() {
        let (cat, input, output) = setup();
        let f = Factory::compile(
            "q",
            "select s.a, s.ts from [select * from r] as s",
            &cat,
            FactoryOutput::Basket(Arc::clone(&output)),
        )
        .unwrap();
        push(&input, &[(1, 0)]);
        let in_ts = input.snapshot().columns[2].as_timestamps().unwrap()[0];
        f.step(Some(&cat.tables)).unwrap();
        let out_ts = output.snapshot().columns[1].as_timestamps().unwrap()[0];
        assert_eq!(in_ts, out_ts, "arrival timestamp carried through");
    }
}
