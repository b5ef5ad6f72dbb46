//! Factories: compiled continuous queries with state saved between calls
//! (§2.3, Algorithm 1).
//!
//! A factory owns the physical plan of one continuous query (or the head or
//! tail of a split plan, §3.2), references to its input baskets (data
//! inputs, each exclusive or shared, the shared ones through reader
//! cursors it owns) and an optional output basket. Where §2.4 regulates
//! firings with auxiliary token baskets, the scheduler's conflict keys
//! serialize exclusive consumers here and SQL wirings order the stages, so
//! no firing waits on a basket.
//!
//! One `step()` is one loop iteration of Algorithm 1:
//!
//! 1. snapshot the input baskets (the locks are per-basket and internal —
//!    see the concurrency note below);
//! 2. run the plan in bulk over the snapshots;
//! 3. deliver the result through the factory's [`Outbox`] — *before*
//!    consuming. A full bounded output keeps the factory from firing at
//!    all; a result the output refuses is held, with the firing's hold on
//!    its inputs, and the next firing delivers it before anything else;
//! 4. once the result is delivered, apply consumption: exclusive inputs
//!    delete exactly the tuples the basket expression referenced; shared
//!    inputs commit the range their reader claimed in step 1 (an erring
//!    step gives it back). A removed factory drops its held result and
//!    leaves the input unconsumed.
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
//! [`Transition::conflict_keys`] keys for the duration of every
//! firing, so a factory runs at most once concurrently and exclusive
//! consumers of one basket are serialized even under the parallel worker
//! pool — which is all a §2.5 cascade of disjoint predicate windows needs.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use datacell_bat::candidates::Candidates;
use datacell_engine::{execute, Catalog, Chunk, ExecOutcome};
use datacell_sql::physical::PhysicalPlan;
use datacell_sql::Schema;
use parking_lot::Mutex;

use crate::basket::{Basket, ExclusiveAnchor, ReaderId, ReaderLease};
use crate::catalog::{consumed_positions, StepSource, StreamCatalog};
use crate::error::{DataCellError, Result};
use crate::outbox::Outbox;
use crate::petri::Places;
use crate::scheduler::Transition;

/// How a factory reads one of its input baskets.
#[derive(Debug)]
pub enum InputMode {
    /// The basket expression's qualifying tuples are deleted right after
    /// the step: the whole basket for a plain `[select * from b]`, only
    /// the predicate window otherwise (§2.6).
    Exclusive,
    /// Read through the factory's own reader; tuples are removed only
    /// when every reader has passed them (§2.5). Plan sharing reads this
    /// way.
    Shared(ReaderLease),
}

/// A firing's hold on one input, from its snapshot to its delivery.
enum Cursor<C> {
    /// Layout anchor of an exclusive snapshot.
    Exclusive(ExclusiveAnchor),
    /// The shared reader's claim while the plan runs (given back if it
    /// errs), then its range, settled when the result is delivered.
    Shared(C),
}

/// A computed result's hold on the factory's inputs.
struct Owed {
    /// Per input, aligned with `inputs`.
    cursors: Vec<Cursor<Range<u64>>>,
    /// The plan's consumed positions per exclusive input.
    consumed: Vec<(String, Candidates)>,
}

/// One data input of a factory.
#[derive(Debug)]
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

/// Result of one firing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// Tuples visible in input snapshots.
    pub tuples_in: usize,
    /// Tuples removed from input baskets.
    pub consumed: usize,
    /// Result tuples delivered.
    pub produced: usize,
    /// Result tuples computed and held: the output had no room for them
    /// (the scheduler counts the firing as a deferral).
    pub held: usize,
}

/// A compiled continuous query (or plan fragment) — see module docs.
pub struct Factory {
    name: String,
    plan: PhysicalPlan,
    out_schema: Schema,
    inputs: Vec<FactoryInput>,
    outbox: Outbox,
    /// The input hold of the result `outbox` holds, if any.
    owed: Mutex<Option<Owed>>,
    /// Fire only when every data input has at least this many pending
    /// tuples (§2.4: "the system may explicitly require a basket to have a
    /// minimum of n tuples before the relevant factory may run").
    min_tuples: usize,
    /// Per input, aligned with `inputs`: the basket's `appended` count
    /// when a successful firing last examined all of it (`u64::MAX`:
    /// never). Tuples it left behind cannot qualify on a rerun, since a
    /// basket expression's window reads only its own basket's tuples.
    examined: Vec<AtomicU64>,
}

impl std::fmt::Debug for Factory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Factory")
            .field("name", &self.name)
            .field("inputs", &self.inputs.len())
            .field("output", &self.outbox.basket().map(|b| b.name()))
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
            examined: inputs.iter().map(|_| AtomicU64::new(u64::MAX)).collect(),
            inputs,
            outbox: Outbox::new(output),
            owed: Mutex::new(None),
            min_tuples: 1,
        };
        if let Some(b) = factory.outbox.basket() {
            b.check_shape(&factory.out_schema)?;
        }
        Ok(factory)
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

    /// Set the firing threshold.
    pub fn set_min_tuples(&mut self, n: usize) {
        self.min_tuples = n.max(1);
    }

    /// Firing threshold.
    pub fn min_tuples(&self) -> usize {
        self.min_tuples
    }

    /// Switch input basket `name` to the shared discipline: the factory
    /// registers a reader of its own on it (from the start of resident
    /// data) and holds it for as long as it lives, or until
    /// [`Transition::detach`]. Returns the reader.
    pub fn set_shared(&mut self, basket: &str) -> Result<ReaderId> {
        for input in &mut self.inputs {
            if input.basket.name() == basket {
                let lease = ReaderLease::register(Arc::clone(&input.basket), true);
                let id = lease.id();
                input.mode = InputMode::Shared(lease);
                return Ok(id);
            }
        }
        Err(DataCellError::Wiring(format!(
            "factory {}: no input basket {basket}",
            self.name
        )))
    }

    /// Steps 3–4: deliver `fresh` behind the held result, then consume
    /// what the delivered result owes its inputs. A refused result is held
    /// with `owes`, so nothing is consumed before it is delivered.
    fn settle(
        &self,
        owed: &mut Option<Owed>,
        tuples_in: usize,
        owes: Owed,
        fresh: Cow<'_, Chunk>,
    ) -> Result<StepOutcome> {
        let delivered = self.outbox.deliver(fresh, None);
        if self.outbox.held_rows() > 0 {
            *owed = Some(owes);
            return delivered.map(|d| StepOutcome { tuples_in, ..d });
        }
        let delivered = delivered?;
        let consumed = self.consume(owes, true)?;
        Ok(StepOutcome {
            tuples_in,
            consumed,
            ..delivered
        })
    }

    /// Step 4 (§2.6 side effect) for a `delivered` result, which otherwise
    /// gives its shared ranges back. An exclusive input counts as examined
    /// once a whole-basket snapshot had every qualifying tuple removed.
    /// Every shared range is settled even if an exclusive input errs.
    fn consume(&self, owes: Owed, delivered: bool) -> Result<usize> {
        let mut consumed = 0usize;
        let mut failure = None;
        for ((input, cursor), examined) in self.inputs.iter().zip(owes.cursors).zip(&self.examined)
        {
            match cursor {
                Cursor::Exclusive(_) if !delivered => {}
                Cursor::Exclusive(anchor) => {
                    let gone = consumed_positions(&owes.consumed, input.basket.name());
                    let qualified = gone.as_ref().map_or(0, |g| g.len());
                    let removed = gone.map(|g| input.basket.consume_exclusive(&anchor, &g));
                    let removed = match removed.transpose() {
                        Ok(removed) => removed.unwrap_or(0),
                        Err(e) => {
                            failure.get_or_insert(e);
                            continue;
                        }
                    };
                    consumed += removed;
                    if let Some(appended) = anchor.whole_at().filter(|_| removed == qualified) {
                        examined.store(appended, Ordering::Relaxed);
                    }
                }
                Cursor::Shared(range) => {
                    let done = u64::from(delivered) * (range.end - range.start);
                    if let InputMode::Shared(lease) = &input.mode {
                        lease.settle(range.start, done, range.end);
                    }
                    consumed += done as usize;
                }
            }
        }
        failure.map_or(Ok(consumed), Err)
    }
}

impl Transition for Factory {
    fn name(&self) -> &str {
        &self.name
    }

    /// Petri-net firing condition (§2.4), after the output's
    /// ([`Outbox::ready`]): every data input holds at least `min_tuples`
    /// pending tuples, and one holds something new: a shared input's
    /// pending tuples, or tuples appended to an exclusive input since a
    /// delivered firing last examined all of it (so tuples left outside a
    /// predicate window wait for the next append).
    fn ready(&self) -> bool {
        Outbox::ready([&self.outbox], || {
            let mut fresh = false;
            for (i, examined) in self.inputs.iter().zip(&self.examined) {
                let pending = match &i.mode {
                    InputMode::Exclusive => {
                        let (len, appended) = i.basket.len_and_appended();
                        fresh |= appended != examined.load(Ordering::Relaxed);
                        len
                    }
                    InputMode::Shared(lease) => {
                        fresh = true;
                        lease.pending()
                    }
                };
                if pending < self.min_tuples {
                    return false;
                }
            }
            fresh
        })
    }

    /// Fire once: snapshot → execute → deliver → consume (Algorithm 1
    /// body), processing at most `max_tuples` tuples *per data input*
    /// (`usize::MAX` for the whole backlog; a DRR ring member's budget in
    /// the scheduler). Tuples beyond the budget stay in their baskets
    /// (exclusive inputs keep them resident, shared cursors advance only
    /// past the served prefix) and are picked up by a later firing, so a
    /// budgeted step is simply a smaller batch, not a loss. The budget is
    /// clamped up to [`Factory::min_tuples`] so a firing never undercuts
    /// the configured batch threshold. A held result is delivered first,
    /// and alone.
    fn step(&self, tables: Option<&Catalog>, max_tuples: usize) -> Result<StepOutcome> {
        let mut owed = self.owed.lock();
        if let Some(owes) = owed.take() {
            let anchored = self.inputs.iter().zip(&owes.cursors).all(|(i, c)| match c {
                Cursor::Exclusive(anchor) => i.basket.anchor_holds(anchor),
                Cursor::Shared(_) => true,
            });
            if anchored {
                let none = Cow::Owned(Chunk::empty(self.out_schema.clone()));
                return self.settle(&mut owed, 0, owes, none);
            }
            // An exclusive input's head changed since the snapshot, and
            // another consumer may have taken some of its tuples: drop the
            // held result, give its input back and compute it again.
            self.outbox.discard();
            self.consume(owes, false)?;
        }
        let budget = max_tuples.max(self.min_tuples);

        // 1. Snapshot inputs, at most `budget` tuples each. `snapshots` and
        // `cursors` stay aligned with `self.inputs`. A shared input's claim
        // gives its range back if the plan errs. An exclusive snapshot is
        // anchored (see the concurrency note above) and serves a spilled
        // backlog from disk in budget-sized bites, never re-materialized.
        let mut snapshots: Vec<Arc<Chunk>> = Vec::with_capacity(self.inputs.len());
        let mut cursors = Vec::with_capacity(self.inputs.len());
        for input in &self.inputs {
            let (chunk, cursor) = match &input.mode {
                InputMode::Exclusive => {
                    let (chunk, anchor) = input.basket.snapshot_exclusive(budget);
                    (chunk, Cursor::Exclusive(anchor))
                }
                InputMode::Shared(lease) => {
                    let (chunk, claim) = lease.claim(budget);
                    (chunk, Cursor::Shared(claim))
                }
            };
            snapshots.push(chunk);
            cursors.push(cursor);
        }
        let tuples_in: usize = snapshots.iter().map(|c| c.len()).sum();

        // 2. Execute the plan over the snapshots, which it reads in place.
        let lent: Vec<(&str, &Chunk)> = self
            .inputs
            .iter()
            .zip(&snapshots)
            .map(|(input, chunk)| (input.basket.name(), &**chunk))
            .collect();
        let src = StepSource {
            snapshots: &lent,
            tables,
        };
        let ExecOutcome { chunk, consumed } = execute(&self.plan, &src)?;
        let cursors = cursors
            .into_iter()
            .map(|c| match c {
                Cursor::Exclusive(anchor) => Cursor::Exclusive(anchor),
                Cursor::Shared(claim) => Cursor::Shared(claim.keep()),
            })
            .collect();
        self.settle(&mut owed, tuples_in, Owed { cursors, consumed }, chunk)
    }

    /// The exclusive-mode inputs: a firing deletes from them, and two
    /// concurrent exclusive consumers would double-consume. A shared input
    /// is read through a private cursor and locks nothing.
    fn conflict_keys(&self) -> Vec<String> {
        self.inputs
            .iter()
            .filter(|i| matches!(i.mode, InputMode::Exclusive))
            .map(|i| i.basket.name().to_string())
            .collect()
    }

    fn places(&self) -> Places {
        Places {
            inputs: self.inputs.iter().map(|i| Arc::clone(&i.basket)).collect(),
            outputs: self.outbox.basket().into_iter().cloned().collect(),
        }
    }

    /// Release every shared input's reader, so the inputs stop keeping
    /// tuples for this factory. The scheduler calls it when the factory is
    /// removed; dropping the factory does the same.
    fn detach(&self) {
        for input in &self.inputs {
            if let InputMode::Shared(lease) = &input.mode {
                lease.release();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basket::OverflowPolicy;
    use datacell_bat::types::{DataType, Value};
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
        let out = f.step(Some(&cat.tables), usize::MAX).unwrap();
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
    fn a_failed_output_sync_delivers_once() {
        use datacell_storage::testutil::TempDir;
        use datacell_storage::SegmentStore;
        let (cat, input, output) = setup();
        let dir = TempDir::new("factory-failed-sync");
        let store = SegmentStore::open(dir.path()).unwrap();
        let bs = store.basket("out").unwrap();
        let wal = Arc::new(bs.open_wal().unwrap());
        output.set_wal_checkpoint_bytes(0);
        output.attach_storage(bs, Some(Arc::clone(&wal)));
        let f = Factory::compile(
            "q",
            "select s.a from [select * from r] as s",
            &cat,
            FactoryOutput::Basket(Arc::clone(&output)),
        )
        .unwrap();
        // The output's sync fails, the basket checkpoints its log, and
        // the firing completes: it consumes its input and is not re-fired.
        push(&input, &[(1, 0), (2, 0)]);
        wal.fail_next_sync();
        let out = f.step(Some(&cat.tables), usize::MAX).unwrap();
        assert_eq!((out.consumed, out.produced), (2, 2));
        assert!(!f.ready());
        push(&input, &[(3, 0)]);
        f.step(Some(&cat.tables), usize::MAX).unwrap();
        assert_eq!(output.snapshot().columns[0].as_ints().unwrap(), &[1, 2, 3]);
        assert_eq!(output.stats().storage_errors, 1);
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
        f.step(Some(&cat.tables), usize::MAX).unwrap();
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
    fn unmatched_leftovers_wait_for_an_append() {
        // A firing that examined the whole basket leaves (2, 50) outside
        // the predicate window: firing again would only see it again.
        let (cat, input, output) = setup();
        let f = Factory::compile(
            "q",
            "select s.a from [select * from r where r.b < 10] as s",
            &cat,
            FactoryOutput::Basket(Arc::clone(&output)),
        )
        .unwrap();
        push(&input, &[(1, 5), (2, 50)]);
        f.step(Some(&cat.tables), usize::MAX).unwrap();
        assert_eq!(input.len(), 1);
        assert!(!f.ready(), "only an unmatched tuple is left");
        push(&input, &[(3, 7)]);
        assert!(f.ready(), "an append re-arms the input");
        // A full output disables the firing. A forced one holds its
        // result and examines nothing until the result is delivered.
        output.set_capacity(Some(1), OverflowPolicy::Reject);
        assert!(!f.ready(), "a full output disables the firing");
        let forced = f.step(Some(&cat.tables), usize::MAX).unwrap();
        assert_eq!((forced.held, forced.consumed), (1, 0));
        output.set_capacity(None, OverflowPolicy::Reject);
        assert!(f.ready(), "the held result fits");
        f.step(Some(&cat.tables), usize::MAX).unwrap();
        assert!(!f.ready());
        assert_eq!(output.snapshot().columns[0].as_ints().unwrap(), &[1, 3]);
    }

    #[test]
    fn budgeted_firing_keeps_the_rest_ready() {
        let (cat, input, _) = setup();
        let f = Factory::compile(
            "q",
            "select s.a from [select * from r where r.b < 10] as s",
            &cat,
            FactoryOutput::Discard,
        )
        .unwrap();
        push(&input, &[(1, 50), (2, 50), (3, 5)]);
        f.step(Some(&cat.tables), 2).unwrap();
        assert!(f.ready(), "the budget cut the snapshot short");
        f.step(Some(&cat.tables), usize::MAX).unwrap();
        assert_eq!(input.len(), 2);
        assert!(!f.ready());
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
        let r = f.set_shared("r").unwrap();
        let r2 = input.register_reader(true); // a second reader holds tuples
        push(&input, &[(1, 0), (2, 0)]);
        f.step(Some(&cat.tables), usize::MAX).unwrap();
        // Nothing qualified, but the reader has seen both tuples...
        assert_eq!(input.pending_for(r), 0);
        // ...and they stay resident because reader 2 hasn't.
        assert_eq!(input.len(), 2);
        assert_eq!(input.pending_for(r2), 2);
    }

    #[test]
    fn deferred_shared_firing_keeps_its_input() {
        let (cat, input, output) = setup();
        let mut f = Factory::compile(
            "q",
            "select s.a from [select * from r] as s",
            &cat,
            FactoryOutput::Basket(Arc::clone(&output)),
        )
        .unwrap();
        let r = f.set_shared("r").unwrap();
        output.set_capacity(Some(1), OverflowPolicy::Reject);
        output.append_rows(&[vec![Value::Int(0)]]).unwrap();
        push(&input, &[(1, 0), (2, 0), (3, 0)]);
        assert!(!f.ready(), "a full output disables the firing");
        // A forced firing runs the plan once; the output refuses the
        // batch, so the result is held with its claim in flight: nothing
        // is consumed or trimmed.
        let forced = f.step(Some(&cat.tables), usize::MAX).unwrap();
        assert_eq!((forced.tuples_in, forced.held, forced.consumed), (3, 3, 0));
        assert_eq!(input.len(), 3, "a held result trims nothing");
        assert!(!f.ready(), "the held result waits for room");
        // The output drains: the held rows go out before anything else,
        // without a second execution (the new tuple stays pending).
        output.clear();
        push(&input, &[(4, 0)]);
        assert!(f.ready());
        let delivered = f.step(Some(&cat.tables), usize::MAX).unwrap();
        assert_eq!(
            (delivered.tuples_in, delivered.produced, delivered.consumed),
            (0, 3, 3)
        );
        assert_eq!(output.snapshot().columns[0].as_ints().unwrap(), &[1, 2, 3]);
        assert_eq!(input.pending_for(r), 1);
        output.clear();
        f.step(Some(&cat.tables), usize::MAX).unwrap();
        assert_eq!(output.snapshot().columns[0].as_ints().unwrap(), &[4]);
        assert!(input.is_empty(), "sole reader passed: trimmed");
    }

    #[test]
    fn a_sibling_consume_under_a_held_result_duplicates_nothing() {
        // Two exclusive consumers split `r` by disjoint predicate windows
        // (a §2.5 cascade); `a`'s bounded output has room for one row.
        let (cat, input, output) = setup();
        let window = |name: &str, pred: &str, output| {
            let sql = format!("select s.a from [select * from r where {pred}] as s");
            Factory::compile(name, &sql, &cat, output).unwrap()
        };
        let a = window("a", "r.b < 10", FactoryOutput::Basket(Arc::clone(&output)));
        let b = window("b", "r.b >= 10", FactoryOutput::Discard);
        output.append_rows(&[vec![Value::Int(0)]]).unwrap();
        output.set_capacity(Some(2), OverflowPolicy::Reject);
        push(&input, &[(1, 50), (2, 5), (3, 60), (4, 7)]);
        assert_eq!(a.step(Some(&cat.tables), usize::MAX).unwrap().held, 2);
        // `b` deletes the tuples between `a`'s, renumbering the rest.
        b.step(Some(&cat.tables), usize::MAX).unwrap();
        assert_eq!(input.len(), 2);
        output.clear();
        while a.ready() {
            a.step(Some(&cat.tables), usize::MAX).unwrap();
        }
        assert_eq!(output.snapshot().columns[0].as_ints().unwrap(), &[2, 4]);
        assert!(input.is_empty());
    }

    #[test]
    fn a_whole_basket_consume_under_a_held_result_duplicates_nothing() {
        // Two exclusive consumers of all of `r`; `a`'s bounded output has
        // room for one row, so `a` holds its result.
        let (mut cat, input, output) = setup();
        let other = cat
            .create_basket("other", Schema::new(vec![("a".into(), DataType::Int)]))
            .unwrap();
        let whole = |name: &str, output: &Arc<Basket>| {
            let sql = "select s.a from [select * from r] as s";
            let output = FactoryOutput::Basket(Arc::clone(output));
            Factory::compile(name, sql, &cat, output).unwrap()
        };
        let (a, b) = (whole("a", &output), whole("b", &other));
        output.append_rows(&[vec![Value::Int(0)]]).unwrap();
        output.set_capacity(Some(2), OverflowPolicy::Reject);
        push(&input, &[(1, 0), (2, 0)]);
        assert_eq!(a.step(Some(&cat.tables), usize::MAX).unwrap().held, 2);
        // `b` takes every tuple, a prefix: the head moves, no hole is left.
        assert_eq!(b.step(Some(&cat.tables), usize::MAX).unwrap().consumed, 2);
        push(&input, &[(3, 0)]);
        output.clear();
        while a.ready() {
            a.step(Some(&cat.tables), usize::MAX).unwrap();
        }
        assert_eq!(output.snapshot().columns[0].as_ints().unwrap(), &[3]);
        assert_eq!(other.snapshot().columns[0].as_ints().unwrap(), &[1, 2]);
        assert!(input.is_empty());
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
        let out = f.step(Some(&cat.tables), 2).unwrap();
        assert_eq!((out.tuples_in, out.consumed, out.produced), (2, 2, 2));
        assert_eq!(input.snapshot().columns[0].as_ints().unwrap(), &[3, 4, 5]);
        assert_eq!(output.snapshot().columns[0].as_ints().unwrap(), &[1, 2]);
        // The remainder is served by later firings; no loss, no reorder.
        f.step(Some(&cat.tables), 2).unwrap();
        f.step(Some(&cat.tables), 2).unwrap();
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
        let r = f.set_shared("r").unwrap();
        push(&input, &[(1, 0), (2, 0), (3, 0)]);
        f.step(Some(&cat.tables), 2).unwrap();
        assert_eq!(input.pending_for(r), 1, "cursor advanced past the prefix");
        f.step(Some(&cat.tables), 2).unwrap();
        assert_eq!(input.pending_for(r), 0);
        assert!(input.is_empty(), "sole reader passed: trimmed");
        // Deep backlog: the snapshot itself is budget-sized, and the cursor
        // commits past exactly the tuples served.
        let backlog: Vec<(i64, i64)> = (0..10_000).map(|i| (i, 0)).collect();
        push(&input, &backlog);
        let out = f.step(Some(&cat.tables), 10).unwrap();
        assert_eq!((out.tuples_in, out.consumed), (10, 10));
        assert_eq!(input.pending_for(r), 9_990);
        let (next, ..) = input.claim_for_reader(r, 1);
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
        let out = f.step(Some(&cat.tables), 1).unwrap();
        assert_eq!(out.tuples_in, 3);
        assert_eq!(input.len(), 1);
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
        f.step(Some(&cat.tables), usize::MAX).unwrap();
        let out_ts = output.snapshot().columns[1].as_timestamps().unwrap()[0];
        assert_eq!(in_ts, out_ts, "arrival timestamp carried through");
    }
}
