//! Baskets: the key data structure of the DataCell (§2.2).
//!
//! A basket holds a portion of a stream as a temporary main-memory table —
//! one column per attribute plus the implicit `ts` timestamp column that
//! records when each tuple entered the system. Receptors append, factories
//! consume, and "careful management of the baskets ensures that one
//! factory, receptor or emitter at a time updates a given basket"
//! (§2.3) — here a [`parking_lot::Mutex`] held for the whole factory step.
//!
//! **One append splice.** Four entry points — [`Basket::append_rows`] /
//! [`Basket::append_chunk`] and their non-waiting `try_` twins — feed one
//! private admit → fill → WAL → spill loop. Rows are validated, coerced
//! and transposed into columns *before* the basket lock is taken; the lock
//! covers the splice only. A chunk carries its arrival times **by shape**:
//! `user_width` columns are stamped with the current engine time,
//! `user_width + 1` columns ending in a timestamp column carry that column
//! through as `ts` (factory outputs preserving end-to-end latency), and
//! any other shape is a wiring error.
//!
//! **Two consumption disciplines.** Every shared consumer — a plan-share
//! head (the §2.5 shared strategy and the §3.2 split head), a tail on its
//! intermediate, a subscription, a window evaluator — registers a *reader*
//! and holds an oid cursor into the stream. A tuple is physically removed
//! only once every registered reader's watermark has passed it: "a tuple
//! remains in its basket until all relevant factories have seen it" (§2.5).
//! Exclusively-owned baskets instead take the paper's basket-expression
//! side effect (a predicate window may delete a *subset*, §2.6) through
//! one pair, [`Basket::snapshot_exclusive`] + [`Basket::consume_exclusive`]:
//! factory steps, one-time `SELECT`s and control tokens alike. The pair is
//! anchored, so it survives concurrent sheds, and segment-aware, so it
//! never pulls a spilled backlog back into memory.
//!
//! Readers come in two flavours:
//!
//! * **snapshot/commit** ([`Basket::snapshot_for_reader`] +
//!   [`Basket::commit_reader`]) — for transitions the scheduler fires at
//!   most once concurrently (factories, windows);
//! * **claim/commit/rewind** ([`Basket::claim_for_reader`] +
//!   [`Basket::commit_claim`] / [`Basket::rewind_claim`]) — for
//!   subscribers: a claim atomically hands a range to one consumer
//!   (competing subscribers sharing a [`ReaderId`] never double-deliver),
//!   while the trim watermark is held at the oldest *unacknowledged* claim
//!   so a failed delivery can rewind and be re-claimed instead of being
//!   lost.
//!
//! **Bounded capacity.** A basket may carry a tuple capacity with an
//! [`OverflowPolicy`], and the basket alone applies it: every producer
//! (writers, factories, the wire receptor's writer) only appends, so
//! backpressure propagates end-to-end: a full basket blocks its writer,
//! and a blocked writer stalls the source.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

use datacell_bat::candidates::Candidates;
use datacell_bat::column::Column;
use datacell_bat::types::{DataType, Value};
use datacell_engine::Chunk;
use datacell_sql::{ColumnDef, Schema};
use datacell_storage::{BasketStore, SegmentMeta, Wal};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::clock::now_micros;
use crate::error::{DataCellError, Result};
use crate::events::{EventKind, EventRing};

/// Name of the implicit arrival-timestamp column.
pub const TS_COLUMN: &str = "ts";

/// Default WAL size (bytes) past which an append triggers a live
/// checkpoint ([`Basket::set_wal_checkpoint_bytes`]).
pub const DEFAULT_WAL_CHECKPOINT_BYTES: u64 = 8 * 1024 * 1024;

/// What a bounded basket does when an append would exceed its capacity.
///
/// An all-or-nothing append (`Reject`, or the non-waiting
/// [`Basket::try_append_chunk`] family under `Block`) of a batch larger
/// than the capacity is admitted whole once the basket is empty: the
/// bound then caps the *standing backlog*, not a single batch (otherwise
/// such a producer could never make progress). A waiting `Block` append
/// never exceeds the capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// The appending thread waits until readers release space
    /// (bounded-queue backpressure). Oversized batches land in
    /// capacity-sized slices as room frees up. Scheduler-driven producers
    /// use the non-waiting [`Basket::try_append_chunk`] family instead,
    /// turning a full basket into a deferral rather than a blocked
    /// scheduler thread.
    #[default]
    Block,
    /// Fail the append with [`DataCellError::Backpressure`] without
    /// admitting any row of the batch (full-or-nothing, so a retry never
    /// duplicates a prefix).
    Reject,
    /// Admit the new tuples and drop the oldest resident ones (load
    /// shedding); sheds are counted in [`BasketStats::shed`]. Readers that
    /// had not yet seen a shed tuple skip over it. The bound is strict:
    /// an over-capacity batch keeps only its newest `capacity` tuples.
    ShedOldest,
    /// Admit everything, but keep at most `mem_rows` tuples resident in
    /// memory: when the backlog exceeds the budget, the *head* (oldest
    /// unconsumed rows) is sealed into on-disk segment files and
    /// transparently re-read by the reader-cursor API — `claim`/`commit`/
    /// `rewind` and reader snapshots behave identically across the
    /// memory/disk boundary, and the low-watermark trim deletes a segment
    /// file once every reader has passed it. Lossless (nothing is shed)
    /// and non-blocking (producers never stall), at the price of disk I/O
    /// under overload. Requires a session `data_dir`
    /// ([`DataCellBuilder::data_dir`](crate::client::DataCellBuilder::data_dir));
    /// spill counters surface in
    /// [`MetricsSnapshot::storage`](crate::metrics::MetricsSnapshot).
    Spill {
        /// In-memory tuple budget (clamped to ≥ 1). The engine spills down
        /// to half the budget at a time, so segments carry reasonable runs
        /// instead of single rows.
        mem_rows: usize,
    },
}

/// A refusing bounded basket's occupancy ([`Basket::append_room`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendRoom {
    /// Tuples resident in memory.
    pub resident: usize,
    /// The configured capacity.
    pub capacity: usize,
}

impl AppendRoom {
    /// Whether one non-waiting append of `taken + rows` tuples is admitted
    /// — `taken` of them already promised to it — by the [`OverflowPolicy`]
    /// rules: it fits under the capacity, or the basket is empty and
    /// `rows` is the append's first part, which it then takes whole.
    pub fn admits(&self, taken: usize, rows: usize) -> bool {
        taken + rows <= self.capacity.saturating_sub(self.resident)
            || (taken == 0 && self.resident == 0)
    }
}

/// Whether a basket's contents survive a restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// In-memory only (the historical behavior): a restart loses resident
    /// tuples.
    #[default]
    Ephemeral,
    /// Every append is written to a per-basket WAL with group-commit
    /// batching before the append returns, and head-trims/consumptions are
    /// logged too, so
    /// [`DataCell::recover`](crate::DataCell::recover) can rebuild the
    /// basket's exact contents (and its `appended`/`consumed` accounting
    /// baselines) after a crash. Requires a session `data_dir`.
    Persistent,
}

/// Monotone counters describing a basket's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BasketStats {
    /// Tuples ever appended.
    pub appended: u64,
    /// Tuples ever removed (consumed or trimmed).
    pub consumed: u64,
    /// Tuples dropped by [`OverflowPolicy::ShedOldest`] (resident tuples
    /// evicted plus incoming tuples skipped by an over-capacity batch).
    pub shed: u64,
    /// Append calls that encountered a full basket (counted once per
    /// append call, however long it waited or however often it retried).
    pub overflow_events: u64,
    /// Tuples moved from memory to on-disk segments by
    /// [`OverflowPolicy::Spill`] (a tuple spilled twice counts twice).
    pub spilled: u64,
    /// Storage-layer failures observed while spilling or re-reading
    /// segments. A failed segment *read* leaves the affected rows pending
    /// (never served corrupt, never skipped); a failed spill *write* keeps
    /// the rows in memory.
    pub storage_errors: u64,
}

/// A version-counter signal used to wake the scheduler and emitters when a
/// basket changes.
#[derive(Debug, Default)]
pub struct Signal {
    version: Mutex<u64>,
    cv: Condvar,
}

impl Signal {
    /// Fresh signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump the version and wake all waiters.
    pub fn notify(&self) {
        let mut v = self.version.lock();
        *v += 1;
        self.cv.notify_all();
    }

    /// Current version (pair with [`Signal::wait_past`]).
    pub fn version(&self) -> u64 {
        *self.version.lock()
    }

    /// Block until the version exceeds `seen` or `timeout` elapses.
    /// Returns the version observed on wakeup.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        let mut v = self.version.lock();
        if *v > seen {
            return *v;
        }
        let _ = self.cv.wait_for(&mut v, timeout);
        *v
    }
}

/// Identifier of a registered reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReaderId(u32);

/// A reader registered on a basket for as long as the lease lives:
/// dropping it deregisters the reader, releasing its hold on the trim
/// watermark. Subscribers share one through an `Arc` when they share the
/// reader (a competing-consumer pool).
#[derive(Debug)]
pub(crate) struct ReaderLease {
    basket: Arc<Basket>,
    id: ReaderId,
}

impl ReaderLease {
    /// Register a reader on `basket` (see [`Basket::register_reader`]).
    pub(crate) fn register(basket: Arc<Basket>, from_start: bool) -> Self {
        let id = basket.register_reader(from_start);
        ReaderLease { basket, id }
    }

    /// The basket read.
    pub(crate) fn basket(&self) -> &Arc<Basket> {
        &self.basket
    }

    /// The registered reader.
    pub(crate) fn id(&self) -> ReaderId {
        self.id
    }
}

impl Drop for ReaderLease {
    fn drop(&mut self) {
        self.basket.unregister_reader(self.id);
    }
}

/// Per-reader cursor state. `cursor` is the next oid the reader will see;
/// `inflight` holds claimed-but-unacknowledged ranges. The reader's
/// *watermark* — the oid below which it releases tuples for trimming — is
/// the start of its oldest in-flight claim, or `cursor` when nothing is in
/// flight.
#[derive(Debug, Default, Clone)]
struct ReaderState {
    cursor: u64,
    inflight: Vec<(u64, u64)>,
}

impl ReaderState {
    fn watermark(&self) -> u64 {
        // The cursor participates in the min: a rewind can move it *below*
        // a still-in-flight later claim, and the rewound range must stay
        // resident until it is re-claimed and acknowledged.
        self.inflight
            .iter()
            .map(|r| r.0)
            .chain(std::iter::once(self.cursor))
            .min()
            .expect("chain is non-empty")
    }
}

/// Anchor from [`Basket::snapshot_exclusive`]: the snapshot's position in
/// the stream and the layout epoch it was taken under, so the matching
/// [`Basket::consume_exclusive`] can apply snapshot-relative positions
/// directly (fast path) or detect a layout change and fall back to the
/// shift-corrected anchored path.
#[derive(Debug, Clone)]
pub struct ExclusiveAnchor {
    /// Oid of the snapshot's first row.
    base: u64,
    /// Basket epoch at snapshot time.
    epoch: u64,
    /// Tuples covered by the snapshot.
    rows: usize,
}

/// Outcome of one locked slice attempt: either the slice itself, or the
/// spill segment that must be decoded (outside the lock) before retrying.
enum CursorSlice {
    /// `(chunk, start_oid, end_oid)` — the slice, ready to serve.
    Ready(Chunk, u64, u64),
    /// The cursor sits in this spilled segment and the one-segment cache
    /// missed: decode it without holding the basket lock, install, retry.
    NeedSegment(SegmentMeta, BasketStore),
}

/// The on-disk head of a spilling basket: sealed segments covering the
/// contiguous oid range `[segments.front().base_oid, Inner::base_oid)`,
/// plus a one-segment decode cache so a reader draining a segment pays
/// one decode, not one per claim.
#[derive(Debug)]
struct SpillState {
    store: BasketStore,
    segments: VecDeque<SegmentMeta>,
    /// Rows across all segments (kept in sync with `segments`).
    rows: u64,
    /// Most recently decoded segment, keyed by its base oid.
    cache: Option<(u64, Arc<Chunk>)>,
    /// A seal is in flight *outside* the basket lock (see
    /// [`Basket::finish_spill`]): at most one at a time, so concurrent
    /// appenders don't race to seal overlapping head snapshots.
    sealing: bool,
}

impl SpillState {
    fn new(store: BasketStore) -> Self {
        SpillState {
            store,
            segments: VecDeque::new(),
            rows: 0,
            cache: None,
            sealing: false,
        }
    }

    fn head_oid(&self) -> Option<u64> {
        self.segments.front().map(|s| s.base_oid)
    }

    /// The cached decode of `meta`, if it is the warm segment. The cache
    /// holds an `Arc`, so a hit is a refcount bump, not a deep copy.
    fn cached(&self, meta: &SegmentMeta) -> Option<Arc<Chunk>> {
        self.cache
            .as_ref()
            .filter(|(b, _)| *b == meta.base_oid)
            .map(|(_, c)| Arc::clone(c))
    }

    /// Release a segment already unlinked from `segments`: its rows leave
    /// the on-disk count, a cached decode of it is invalidated and the
    /// file is deleted.
    fn drop_segment(&mut self, meta: &SegmentMeta, basket: &str) {
        self.rows -= meta.rows;
        if self.cached(meta).is_some() {
            self.cache = None;
        }
        if let Err(e) = self.store.delete_segment(meta) {
            eprintln!("basket {basket}: deleting segment: {e}");
        }
    }
}

/// A head snapshot awaiting its disk seal, produced under the basket lock
/// by [`Basket::spill_job`] and consumed outside it by
/// [`Basket::finish_spill`] (publish-then-drop; see there for the epoch
/// protocol).
struct SpillJob {
    store: BasketStore,
    /// `Inner::base_oid` at snapshot time — the sealed segment's base.
    base: u64,
    /// Rows `[0, n)` of the in-memory columns, copied out.
    chunk: Chunk,
    /// How many head rows to drop from memory on publication.
    n: usize,
    /// `Inner::epoch` at snapshot time; publication requires a match.
    epoch: u64,
}

#[derive(Debug)]
struct Inner {
    /// User columns followed by the `ts` column.
    columns: Vec<Column>,
    /// Oid of the first *in-memory* tuple. Under [`OverflowPolicy::Spill`]
    /// older tuples may live below it, on disk (`spill`).
    base_oid: u64,
    /// Registered readers' cursors (absolute oids).
    readers: HashMap<ReaderId, ReaderState>,
    next_reader: u32,
    /// Tuple capacity; `None` = unbounded.
    capacity: Option<usize>,
    policy: OverflowPolicy,
    stats: BasketStats,
    /// On-disk head segments (attached when the session has a data dir).
    spill: Option<SpillState>,
    /// Durability log (attached for [`Durability::Persistent`] baskets).
    wal: Option<Arc<Wal>>,
    /// Bumped on every head mutation (shed, trim, consume, clear, restore,
    /// unspill) — anything that invalidates a head snapshot taken for an
    /// in-flight seal. [`Basket::finish_spill`] publishes its segment only
    /// if the epoch still matches; otherwise the sealed file is orphaned
    /// and deleted. Tail appends do *not* bump it.
    epoch: u64,
}

impl Inner {
    /// In-memory resident rows.
    fn mem_len(&self) -> usize {
        self.columns[0].len()
    }

    /// Rows spilled to disk (below `base_oid`).
    fn spilled_rows(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.rows)
    }

    /// Logical resident rows: on-disk head plus in-memory tail.
    fn total_len(&self) -> usize {
        self.spilled_rows() as usize + self.mem_len()
    }

    /// Oid of the oldest live row (disk or memory).
    fn head_oid(&self) -> u64 {
        self.spill
            .as_ref()
            .and_then(SpillState::head_oid)
            .unwrap_or(self.base_oid)
    }

    fn end_oid(&self) -> u64 {
        self.base_oid + self.mem_len() as u64
    }

    /// Next oid reader `r` will see, clamped to the oldest live row (an
    /// unknown reader reads from the head).
    fn cursor_of(&self, r: ReaderId) -> u64 {
        let head = self.head_oid();
        self.readers.get(&r).map_or(head, |rs| rs.cursor.max(head))
    }

    /// Drop the `n` oldest *in-memory* tuples (shed), skipping readers
    /// past them and clipping in-flight claims. (`ShedOldest` and `Spill`
    /// are mutually exclusive policies, so the shed head is always the
    /// memory head.)
    fn shed_head(&mut self, n: usize) {
        let n = n.min(self.mem_len());
        if n == 0 {
            return;
        }
        for c in &mut self.columns {
            c.drop_head(n);
        }
        self.base_oid += n as u64;
        self.epoch += 1;
        let base = self.base_oid;
        for rs in self.readers.values_mut() {
            rs.cursor = rs.cursor.max(base);
            rs.inflight.retain(|&(_, e)| e > base);
            for r in &mut rs.inflight {
                r.0 = r.0.max(base);
            }
        }
        self.stats.shed += n as u64;
        if let Some(wal) = self.wal.clone() {
            if let Err(e) = wal.append_trim(self.base_oid) {
                self.stats.storage_errors += 1;
                eprintln!("wal trim record failed: {e}");
            }
        }
    }

    /// Slice rows `[from, to)` of the in-memory columns as a chunk.
    fn mem_slice(&self, schema: &Schema, from: usize, to: usize) -> Chunk {
        Chunk {
            schema: schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| c.slice(from, to).expect("slice within bounds"))
                .collect(),
        }
    }
}

/// Append rows `[from, to)` of each `src` column onto the matching `dst`
/// column; a whole-column range skips the intermediate slice copy.
fn append_range(dst: &mut [Column], src: &[Column], from: usize, to: usize) -> Result<()> {
    for (d, s) in dst.iter_mut().zip(src) {
        if from == 0 && to == s.len() {
            d.append_column(s)?;
        } else {
            d.append_column(&s.slice(from, to)?)?;
        }
    }
    Ok(())
}

/// How much of a pending batch the basket admits right now.
enum Admission {
    /// Skip `shed` incoming tuples (counted as shed), append `take`.
    Take { shed: usize, take: usize },
    /// Full under [`OverflowPolicy::Block`]: wait for space and retry.
    Wait,
}

/// A stream buffer (see module docs). Shareable across threads via `Arc`.
#[derive(Debug)]
pub struct Basket {
    name: String,
    schema: Schema,
    inner: Mutex<Inner>,
    signal: Arc<Signal>,
    /// Optional aggregated signal (the scheduler's): notified alongside the
    /// basket's own signal so one waiter can watch every basket.
    parent_signal: Mutex<Option<Arc<Signal>>>,
    /// WAL size threshold (bytes) past which an append triggers a live
    /// checkpoint; `0` disables live checkpointing.
    wal_checkpoint_bytes: AtomicU64,
    /// Optional engine-event ring (the session's): overflow decisions,
    /// sheds, spill seals and WAL checkpoints are traced into it.
    events: Mutex<Option<Arc<EventRing>>>,
    /// Set once the basket's producer is gone for good ([`Basket::close`]):
    /// its query was dropped or its session stopped.
    closed: AtomicBool,
}

impl Basket {
    /// Create an unbounded basket with the given *user* schema; the
    /// implicit [`TS_COLUMN`] is appended. Rejects user columns named `ts`.
    pub fn new(name: impl Into<String>, user_schema: Schema) -> Result<Self> {
        Self::bounded(name, user_schema, None, OverflowPolicy::Block)
    }

    /// Create a basket with an optional tuple capacity and overflow policy.
    pub fn bounded(
        name: impl Into<String>,
        user_schema: Schema,
        capacity: Option<usize>,
        policy: OverflowPolicy,
    ) -> Result<Self> {
        let name = name.into();
        if user_schema.index_of(TS_COLUMN).is_some() {
            return Err(DataCellError::Catalog(format!(
                "basket {name}: column name '{TS_COLUMN}' is reserved for the implicit \
                 timestamp column"
            )));
        }
        let mut schema = user_schema;
        schema
            .columns
            .push(ColumnDef::new(TS_COLUMN, DataType::Timestamp));
        let columns = schema.columns.iter().map(|c| Column::empty(c.ty)).collect();
        Ok(Basket {
            name,
            schema,
            inner: Mutex::new(Inner {
                columns,
                base_oid: 0,
                readers: HashMap::new(),
                next_reader: 0,
                capacity: capacity.map(|c| c.max(1)),
                policy,
                stats: BasketStats::default(),
                spill: None,
                wal: None,
                epoch: 0,
            }),
            signal: Arc::new(Signal::new()),
            parent_signal: Mutex::new(None),
            wal_checkpoint_bytes: AtomicU64::new(DEFAULT_WAL_CHECKPOINT_BYTES),
            events: Mutex::new(None),
            closed: AtomicBool::new(false),
        })
    }

    /// Mark the basket closed and wake its waiters: readers that see
    /// [`Basket::is_closed`] stop claiming (a subscription then reports
    /// [`DataCellError::Disconnected`]). Resident tuples stay readable.
    pub(crate) fn close(&self) {
        self.closed.store(true, AtomicOrdering::Release);
        self.notify();
    }

    /// True once [`Basket::close`] has been called.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(AtomicOrdering::Acquire)
    }

    /// Set the live WAL checkpoint threshold: once the log file exceeds
    /// `bytes`, the next append compacts it in place to a baseline plus
    /// the basket's current contents (see [`Wal::checkpoint`]). `0`
    /// disables live checkpointing (compaction then only happens at
    /// recovery, the pre-checkpoint behavior). Default:
    /// [`DEFAULT_WAL_CHECKPOINT_BYTES`].
    pub fn set_wal_checkpoint_bytes(&self, bytes: u64) {
        self.wal_checkpoint_bytes
            .store(bytes, AtomicOrdering::Relaxed);
    }

    /// Attach the basket's slice of the on-disk store: `store` receives
    /// spill segments under [`OverflowPolicy::Spill`], and `wal` (for
    /// [`Durability::Persistent`] baskets) receives every append before it
    /// is acknowledged plus trim/consume accounting records. Normally done
    /// by the session when it creates a basket under a configured
    /// `data_dir`.
    pub fn attach_storage(&self, store: BasketStore, wal: Option<Arc<Wal>>) {
        let mut inner = self.inner.lock();
        inner.spill = Some(SpillState::new(store));
        inner.wal = wal;
    }

    /// True iff a store/WAL is attached.
    pub fn has_storage(&self) -> bool {
        self.inner.lock().spill.is_some()
    }

    /// True iff appends are WAL-logged ([`Durability::Persistent`]).
    pub fn is_persistent(&self) -> bool {
        self.inner.lock().wal.is_some()
    }

    /// Replace the resident contents wholesale — the recovery path.
    /// `chunk` carries the full width including `ts`; `base_oid` is the
    /// oid of its first row; `appended`/`consumed` restore the accounting
    /// baselines (receptor `SYNC`-style totals keep counting from where
    /// the previous run left off).
    pub(crate) fn restore_contents(
        &self,
        chunk: Chunk,
        base_oid: u64,
        appended: u64,
        consumed: u64,
    ) -> Result<()> {
        if chunk.schema.len() != self.schema.len()
            || chunk
                .schema
                .columns
                .iter()
                .zip(&self.schema.columns)
                .any(|(a, b)| a.ty != b.ty)
        {
            return Err(DataCellError::Wiring(format!(
                "basket {}: recovered contents do not match the schema",
                self.name
            )));
        }
        {
            let mut inner = self.inner.lock();
            inner.columns = chunk.columns;
            inner.base_oid = base_oid;
            inner.epoch += 1;
            inner.stats.appended = appended;
            inner.stats.consumed = consumed;
        }
        self.notify();
        Ok(())
    }

    /// Basket name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Full schema including the trailing `ts` column.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Width without the `ts` column.
    pub fn user_width(&self) -> usize {
        self.schema.len() - 1
    }

    /// The change signal (subscribe for wakeups).
    pub fn signal(&self) -> Arc<Signal> {
        Arc::clone(&self.signal)
    }

    /// Attach an aggregated signal (e.g. the scheduler's) that is notified
    /// on every change alongside the basket's own signal.
    pub fn set_parent_signal(&self, parent: Arc<Signal>) {
        *self.parent_signal.lock() = Some(parent);
    }

    /// Attach an engine-event ring (e.g. the session's): overflow, shed,
    /// spill-seal and WAL-checkpoint decisions on this basket are traced
    /// into it.
    pub fn set_events(&self, events: Arc<EventRing>) {
        *self.events.lock() = Some(events);
    }

    /// Trace an event if a ring is attached; `detail` is only rendered
    /// when it is.
    fn record_event(&self, kind: EventKind, detail: impl FnOnce() -> String) {
        if let Some(ring) = self.events.lock().as_ref() {
            ring.record(kind, detail());
        }
    }

    fn notify(&self) {
        self.signal.notify();
        if let Some(p) = self.parent_signal.lock().as_ref() {
            p.notify();
        }
    }

    // ----------------------- capacity / overflow -----------------------

    /// (Re)configure the tuple capacity and overflow policy at runtime.
    /// Under [`OverflowPolicy::Spill`] the basket is logically unbounded
    /// (the `mem_rows` budget bounds *memory*, not the stream), so any
    /// capacity is ignored — writers and receptors must never observe a
    /// full basket and fall back to shedding or rejecting.
    pub fn set_capacity(&self, capacity: Option<usize>, policy: OverflowPolicy) {
        {
            let mut inner = self.inner.lock();
            inner.capacity = if matches!(policy, OverflowPolicy::Spill { .. }) {
                None
            } else {
                capacity.map(|c| c.max(1))
            };
            inner.policy = policy;
        }
        // Raising the cap may unblock waiting appenders.
        self.notify();
    }

    /// Configured tuple capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.inner.lock().capacity
    }

    /// Configured overflow policy.
    pub fn overflow_policy(&self) -> OverflowPolicy {
        self.inner.lock().policy
    }

    /// Occupancy as a non-waiting append ([`Basket::try_append_chunk`])
    /// sees it: `None` when no batch is ever refused for its size (no
    /// capacity, or a `ShedOldest`/`Spill` policy).
    pub fn append_room(&self) -> Option<AppendRoom> {
        let inner = self.inner.lock();
        if matches!(
            inner.policy,
            OverflowPolicy::ShedOldest | OverflowPolicy::Spill { .. }
        ) {
            return None;
        }
        Some(AppendRoom {
            resident: inner.mem_len(),
            capacity: inner.capacity?,
        })
    }

    /// Decide how much of a `want`-tuple batch is admitted under the
    /// capacity/overflow configuration. Called with the inner lock held.
    /// `blocking` producers may be told to wait; non-blocking (scheduler
    /// thread) producers get all-or-nothing so a deferred step can retry
    /// without duplicating a prefix. `counted` dedupes the overflow-event
    /// stat to once per append call.
    fn admit(
        &self,
        inner: &mut Inner,
        want: usize,
        blocking: bool,
        counted: &mut bool,
    ) -> Result<Admission> {
        // Spill admits everything: the memory bound is enforced *after*
        // the append by moving the head to disk, so producers never block,
        // nothing is rejected, and nothing is shed.
        if matches!(inner.policy, OverflowPolicy::Spill { .. }) {
            return Ok(Admission::Take {
                shed: 0,
                take: want,
            });
        }
        let Some(cap) = inner.capacity else {
            return Ok(Admission::Take {
                shed: 0,
                take: want,
            });
        };
        let resident = inner.mem_len();
        let room = cap.saturating_sub(resident);
        if room >= want {
            return Ok(Admission::Take {
                shed: 0,
                take: want,
            });
        }
        if !*counted {
            inner.stats.overflow_events += 1;
            *counted = true;
            self.record_event(EventKind::Overflow, || {
                format!(
                    "{}: {resident} resident / capacity {cap}, batch of {want} under {:?}",
                    self.name, inner.policy
                )
            });
        }
        // An empty basket admits an over-capacity all-or-nothing batch
        // whole — otherwise a producer whose batch exceeds the capacity
        // could never progress. A waiting `Block` producer instead lands
        // it in capacity slices below, so the bound holds for it.
        if resident == 0
            && (inner.policy == OverflowPolicy::Reject
                || (inner.policy == OverflowPolicy::Block && !blocking))
        {
            return Ok(Admission::Take {
                shed: 0,
                take: want,
            });
        }
        match inner.policy {
            OverflowPolicy::Block => {
                if !blocking {
                    Err(DataCellError::Backpressure {
                        basket: self.name.clone(),
                        resident,
                        capacity: cap,
                    })
                } else if room > 0 {
                    Ok(Admission::Take {
                        shed: 0,
                        take: room,
                    })
                } else {
                    Ok(Admission::Wait)
                }
            }
            OverflowPolicy::Reject => Err(DataCellError::Backpressure {
                basket: self.name.clone(),
                resident,
                capacity: cap,
            }),
            OverflowPolicy::ShedOldest => {
                // Admit the newest `min(want, cap)` incoming tuples; evict
                // residents (and skip incoming overflow) so the post-append
                // residency lands at ≤ cap — even when a runtime
                // `set_capacity` left more residents than the new bound.
                let take = want.min(cap);
                let skip = want - take;
                let evict = (resident + take).saturating_sub(cap);
                inner.shed_head(evict);
                inner.stats.shed += skip as u64;
                self.record_event(EventKind::Shed, || {
                    format!(
                        "{}: dropped {} tuples ({evict} resident, {skip} incoming)",
                        self.name,
                        evict + skip
                    )
                });
                Ok(Admission::Take { shed: skip, take })
            }
            OverflowPolicy::Spill { .. } => unreachable!("spill admits everything above"),
        }
    }

    // -------------------------- spill / wal ---------------------------

    /// Log the newest `take` in-memory rows to the WAL. Called with the
    /// inner lock held so record order matches oid order; the returned
    /// `(wal, seq)` is the group-commit sync target, awaited *after* the
    /// lock is released. A failed log **rolls the un-logged rows back
    /// out** before returning the error — they were never visible outside
    /// the lock, so the producer's retry of the failed batch cannot
    /// duplicate.
    fn log_rows_or_roll_back(
        &self,
        inner: &mut Inner,
        take: usize,
    ) -> Result<Option<(Arc<Wal>, u64)>> {
        let Some(wal) = inner.wal.clone() else {
            return Ok(None);
        };
        let len = inner.mem_len();
        let chunk = inner.mem_slice(&self.schema, len - take, len);
        match wal.append_rows(&chunk) {
            Ok(seq) => Ok(Some((wal, seq))),
            Err(e) => {
                for c in &mut inner.columns {
                    *c = c.slice(0, len - take).expect("truncate to prefix");
                }
                inner.stats.appended -= take as u64;
                inner.stats.storage_errors += 1;
                Err(DataCellError::Storage(format!(
                    "basket {}: wal append failed (batch rolled back): {e}",
                    self.name
                )))
            }
        }
    }

    /// Block until WAL record `seq` is durable (group commit with any
    /// concurrent committers). On a sync error the rows are already
    /// resident and logged — only the *durability confirmation* failed —
    /// so the error means "not confirmed durable", not "not appended";
    /// re-appending the batch would duplicate it.
    fn await_durable(&self, synced: Option<(Arc<Wal>, u64)>) -> Result<()> {
        if let Some((wal, seq)) = synced {
            wal.sync_to(seq).map_err(|e| {
                self.inner.lock().stats.storage_errors += 1;
                DataCellError::Storage(format!("basket {}: wal sync failed: {e}", self.name))
            })?;
        }
        Ok(())
    }

    /// Live WAL compaction (the PR-5 "compaction only happens at
    /// recovery" corner): when the log has grown past the checkpoint
    /// threshold, rewrite it in place as a baseline plus one rows record
    /// holding the full logical contents, truncating every record behind
    /// it (see [`Wal::checkpoint`]). Runs under the basket lock so the
    /// cut is consistent with the log; a failed segment decode or
    /// checkpoint write skips the compaction (counted) and a later append
    /// retries it.
    fn maybe_checkpoint_wal(&self, inner: &mut Inner) {
        let Some(wal) = inner.wal.clone() else {
            return;
        };
        let threshold = self.wal_checkpoint_bytes.load(AtomicOrdering::Relaxed);
        if threshold == 0 || wal.bytes_written() < threshold {
            return;
        }
        let (chunk, complete) = self.stitch(inner, usize::MAX);
        if !complete {
            return;
        }
        let appended = inner.stats.appended - chunk.len() as u64;
        let base = inner.head_oid();
        match wal.checkpoint(appended, inner.stats.consumed, base, &chunk) {
            Ok(()) => self.record_event(EventKind::WalCheckpoint, || {
                format!(
                    "{}: compacted to {} resident tuples",
                    self.name,
                    chunk.len()
                )
            }),
            Err(e) => {
                inner.stats.storage_errors += 1;
                eprintln!("basket {}: wal checkpoint failed: {e}", self.name);
            }
        }
    }

    /// Decode spilled segment `meta` with the lock held — the one
    /// under-lock segment reader. A cache hit costs a refcount bump; a miss
    /// reads the file and leaves the caller to decide whether the decode
    /// is worth installing. A failed read is counted and yields `None`:
    /// callers withhold the affected rows (they stay pending) rather than
    /// serve a corrupt or reordered stream.
    fn segment(&self, inner: &mut Inner, meta: &SegmentMeta) -> Option<Arc<Chunk>> {
        let spill = inner.spill.as_ref()?;
        if let Some(hit) = spill.cached(meta) {
            return Some(hit);
        }
        match spill.store.read_segment(meta, &self.schema) {
            Ok(c) => Some(Arc::new(c)),
            Err(e) => {
                inner.stats.storage_errors += 1;
                eprintln!("basket {}: segment read failed: {e}", self.name);
                None
            }
        }
    }

    /// Copy up to `budget` tuples of the logical head — spilled segments in
    /// oid order, then the memory tail — into one chunk, under the lock and
    /// without changing residency. A segment the budget ends inside stays
    /// warm in the one-segment cache. Returns `false` alongside the chunk
    /// when a segment decode failed: the chunk then ends at the last good
    /// segment, so position `p` is still the `p`-th logical tuple.
    fn stitch(&self, inner: &mut Inner, budget: usize) -> (Chunk, bool) {
        let segments: Vec<SegmentMeta> = inner
            .spill
            .as_ref()
            .map(|s| s.segments.iter().cloned().collect())
            .unwrap_or_default();
        if segments.is_empty() {
            let take = inner.mem_len().min(budget);
            return (inner.mem_slice(&self.schema, 0, take), true);
        }
        let mut out = Chunk::empty(self.schema.clone());
        let mut remaining = budget;
        for meta in &segments {
            if remaining == 0 {
                break;
            }
            let Some(seg) = self.segment(inner, meta) else {
                return (out, false);
            };
            let take = (meta.rows as usize).min(remaining);
            append_range(&mut out.columns, &seg.columns, 0, take).expect("segment matches schema");
            remaining -= take;
            if take < meta.rows as usize {
                inner.spill.as_mut().expect("has segments").cache = Some((meta.base_oid, seg));
            }
        }
        let take = inner.mem_len().min(remaining);
        append_range(&mut out.columns, &inner.columns, 0, take).expect("same schema");
        (out, true)
    }

    /// Snapshot the over-budget memory head for sealing, **under** the
    /// basket lock but without touching the disk. Returns `None` when the
    /// policy is not `Spill`, the budget is respected, or a seal is
    /// already in flight (at most one at a time). The caller must pass the
    /// job to [`Basket::finish_spill`] *after dropping the lock* — the
    /// encode + fsync in `seal_segment` is the slow part, and running it
    /// outside the lock means a slow disk stalls only the sealing
    /// appender, not every producer, reader and scheduler pass on the
    /// basket.
    fn spill_job(&self, inner: &mut Inner) -> Option<SpillJob> {
        let OverflowPolicy::Spill { mem_rows } = inner.policy else {
            return None;
        };
        let mem_rows = mem_rows.max(1);
        let sealing = match inner.spill.as_ref() {
            Some(s) => s.sealing,
            None => return None,
        };
        if sealing || inner.mem_len() <= mem_rows {
            return None;
        }
        let n = inner.mem_len() - mem_rows / 2;
        let job = SpillJob {
            store: inner.spill.as_ref().expect("checked above").store.clone(),
            base: inner.base_oid,
            chunk: inner.mem_slice(&self.schema, 0, n),
            n,
            epoch: inner.epoch,
        };
        inner.spill.as_mut().expect("checked above").sealing = true;
        Some(job)
    }

    /// Seal the snapshot taken by [`Basket::spill_job`] — called with the
    /// basket lock **released** — then re-lock and publish: drop the
    /// sealed rows from memory and append the segment to the on-disk head.
    /// Publication is guarded by the epoch: if the head mutated while the
    /// seal was in flight (a shed, trim, clear, consume or restore), the
    /// snapshot no longer matches memory, so the sealed file is deleted as
    /// an orphan and nothing changes — no row is ever lost or duplicated.
    /// A failed seal keeps the rows in memory (counted, lossless
    /// degradation to an unbounded basket). Spills down to *half* the
    /// budget so segments carry decent runs.
    fn finish_spill(&self, job: SpillJob) {
        let sealed = job.store.seal_segment(job.base, &job.chunk);
        let mut orphan = None;
        {
            let mut inner = self.inner.lock();
            if let Some(spill) = inner.spill.as_mut() {
                spill.sealing = false;
            }
            match sealed {
                Ok(meta) => {
                    if inner.epoch == job.epoch && inner.spill.is_some() {
                        debug_assert_eq!(inner.base_oid, job.base);
                        for c in &mut inner.columns {
                            c.drop_head(job.n);
                        }
                        inner.base_oid += job.n as u64;
                        inner.stats.spilled += job.n as u64;
                        let spill = inner.spill.as_mut().expect("checked above");
                        spill.rows += meta.rows;
                        spill.segments.push_back(meta);
                        self.record_event(EventKind::SpillSeal, || {
                            format!("{}: sealed {} tuples to disk", self.name, job.n)
                        });
                    } else {
                        // Stale snapshot: the memory head moved under the
                        // in-flight seal. The rows' fate was decided by
                        // whoever moved it; the sealed copy is an orphan.
                        orphan = Some(meta);
                    }
                }
                Err(e) => {
                    inner.stats.storage_errors += 1;
                    eprintln!(
                        "basket {}: spill failed, keeping rows in memory: {e}",
                        self.name
                    );
                }
            }
        }
        if let Some(meta) = orphan {
            if let Err(e) = job.store.delete_segment(&meta) {
                eprintln!("basket {}: deleting orphaned spill segment: {e}", self.name);
            }
        }
        self.notify();
    }

    /// Re-apply the spill budget after a bulk restore: recovery
    /// materializes a persistent basket's whole backlog in memory, and a
    /// `Spill`-policy basket must not keep it there — the excess over
    /// `mem_rows` is sealed straight back to disk.
    pub(crate) fn spill_excess(&self) {
        let job = {
            let mut inner = self.inner.lock();
            self.spill_job(&mut inner)
        };
        if let Some(job) = job {
            self.finish_spill(job);
        }
    }

    /// Bring every spilled segment back into memory (exclusive-consumption
    /// paths need positional access to the whole logical content). On a
    /// decode failure nothing changes — the counted error withholds the
    /// affected rows rather than serving a corrupt or reordered stream.
    fn unspill_all(&self, inner: &mut Inner) {
        let Some(head) = inner.spill.as_ref().and_then(SpillState::head_oid) else {
            return;
        };
        let (chunk, complete) = self.stitch(inner, usize::MAX);
        if !complete {
            return;
        }
        inner.columns = chunk.columns;
        inner.base_oid = head;
        inner.epoch += 1;
        let spill = inner.spill.as_mut().expect("has segments");
        while let Some(meta) = spill.segments.pop_front() {
            spill.drop_segment(&meta, &self.name);
        }
    }

    /// Wait for the basket to change, releasing the inner lock first.
    fn wait_for_space(&self, inner: MutexGuard<'_, Inner>) {
        let seen = self.signal.version();
        drop(inner);
        // The timeout bounds the wait so capacity changes and consumer
        // shutdown are noticed even without a notification.
        self.signal.wait_past(seen, Duration::from_millis(1));
    }

    // ----------------------------- appends -----------------------------

    /// Append rows of user values (arity = user width); each row is stamped
    /// with the current engine time. Values are coerced to the column
    /// types (the same rules as SQL `INSERT`) — once, while the rows are
    /// transposed into columns *before* the basket lock is taken, so a bad
    /// row fails before anything is appended and producers never contend
    /// on validation. On a bounded basket the [`OverflowPolicy`] applies.
    pub fn append_rows(&self, rows: &[Vec<Value>]) -> Result<()> {
        self.splice(&self.transpose(rows)?, rows.len(), true, &mut 0)
    }

    /// Non-waiting [`Basket::append_rows`]: a full `Block`-policy basket
    /// returns [`DataCellError::Backpressure`] (all-or-nothing) instead of
    /// blocking the caller — for producers that defer and retry rather
    /// than stall their thread.
    pub fn try_append_rows(&self, rows: &[Vec<Value>]) -> Result<()> {
        self.splice(&self.transpose(rows)?, rows.len(), false, &mut 0)
    }

    /// Append a chunk of user columns. Arrival times follow the chunk's
    /// shape: `user_width` columns are stamped now; one extra trailing
    /// timestamp column is carried through as `ts` (factory outputs
    /// propagating the original arrival time so emitters can measure true
    /// end-to-end latency).
    pub fn append_chunk(&self, chunk: &Chunk) -> Result<()> {
        self.append_chunk_landing(chunk, true).1
    }

    /// Non-waiting [`Basket::append_chunk`]: a full `Block`-policy basket
    /// returns [`DataCellError::Backpressure`] (all-or-nothing, nothing
    /// appended) instead of blocking. Factories use this for their output
    /// baskets so a full output defers the step — the scheduler thread
    /// never wedges, and since factories deliver before consuming, the
    /// deferred step retries losslessly.
    pub fn try_append_chunk(&self, chunk: &Chunk) -> Result<()> {
        self.append_chunk_landing(chunk, false).1
    }

    /// [`Basket::append_chunk`] (`wait`) or [`Basket::try_append_chunk`]
    /// for a producer that keeps the rows that did not land: also returns
    /// how many leading rows of `chunk` left it, appended or shed, on
    /// error too. A waiting append lands an oversized batch in slices, so
    /// it can fail with a prefix landed.
    pub(crate) fn append_chunk_landing(&self, chunk: &Chunk, wait: bool) -> (usize, Result<()>) {
        let mut landed = 0;
        let result = self
            .check_chunk(chunk)
            .and_then(|()| self.splice(&chunk.columns, chunk.len(), wait, &mut landed));
        (landed, result)
    }

    /// The carry-by-shape rule, for a batch described by `schema`: it is
    /// either exactly the user columns (arrival time gets stamped) or the
    /// user columns plus one trailing [`DataType::Timestamp`] column to
    /// carry through as `ts`; any other shape is a wiring error.
    pub(crate) fn check_shape(&self, schema: &Schema) -> Result<()> {
        let user_width = self.user_width();
        let carries =
            schema.len() == user_width + 1 && schema.columns[user_width].ty == DataType::Timestamp;
        if schema.len() == user_width || carries {
            return Ok(());
        }
        Err(DataCellError::Wiring(format!(
            "basket {}: width {} is neither the user width {user_width} nor that plus a \
             trailing timestamp column to carry",
            self.name,
            schema.len()
        )))
    }

    /// Check a chunk's shape and every column type before the splice: a
    /// mismatch discovered mid-fill would leave the columns with unequal
    /// lengths (a torn write visible to every later reader).
    fn check_chunk(&self, chunk: &Chunk) -> Result<()> {
        self.check_shape(&chunk.schema)?;
        for (col, cd) in chunk.columns.iter().zip(&self.schema.columns) {
            if col.data_type() != cd.ty {
                return Err(DataCellError::Wiring(format!(
                    "basket {}: column {} is {}, chunk carries {}",
                    self.name,
                    cd.name,
                    cd.ty,
                    col.data_type()
                )));
            }
        }
        Ok(())
    }

    /// Validate, coerce and transpose `rows` into one column per user
    /// attribute. Runs without the basket lock and builds private columns,
    /// so a bad row fails the whole batch with nothing appended.
    fn transpose(&self, rows: &[Vec<Value>]) -> Result<Vec<Column>> {
        let user = &self.schema.columns[..self.user_width()];
        let mut columns: Vec<Column> = user
            .iter()
            .map(|cd| Column::with_capacity(cd.ty, rows.len()))
            .collect();
        for row in rows {
            if row.len() != user.len() {
                return Err(DataCellError::Wiring(format!(
                    "basket {}: row arity {} != {}",
                    self.name,
                    row.len(),
                    user.len()
                )));
            }
            for (v, (c, cd)) in row.iter().zip(columns.iter_mut().zip(user)) {
                c.push(v).map_err(|_| {
                    DataCellError::Wiring(format!(
                        "basket {}: cannot coerce {v:?} to {}",
                        self.name, cd.ty
                    ))
                })?;
            }
        }
        Ok(columns)
    }

    /// The one append loop: splice `total` rows of ready-made columns onto
    /// the tail — the user columns, plus the `ts` column when it is carried
    /// (otherwise the rows are stamped here). Each pass admits what the
    /// capacity/overflow configuration allows, fills the columns, logs to
    /// the WAL (rolling the rows back out if that fails), checkpoints and
    /// snapshots an over-budget head — all under the lock, which is then
    /// dropped for the notification, the spill seal and the durability
    /// wait. Stamping happens under the lock so `ts` is monotone in oid
    /// order across concurrent appenders. `wait` selects blocking
    /// admission (see [`Basket::admit`]); `offset` counts the rows that
    /// have left `cols` (appended or shed), so a caller can tell how much
    /// of a failed append landed.
    fn splice(&self, cols: &[Column], total: usize, wait: bool, offset: &mut usize) -> Result<()> {
        let mut counted = false;
        while *offset < total {
            let mut inner = self.inner.lock();
            let (shed, take) = match self.admit(&mut inner, total - *offset, wait, &mut counted)? {
                Admission::Take { shed, take } => (shed, take),
                Admission::Wait => {
                    self.wait_for_space(inner);
                    continue;
                }
            };
            *offset += shed;
            append_range(&mut inner.columns, cols, *offset, *offset + take)?;
            if cols.len() < inner.columns.len() {
                let Some(Column::Timestamp(ts)) = inner.columns.last_mut() else {
                    unreachable!("the last column is `ts`");
                };
                ts.resize(ts.len() + take, now_micros());
            }
            inner.stats.appended += take as u64;
            let synced = self.log_rows_or_roll_back(&mut inner, take)?;
            self.maybe_checkpoint_wal(&mut inner);
            let spill = self.spill_job(&mut inner);
            *offset += take;
            drop(inner);
            self.notify();
            if let Some(job) = spill {
                self.finish_spill(job);
            }
            self.await_durable(synced)?;
        }
        Ok(())
    }

    // ------------------------------ reads ------------------------------

    /// Logical resident tuple count: the in-memory tail plus any head
    /// rows spilled to disk — the backlog as consumers see it.
    pub fn len(&self) -> usize {
        self.inner.lock().total_len()
    }

    /// Tuples currently held in memory (the quantity
    /// [`OverflowPolicy::Spill`] bounds).
    pub fn resident_len(&self) -> usize {
        self.inner.lock().mem_len()
    }

    /// Tuples currently spilled to on-disk segments.
    pub fn spilled_len(&self) -> usize {
        self.inner.lock().spilled_rows() as usize
    }

    /// True iff no tuples are resident (memory or disk).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tuples not yet seen by reader `r` — the per-reader unread count the
    /// scheduler's ready predicates are built on. Counts disk and memory
    /// alike.
    pub fn pending_for(&self, r: ReaderId) -> usize {
        let inner = self.inner.lock();
        let cursor = inner
            .readers
            .get(&r)
            .map(|rs| rs.cursor)
            .unwrap_or(inner.head_oid());
        let end = inner.end_oid();
        (end - cursor.min(end)) as usize
    }

    /// Traffic counters.
    pub fn stats(&self) -> BasketStats {
        self.inner.lock().stats
    }

    /// Snapshot the full resident contents (all columns including `ts`):
    /// the spilled head decoded straight into the returned chunk, then the
    /// memory tail — the complete logical stream, without changing
    /// residency (a read-only `SELECT` must not pull a `Spill` basket's
    /// disk tier into memory). A failed segment decode ends the snapshot
    /// at the last good segment, as in [`Basket::snapshot_exclusive`].
    pub fn snapshot(&self) -> Chunk {
        let mut inner = self.inner.lock();
        self.stitch(&mut inner, usize::MAX).0
    }

    /// In-memory heap footprint in bytes (diagnostics / load shedding);
    /// spilled segments count toward `bytes_on_disk` in the storage
    /// metrics instead.
    pub fn byte_size(&self) -> usize {
        self.inner
            .lock()
            .columns
            .iter()
            .map(Column::byte_size)
            .sum()
    }

    // ------------------- positional consumption (§2.6) -----------------

    /// Snapshot up to `budget` tuples of the logical head for exclusive
    /// consumption **without** re-materializing the spilled backlog into
    /// the basket (which would break the `Spill { mem_rows }` memory
    /// ceiling): spilled segments are decoded straight into the returned
    /// chunk one at a time (transient copies — basket residency never
    /// changes), resident rows fill the remainder of the budget, and the
    /// boundary segment stays warm in the one-segment cache for the
    /// matching [`Basket::consume_exclusive`].
    ///
    /// Position `p` of the returned chunk is the `p`-th logical tuple of
    /// the basket; the [`ExclusiveAnchor`] records the layout epoch so
    /// consumption can verify those ordinals still hold. A failed segment
    /// decode is counted and ends the snapshot at the last good segment
    /// (the unread rows stay pending, never skipped or served corrupt).
    pub fn snapshot_exclusive(&self, budget: usize) -> (Chunk, ExclusiveAnchor) {
        let mut inner = self.inner.lock();
        let (base, epoch) = (inner.head_oid(), inner.epoch);
        let (chunk, _) = self.stitch(&mut inner, budget);
        let rows = chunk.len();
        (chunk, ExclusiveAnchor { base, epoch, rows })
    }

    /// Delete the tuples at `positions` *relative to a
    /// [`Basket::snapshot_exclusive`] snapshot*, serving the spilled part
    /// segment-by-segment instead of re-materializing the backlog: a
    /// segment whose rows are all consumed is deleted outright (no
    /// decode), a partially-consumed segment is decoded (cache-aware),
    /// its survivors re-sealed in place at the same base oid, and the
    /// resident suffix is consumed positionally. The layout epoch guards
    /// the ordinal mapping — appends and spill seals preserve the logical
    /// prefix and keep the epoch, while head mutations (shed, trim,
    /// clear, a competing consume) bump it, in which case this falls back
    /// to the shift-corrected anchored path: positions whose tuples left the
    /// head since the snapshot are skipped, never re-aimed at newer tuples.
    ///
    /// A failed decode or re-seal keeps the affected segment intact
    /// (counted; the rows are re-delivered rather than lost — the same
    /// at-least-once stance as the reader paths).
    pub fn consume_exclusive(
        &self,
        anchor: &ExclusiveAnchor,
        positions: &Candidates,
    ) -> Result<usize> {
        let removed = {
            let mut inner = self.inner.lock();
            if inner.epoch != anchor.epoch {
                self.consume_anchored(&mut inner, anchor.base, positions)?
            } else {
                let limit = anchor.rows.min(inner.total_len());
                let gone: Vec<usize> = positions
                    .to_positions()
                    .into_iter()
                    .filter(|&p| p < limit)
                    .collect();
                let (disk_gone, mem_offset) = self.consume_spilled(&mut inner, &gone);
                // Ordinals past the disk part map 1:1 onto memory positions.
                let mem_gone = gone
                    .iter()
                    .filter_map(|&p| p.checked_sub(mem_offset))
                    .collect();
                let mem_gone = Candidates::from_sorted_unchecked(mem_gone);
                Self::consume_in(&mut inner, &mem_gone, mem_offset, disk_gone)?
            }
        };
        if removed > 0 {
            self.notify();
        }
        Ok(removed)
    }

    /// The on-disk half of [`Basket::consume_exclusive`]: walk the spilled
    /// segments against the sorted logical ordinals `gone`, deleting or
    /// re-sealing as described there. Returns the ordinals actually
    /// removed from disk (a decode/re-seal failure keeps its rows, so they
    /// must also stay out of the WAL record) and the logical ordinal of
    /// the first in-memory row.
    fn consume_spilled(&self, inner: &mut Inner, gone: &[usize]) -> (Vec<usize>, usize) {
        let segments: Vec<SegmentMeta> = match inner.spill.as_mut() {
            Some(spill) => spill.segments.drain(..).collect(),
            None => return (Vec::new(), 0),
        };
        let mut kept: VecDeque<SegmentMeta> = VecDeque::with_capacity(segments.len());
        let mut removed: Vec<usize> = Vec::new();
        let mut idx = 0usize; // cursor into `gone`
        let mut offset = 0usize; // logical ordinal of the current segment's first row
        for meta in segments {
            let rows = meta.rows as usize;
            let n = gone[idx..].partition_point(|&p| p < offset + rows);
            let seg_gone = &gone[idx..idx + n];
            idx += n;
            if n == 0 {
                kept.push_back(meta);
            } else if n == rows {
                // Fully consumed: the file goes, no decode needed.
                let spill = inner.spill.as_mut().expect("segments drained from it");
                spill.drop_segment(&meta, &self.name);
                removed.extend_from_slice(seg_gone);
            } else if let Some(full) = self.segment(inner, &meta) {
                // Partial: retain survivors, re-seal in place at the same
                // base.
                let keep = Candidates::from_sorted_unchecked(
                    seg_gone.iter().map(|&p| p - offset).collect(),
                )
                .complement(rows)
                .to_positions();
                let survivors = Chunk {
                    schema: self.schema.clone(),
                    columns: full
                        .columns
                        .iter()
                        .map(|c| c.take(&keep).expect("survivors lie within the segment"))
                        .collect(),
                };
                let spill = inner.spill.as_mut().expect("segments drained from it");
                match spill.store.replace_segment(&meta, &survivors) {
                    Ok(new_meta) => {
                        spill.rows -= n as u64;
                        removed.extend_from_slice(seg_gone);
                        spill.cache = Some((new_meta.base_oid, Arc::new(survivors)));
                        kept.push_back(new_meta);
                    }
                    Err(e) => {
                        inner.stats.storage_errors += 1;
                        eprintln!("basket {}: re-seal failed, keeping segment: {e}", self.name);
                        kept.push_back(meta);
                    }
                }
            } else {
                kept.push_back(meta);
            }
            offset += rows;
        }
        inner
            .spill
            .as_mut()
            .expect("segments drained from it")
            .segments = kept;
        (removed, offset)
    }

    /// Epoch-mismatch fallback of [`Basket::consume_exclusive`]: delete the
    /// tuples at `positions` relative to a snapshot whose first row had oid
    /// `base`. Positions whose tuples were shed or trimmed after the
    /// snapshot are skipped — they are already gone — instead of silently
    /// deleting the newer tuples that shifted into their places. This is
    /// the at-most-once guard for exclusive factories over `ShedOldest`
    /// inputs: a shed *during* the factory step cannot make post-step
    /// consumption eat tuples the step never processed.
    fn consume_anchored(
        &self,
        inner: &mut Inner,
        base: u64,
        positions: &Candidates,
    ) -> Result<usize> {
        // The positional delete needs the whole logical content in memory.
        self.unspill_all(inner);
        // base_oid only grows, so shift = how many snapshot rows left the
        // head since the snapshot.
        let shift = (inner.base_oid.saturating_sub(base)) as usize;
        let translated: Vec<usize> = positions
            .to_positions()
            .into_iter()
            .filter_map(|p| p.checked_sub(shift))
            .collect();
        let translated = Candidates::from_sorted_unchecked(translated);
        Self::consume_in(inner, &translated, 0, Vec::new())
    }

    /// The one positional delete, called with the inner lock held: remove
    /// the in-memory rows at `mem_gone` (out-of-range positions are
    /// ignored) and settle the books for them *and* for the logical
    /// ordinals the caller already removed from the spilled head, which
    /// `gone` arrives holding (empty for the callers that unspilled
    /// first). `mem_offset` is the logical ordinal of the first in-memory
    /// row before the call, so the single WAL record carries ordinals
    /// relative to the pre-consume logical content — exactly the view a
    /// replay holds at this record.
    fn consume_in(
        inner: &mut Inner,
        mem_gone: &Candidates,
        mem_offset: usize,
        mut gone: Vec<usize>,
    ) -> Result<usize> {
        let len = inner.mem_len();
        let keep = mem_gone.complement(len).to_positions();
        gone.extend(mem_gone.iter().filter(|&p| p < len).map(|p| mem_offset + p));
        if gone.is_empty() {
            return Ok(0);
        }
        if let Some(wal) = inner.wal.clone() {
            // Exact replay order is guaranteed by the held lock. Trim and
            // consume records are not fsynced: losing the tail of them only
            // re-delivers (at-least-once), never loses or corrupts.
            if let Err(e) = wal.append_consume(&gone) {
                inner.stats.storage_errors += 1;
                eprintln!("wal consume record failed: {e}");
            }
        }
        if keep.len() < len {
            for c in &mut inner.columns {
                c.retain_positions(&keep)?;
            }
        }
        // Deleting arbitrary positions invalidates oid-density; readers
        // and exclusive consumption are not meant to be mixed on one
        // basket, but keep cursors sane by clamping to the new end.
        inner.base_oid += (len - keep.len()) as u64;
        inner.epoch += 1;
        let end = inner.end_oid();
        for rs in inner.readers.values_mut() {
            rs.cursor = rs.cursor.min(end);
            rs.inflight.retain(|&(s, _)| s < end);
            for r in &mut rs.inflight {
                r.1 = r.1.min(end);
            }
        }
        inner.stats.consumed += gone.len() as u64;
        Ok(gone.len())
    }

    /// Remove every resident tuple (`basket.empty` of Algorithm 1),
    /// deleting any spilled segment files outright.
    pub fn clear(&self) -> usize {
        let removed;
        {
            let mut inner = self.inner.lock();
            removed = inner.total_len();
            let end = inner.end_oid();
            if let Some(spill) = inner.spill.as_mut() {
                while let Some(meta) = spill.segments.pop_front() {
                    spill.drop_segment(&meta, &self.name);
                }
            }
            for c in &mut inner.columns {
                c.clear();
            }
            inner.base_oid = end;
            inner.epoch += 1;
            for rs in inner.readers.values_mut() {
                rs.cursor = end;
                rs.inflight.clear();
            }
            inner.stats.consumed += removed as u64;
            if let Some(wal) = inner.wal.clone() {
                if let Err(e) = wal.append_trim(end) {
                    inner.stats.storage_errors += 1;
                    eprintln!("wal trim record failed: {e}");
                }
            }
        }
        self.notify();
        removed
    }

    // ------------------- registered-reader discipline ------------------

    /// Register a reader starting at the current end of stream (it sees
    /// only tuples arriving after registration) or at the start of resident
    /// data when `from_start`.
    pub fn register_reader(&self, from_start: bool) -> ReaderId {
        let mut inner = self.inner.lock();
        let id = ReaderId(inner.next_reader);
        inner.next_reader += 1;
        let cursor = if from_start {
            // The oldest live row may sit in a spilled segment.
            inner.head_oid()
        } else {
            inner.end_oid()
        };
        inner.readers.insert(
            id,
            ReaderState {
                cursor,
                inflight: Vec::new(),
            },
        );
        id
    }

    /// Remove a reader; its watermark no longer holds back trimming.
    pub fn unregister_reader(&self, r: ReaderId) {
        let mut inner = self.inner.lock();
        inner.readers.remove(&r);
        drop(inner);
        self.trim();
    }

    /// Number of registered readers.
    pub fn reader_count(&self) -> usize {
        self.inner.lock().readers.len()
    }

    /// Snapshot up to `max` of the tuples reader `r` has not yet seen,
    /// along with the end oid to pass to [`Basket::commit_reader`] after
    /// processing (it lies past exactly the tuples returned). The cursor
    /// does not move: this is the snapshot/commit flavour for transitions
    /// fired at most once concurrently.
    pub fn snapshot_for_reader(&self, r: ReaderId, max: usize) -> (Chunk, u64) {
        let (chunk, _, end) = self.slice_resolving_segments(r, max, false);
        (chunk, end)
    }

    /// Advance reader `r`'s cursor and watermark to `end_oid` and trim
    /// tuples every reader has now released.
    pub fn commit_reader(&self, r: ReaderId, end_oid: u64) {
        {
            let mut inner = self.inner.lock();
            if let Some(rs) = inner.readers.get_mut(&r) {
                rs.cursor = rs.cursor.max(end_oid);
            }
        }
        self.trim();
    }

    /// Atomically claim up to `max` unread tuples for reader `r`: the
    /// cursor advances past the claimed range (a competing consumer on the
    /// same reader claims the *next* range), but the reader's watermark
    /// stays at the claim start until [`Basket::commit_claim`] — so the
    /// tuples survive until delivery is acknowledged. Returns the claimed
    /// chunk with its `[start, end)` oid range (empty chunk ⇒ nothing
    /// pending, `start == end`).
    pub fn claim_for_reader(&self, r: ReaderId, max: usize) -> (Chunk, u64, u64) {
        self.slice_resolving_segments(r, max, true)
    }

    /// Acknowledge a delivered claim: the watermark advances past it and
    /// fully-released tuples are trimmed.
    pub fn commit_claim(&self, r: ReaderId, start: u64, end: u64) {
        {
            let mut inner = self.inner.lock();
            if let Some(rs) = inner.readers.get_mut(&r) {
                rs.inflight.retain(|&(s, e)| e <= start || s >= end);
            }
        }
        self.trim();
    }

    /// Give a failed claim back: the cursor rewinds to the claim start so
    /// the range is re-claimed (by this consumer or a competing one on the
    /// same reader). With claims committed out of order this is
    /// at-least-once — ranges claimed after `start` may be re-delivered.
    /// A `start` inside a claim gives back only its tail: the head below
    /// `start` counts as consumed and is trimmed once every reader is past
    /// it.
    pub fn rewind_claim(&self, r: ReaderId, start: u64, end: u64) {
        {
            let mut inner = self.inner.lock();
            // A rewind may legitimately point back into the spilled head;
            // clamp to the oldest live row, wherever it resides.
            let base = inner.head_oid();
            if let Some(rs) = inner.readers.get_mut(&r) {
                rs.inflight.retain(|&(s, e)| e <= start || s >= end);
                rs.cursor = rs.cursor.min(start).max(base);
            }
        }
        self.trim();
        // The rewound range is pending again: wake consumers to re-claim.
        self.notify();
    }

    /// Drive [`Basket::slice_from_cursor`] to completion, decoding any
    /// cache-missed spill segment **outside the basket lock**: the lock is
    /// released around the `read_segment` call (decode + CRC check of a
    /// whole segment — milliseconds on a cold disk), so concurrent appends
    /// and claims on other segments proceed while the decode runs. The
    /// decoded segment is installed into the one-segment cache only if an
    /// identical [`SegmentMeta`] is still listed (the layout may have
    /// changed underneath us: trim, clear, exclusive consume), then the
    /// slice is retried — the second pass hits the cache or re-resolves
    /// the moved cursor. A rare adversarial race could keep evicting the
    /// cache between passes, so after a few attempts the decode falls back
    /// to running under the lock (the historical behavior), guaranteeing
    /// termination. With `claim` the successful slice also pushes the
    /// inflight range and advances the cursor, atomically with the slice.
    fn slice_resolving_segments(&self, r: ReaderId, max: usize, claim: bool) -> (Chunk, u64, u64) {
        let mut attempts = 0u32;
        loop {
            let need = {
                let mut inner = self.inner.lock();
                match self.slice_from_cursor(&mut inner, r, max, attempts >= 3) {
                    CursorSlice::Ready(chunk, start, end) => {
                        if claim && end > start {
                            if let Some(rs) = inner.readers.get_mut(&r) {
                                rs.inflight.push((start, end));
                                rs.cursor = rs.cursor.max(end);
                            }
                        }
                        return (chunk, start, end);
                    }
                    CursorSlice::NeedSegment(meta, store) => (meta, store),
                }
            };
            attempts += 1;
            let (meta, store) = need;
            let decoded = store.read_segment(&meta, &self.schema);
            let mut inner = self.inner.lock();
            match decoded {
                Ok(c) => {
                    if let Some(spill) = inner.spill.as_mut() {
                        // Full-meta equality: a same-base segment whose
                        // row count changed on disk must not be served
                        // from this stale decode.
                        if spill.segments.iter().any(|s| *s == meta) {
                            spill.cache = Some((meta.base_oid, Arc::new(c)));
                        }
                    }
                }
                Err(e) => {
                    inner.stats.storage_errors += 1;
                    eprintln!("basket {}: segment read failed: {e}", self.name);
                    // Served as "nothing yet": the rows stay pending
                    // rather than being skipped or served corrupt.
                    let cursor = inner.cursor_of(r);
                    return (Chunk::empty(self.schema.clone()), cursor, cursor);
                }
            }
        }
    }

    /// Slice `[cursor, cursor+max)` for reader `r` with the lock held.
    /// A cursor below the memory base is served *from disk*: the spilled
    /// segment containing it is decoded (one-segment cache) and the slice
    /// stops at that segment's end, so one claim never stitches sources —
    /// the next claim continues seamlessly in the following segment or in
    /// memory. A cache miss normally yields
    /// [`CursorSlice::NeedSegment`] so the caller decodes without the
    /// lock; `decode_inline` forces the decode here (the bounded-retry
    /// fallback). A failed inline segment read is counted and served as
    /// "nothing yet": the rows stay pending rather than being skipped or
    /// served corrupt.
    fn slice_from_cursor(
        &self,
        inner: &mut Inner,
        r: ReaderId,
        max: usize,
        decode_inline: bool,
    ) -> CursorSlice {
        let base = inner.base_oid;
        let cursor = inner.cursor_of(r);
        if cursor < base {
            return self.slice_from_disk(inner, cursor, max, decode_inline);
        }
        let len = inner.mem_len();
        let from = ((cursor - base) as usize).min(len);
        let to = from.saturating_add(max).min(len);
        CursorSlice::Ready(
            inner.mem_slice(&self.schema, from, to),
            base + from as u64,
            base + to as u64,
        )
    }

    /// Serve `[cursor, cursor+max)` out of the spilled segment containing
    /// `cursor` (see [`Basket::slice_from_cursor`]).
    fn slice_from_disk(
        &self,
        inner: &mut Inner,
        cursor: u64,
        max: usize,
        decode_inline: bool,
    ) -> CursorSlice {
        let empty = || CursorSlice::Ready(Chunk::empty(self.schema.clone()), cursor, cursor);
        let Some(spill) = inner.spill.as_ref() else {
            return empty();
        };
        let Some(meta) = spill
            .segments
            .iter()
            .find(|s| s.base_oid <= cursor && cursor < s.end_oid())
            .cloned()
        else {
            return empty();
        };
        let chunk = match spill.cached(&meta) {
            Some(c) => c,
            None if !decode_inline => return CursorSlice::NeedSegment(meta, spill.store.clone()),
            None => {
                let Some(c) = self.segment(inner, &meta) else {
                    return empty();
                };
                inner.spill.as_mut().expect("segment found in it").cache =
                    Some((meta.base_oid, Arc::clone(&c)));
                c
            }
        };
        let from = (cursor - meta.base_oid) as usize;
        let to = from.saturating_add(max).min(meta.rows as usize);
        let columns = chunk
            .columns
            .iter()
            .map(|c| c.slice(from, to).expect("slice within segment"))
            .collect();
        CursorSlice::Ready(
            Chunk {
                schema: self.schema.clone(),
                columns,
            },
            cursor,
            meta.base_oid + to as u64,
        )
    }

    /// Drop the prefix below every reader's watermark. No-op when no
    /// readers are registered (exclusive baskets trim via consumption).
    /// Spilled segments are deleted **whole**: a segment's file goes away
    /// once every reader has passed its last row (low-watermark trim); a
    /// segment the watermark sits inside stays on disk untouched.
    fn trim(&self) {
        let mut notified = false;
        {
            let mut inner = self.inner.lock();
            if inner.readers.is_empty() {
                return;
            }
            let watermark = inner
                .readers
                .values()
                .map(ReaderState::watermark)
                .min()
                .unwrap_or(0);
            // Fully-consumed on-disk head first.
            let mut disk_dropped = 0u64;
            if let Some(spill) = inner.spill.as_mut() {
                while spill
                    .segments
                    .front()
                    .is_some_and(|s| s.end_oid() <= watermark)
                {
                    let meta = spill.segments.pop_front().expect("front checked");
                    disk_dropped += meta.rows;
                    spill.drop_segment(&meta, &self.name);
                }
            }
            let drop_n = watermark.saturating_sub(inner.base_oid) as usize;
            let drop_n = drop_n.min(inner.mem_len());
            if drop_n > 0 {
                for c in &mut inner.columns {
                    c.drop_head(drop_n);
                }
                inner.base_oid += drop_n as u64;
                inner.epoch += 1;
            }
            if disk_dropped > 0 || drop_n > 0 {
                inner.stats.consumed += disk_dropped + drop_n as u64;
                notified = true;
                if let Some(wal) = inner.wal.clone() {
                    // Log what is actually gone: the new oldest live oid.
                    let head = inner.head_oid();
                    if let Err(e) = wal.append_trim(head) {
                        inner.stats.storage_errors += 1;
                        eprintln!("wal trim record failed: {e}");
                    }
                }
            }
        }
        if notified {
            self.notify();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_bat::types::DataType;

    fn basket() -> Basket {
        Basket::new(
            "b",
            Schema::new(vec![
                ("x".into(), DataType::Int),
                ("y".into(), DataType::Float),
            ]),
        )
        .unwrap()
    }

    fn bounded(cap: usize, policy: OverflowPolicy) -> Basket {
        Basket::bounded(
            "b",
            Schema::new(vec![("x".into(), DataType::Int)]),
            Some(cap),
            policy,
        )
        .unwrap()
    }

    fn ints(b: &Basket) -> Vec<i64> {
        b.snapshot().columns[0].as_ints().unwrap().to_vec()
    }

    #[test]
    fn implicit_ts_column() {
        let b = basket();
        assert_eq!(b.schema().len(), 3);
        assert_eq!(b.schema().columns[2].name, TS_COLUMN);
        assert_eq!(b.user_width(), 2);
        assert!(Basket::new("bad", Schema::new(vec![("ts".into(), DataType::Int)])).is_err());
    }

    #[test]
    fn append_rows_stamps_ts() {
        let b = basket();
        b.append_rows(&[
            vec![Value::Int(1), Value::Float(0.5)],
            vec![Value::Int(2), Value::Float(1.5)],
        ])
        .unwrap();
        assert_eq!(b.len(), 2);
        let snap = b.snapshot();
        let ts = snap.columns[2].as_timestamps().unwrap();
        assert!(ts[0] >= 0 && ts[1] >= ts[0]);
        assert_eq!(b.stats().appended, 2);
    }

    #[test]
    fn arity_and_coercion_checked() {
        let b = basket();
        assert!(b.append_rows(&[vec![Value::Int(1)]]).is_err());
        assert!(b
            .append_rows(&[vec![Value::Str("no".into()), Value::Float(0.0)]])
            .is_err());
        // Int coerces into float column.
        b.append_rows(&[vec![Value::Int(1), Value::Int(2)]])
            .unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn failed_append_leaves_no_torn_write() {
        let b = basket();
        let rows = vec![
            vec![Value::Int(1), Value::Float(1.0)],
            vec![Value::Int(2), Value::Str("not a float".into())],
        ];
        // Both paths must reject the batch before touching any column: a
        // bad value in the second row, a mistyped second chunk column.
        assert!(b.append_rows(&rows).is_err());
        let mistyped = Chunk {
            schema: Schema::new(vec![
                ("x".into(), DataType::Int),
                ("y".into(), DataType::Float),
            ]),
            columns: vec![Column::from_ints(vec![1]), Column::from_ints(vec![2])],
        };
        let err = b.append_chunk(&mistyped).unwrap_err();
        assert!(matches!(err, DataCellError::Wiring(_)), "{err}");
        assert_eq!(b.len(), 0);
        assert_eq!(b.stats().appended, 0);
        // The basket still works and rows stay rectangular.
        b.append_rows(&[vec![Value::Int(1), Value::Float(1.0)]])
            .unwrap();
        assert_eq!(b.snapshot().row(0).unwrap().len(), 3);
    }

    #[test]
    fn exclusive_consume_removes_positions() {
        let b = basket();
        for i in 0..5 {
            b.append_rows(&[vec![Value::Int(i), Value::Float(0.0)]])
                .unwrap();
        }
        let (_, anchor) = b.snapshot_exclusive(usize::MAX);
        let n = b
            .consume_exclusive(&anchor, &Candidates::from_positions(vec![0, 2, 4]).unwrap())
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(b.len(), 2);
        let snap = b.snapshot();
        assert_eq!(snap.columns[0].as_ints().unwrap(), &[1, 3]);
        assert_eq!(b.stats().consumed, 3);
    }

    #[test]
    fn clear_empties_and_counts() {
        let b = basket();
        b.append_rows(&[vec![Value::Int(1), Value::Float(0.0)]])
            .unwrap();
        assert_eq!(b.clear(), 1);
        assert!(b.is_empty());
        assert_eq!(b.stats().consumed, 1);
    }

    #[test]
    fn shared_readers_see_disjoint_batches_and_trim() {
        let b = basket();
        let r1 = b.register_reader(true);
        let r2 = b.register_reader(true);
        b.append_rows(&[vec![Value::Int(1), Value::Float(0.0)]])
            .unwrap();
        b.append_rows(&[vec![Value::Int(2), Value::Float(0.0)]])
            .unwrap();

        let (c1, end1) = b.snapshot_for_reader(r1, usize::MAX);
        assert_eq!(c1.len(), 2);
        b.commit_reader(r1, end1);
        // r2 has not read: nothing trimmed yet (§2.5).
        assert_eq!(b.len(), 2);
        assert_eq!(b.pending_for(r1), 0);
        assert_eq!(b.pending_for(r2), 2);

        let (c2, end2) = b.snapshot_for_reader(r2, usize::MAX);
        assert_eq!(c2.len(), 2);
        b.commit_reader(r2, end2);
        // All readers have seen the tuples: basket trimmed.
        assert_eq!(b.len(), 0);
        assert_eq!(b.stats().consumed, 2);
    }

    #[test]
    fn late_reader_starts_at_end() {
        let b = basket();
        b.append_rows(&[vec![Value::Int(1), Value::Float(0.0)]])
            .unwrap();
        let r = b.register_reader(false);
        assert_eq!(b.pending_for(r), 0);
        b.append_rows(&[vec![Value::Int(2), Value::Float(0.0)]])
            .unwrap();
        assert_eq!(b.pending_for(r), 1);
        let (c, _) = b.snapshot_for_reader(r, usize::MAX);
        assert_eq!(c.columns[0].as_ints().unwrap(), &[2]);
    }

    #[test]
    fn unregister_releases_trim() {
        let b = basket();
        let r1 = b.register_reader(true);
        let r2 = b.register_reader(true);
        b.append_rows(&[vec![Value::Int(1), Value::Float(0.0)]])
            .unwrap();
        let (_, end) = b.snapshot_for_reader(r1, usize::MAX);
        b.commit_reader(r1, end);
        assert_eq!(b.len(), 1);
        assert_eq!(b.reader_count(), 2);
        b.unregister_reader(r2);
        assert_eq!(b.len(), 0);
        assert_eq!(b.reader_count(), 1);
    }

    #[test]
    fn claims_hand_off_and_hold_watermark() {
        let b = basket();
        let r = b.register_reader(true);
        for i in 0..4 {
            b.append_rows(&[vec![Value::Int(i), Value::Float(0.0)]])
                .unwrap();
        }
        // Two competing claims on one reader get disjoint ranges.
        let (c1, s1, e1) = b.claim_for_reader(r, 2);
        let (c2, s2, e2) = b.claim_for_reader(r, 10);
        assert_eq!(c1.columns[0].as_ints().unwrap(), &[0, 1]);
        assert_eq!(c2.columns[0].as_ints().unwrap(), &[2, 3]);
        assert_eq!((s1, e1, s2, e2), (0, 2, 2, 4));
        // Nothing trimmed while claims are unacknowledged.
        b.commit_claim(r, s2, e2);
        assert_eq!(b.len(), 4, "older claim still in flight");
        b.commit_claim(r, s1, e1);
        assert_eq!(b.len(), 0, "all claims acknowledged: trimmed");
    }

    #[test]
    fn rewind_makes_claim_pending_again() {
        let b = basket();
        let r = b.register_reader(true);
        b.append_rows(&[
            vec![Value::Int(1), Value::Float(0.0)],
            vec![Value::Int(2), Value::Float(0.0)],
        ])
        .unwrap();
        let (c, s, e) = b.claim_for_reader(r, usize::MAX);
        assert_eq!(c.len(), 2);
        assert_eq!(b.pending_for(r), 0, "claimed ranges are not pending");
        b.rewind_claim(r, s, e);
        assert_eq!(b.pending_for(r), 2, "rewound claim is pending again");
        assert_eq!(b.len(), 2, "nothing was lost");
        let (c2, s2, e2) = b.claim_for_reader(r, usize::MAX);
        assert_eq!(c2.len(), 2);
        b.commit_claim(r, s2, e2);
        assert!(b.is_empty());
    }

    #[test]
    fn reject_policy_is_full_or_nothing() {
        let b = bounded(2, OverflowPolicy::Reject);
        b.append_rows(&[vec![Value::Int(1)]]).unwrap();
        let err = b
            .append_rows(&[vec![Value::Int(2)], vec![Value::Int(3)]])
            .unwrap_err();
        match err {
            DataCellError::Backpressure {
                resident, capacity, ..
            } => {
                assert_eq!((resident, capacity), (1, 2));
            }
            other => panic!("unexpected {other}"),
        }
        assert_eq!(ints(&b), vec![1], "no partial batch admitted");
        assert_eq!(b.stats().overflow_events, 1);
        // With room the same batch lands.
        b.clear();
        b.append_rows(&[vec![Value::Int(2)], vec![Value::Int(3)]])
            .unwrap();
        assert_eq!(ints(&b), vec![2, 3]);
    }

    #[test]
    fn shed_policy_keeps_newest() {
        let b = bounded(3, OverflowPolicy::ShedOldest);
        let r = b.register_reader(true);
        for i in 0..3 {
            b.append_rows(&[vec![Value::Int(i)]]).unwrap();
        }
        b.append_rows(&[vec![Value::Int(3)], vec![Value::Int(4)]])
            .unwrap();
        assert_eq!(ints(&b), vec![2, 3, 4]);
        assert_eq!(b.stats().shed, 2);
        // The reader skipped the shed tuples; it still sees the survivors.
        let (c, end) = b.snapshot_for_reader(r, usize::MAX);
        assert_eq!(c.columns[0].as_ints().unwrap(), &[2, 3, 4]);
        b.commit_reader(r, end);
        assert!(b.is_empty());
        // A batch larger than the capacity keeps only its newest tuples.
        let big: Vec<Vec<Value>> = (10..20).map(|i| vec![Value::Int(i)]).collect();
        b.append_rows(&big).unwrap();
        assert_eq!(ints(&b), vec![17, 18, 19]);
    }

    #[test]
    fn block_policy_unblocks_when_consumer_advances() {
        let b = Arc::new(bounded(2, OverflowPolicy::Block));
        let r = b.register_reader(true);
        b.append_rows(&[vec![Value::Int(0)], vec![Value::Int(1)]])
            .unwrap();
        let writer = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                // Blocks until the reader releases space.
                b.append_rows(&[vec![Value::Int(2)], vec![Value::Int(3)]])
                    .unwrap();
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!writer.is_finished(), "writer must be blocked at capacity");
        let (c, end) = b.snapshot_for_reader(r, usize::MAX);
        assert_eq!(c.len(), 2);
        b.commit_reader(r, end);
        writer.join().unwrap();
        assert_eq!(b.pending_for(r), 2, "blocked batch landed after trim");
        assert!(b.stats().overflow_events >= 1);
        let total: Vec<i64> = {
            let (c, end) = b.snapshot_for_reader(r, usize::MAX);
            b.commit_reader(r, end);
            c.columns[0].as_ints().unwrap().to_vec()
        };
        assert_eq!(total, vec![2, 3], "no loss, no duplication");
    }

    #[test]
    fn empty_basket_admits_oversized_batch() {
        // The bound caps the standing backlog, not one batch: a bulk
        // producer whose batch exceeds the capacity still makes progress
        // once consumers drain the basket.
        let b = bounded(2, OverflowPolicy::Reject);
        let big: Vec<Vec<Value>> = (0..5).map(|i| vec![Value::Int(i)]).collect();
        b.append_rows(&big).unwrap();
        assert_eq!(b.len(), 5, "oversized batch admitted whole when empty");
        assert_eq!(b.stats().overflow_events, 1);
        // With a backlog, the bound applies again.
        assert!(b.append_rows(&[vec![Value::Int(9)]]).is_err());
    }

    #[test]
    fn try_append_defers_instead_of_blocking() {
        let b = Basket::bounded(
            "b",
            Schema::new(vec![("x".into(), DataType::Int)]),
            Some(1),
            OverflowPolicy::Block,
        )
        .unwrap();
        let r = b.register_reader(true);
        b.append_rows(&[vec![Value::Int(1)]]).unwrap();
        let chunk = Chunk::new(
            Schema::new(vec![("x".into(), DataType::Int)]),
            vec![Column::from_ints(vec![2, 3])],
        )
        .unwrap();
        // Full Block basket: the non-waiting path errors (all-or-nothing)
        // instead of stalling the calling thread.
        let err = b.try_append_chunk(&chunk).unwrap_err();
        assert!(matches!(err, DataCellError::Backpressure { .. }), "{err}");
        assert_eq!(b.len(), 1, "nothing appended");
        // Consumer drains: the retry lands (empty basket admits the batch).
        let (_, end) = b.snapshot_for_reader(r, usize::MAX);
        b.commit_reader(r, end);
        b.try_append_chunk(&chunk).unwrap();
        assert_eq!(b.pending_for(r), 2);
    }

    #[test]
    fn try_append_rows_defers_instead_of_blocking() {
        // A non-blocking writer (Reject/ShedOldest policy) that loses the
        // room-check race against another producer must get Backpressure
        // back from a full Block basket, never park in the wait loop.
        let b = bounded(1, OverflowPolicy::Block);
        let _r = b.register_reader(true); // holds the tuple resident
        b.append_rows(&[vec![Value::Int(1)]]).unwrap();
        let err = b
            .try_append_rows(&[vec![Value::Int(2)], vec![Value::Int(3)]])
            .unwrap_err();
        assert!(matches!(err, DataCellError::Backpressure { .. }), "{err}");
        assert_eq!(ints(&b), vec![1], "all-or-nothing: nothing appended");
    }

    #[test]
    fn capacity_reconfigurable_at_runtime() {
        let b = bounded(1, OverflowPolicy::Reject);
        b.append_rows(&[vec![Value::Int(1)]]).unwrap();
        assert!(b.append_rows(&[vec![Value::Int(2)]]).is_err());
        let room = b.append_room().unwrap();
        assert_eq!((room.resident, room.capacity), (1, 1));
        assert!(!room.admits(0, 1));
        b.set_capacity(Some(4), OverflowPolicy::Reject);
        assert_eq!(b.capacity(), Some(4));
        b.append_rows(&[vec![Value::Int(2)]]).unwrap();
        let room = b.append_room().unwrap();
        assert!(room.admits(0, 2) && room.admits(1, 1) && !room.admits(0, 3));
        b.set_capacity(None, OverflowPolicy::Block);
        assert_eq!(b.append_room(), None);
        assert_eq!(b.overflow_policy(), OverflowPolicy::Block);
        // Shedding never refuses; an empty basket takes one batch whole.
        b.set_capacity(Some(1), OverflowPolicy::ShedOldest);
        assert_eq!(b.append_room(), None);
        b.set_capacity(Some(1), OverflowPolicy::Block);
        b.clear();
        let room = b.append_room().unwrap();
        assert!(room.admits(0, 5) && !room.admits(1, 1));
    }

    #[test]
    fn signal_versions_bump_on_append() {
        let b = basket();
        let s = b.signal();
        let v0 = s.version();
        b.append_rows(&[vec![Value::Int(1), Value::Float(0.0)]])
            .unwrap();
        assert!(s.version() > v0);
    }

    #[test]
    fn append_chunk_carries_ts_by_shape() {
        let b = basket();
        // Build a chunk shaped like a factory output: x, y, ts.
        let chunk = Chunk::new(
            Schema::new(vec![
                ("x".into(), DataType::Int),
                ("y".into(), DataType::Float),
                ("ts".into(), DataType::Timestamp),
            ]),
            vec![
                Column::from_ints(vec![7]),
                Column::from_floats(vec![1.0]),
                Column::from_timestamps(vec![12345]),
            ],
        )
        .unwrap();
        b.append_chunk(&chunk).unwrap();
        let snap = b.snapshot();
        assert_eq!(snap.columns[2].as_timestamps().unwrap(), &[12345]);
        // An extra trailing column that is not a timestamp is no carry.
        let wide = Chunk::new(
            Schema::new(vec![
                ("x".into(), DataType::Int),
                ("y".into(), DataType::Float),
                ("z".into(), DataType::Int),
            ]),
            vec![
                Column::from_ints(vec![7]),
                Column::from_floats(vec![1.0]),
                Column::from_ints(vec![12345]),
            ],
        )
        .unwrap();
        let err = b.append_chunk(&wide).unwrap_err();
        assert!(matches!(err, DataCellError::Wiring(_)), "{err}");
        assert_eq!(b.len(), 1, "nothing appended");
    }

    #[test]
    fn bounded_chunk_append_sheds() {
        let b = Basket::bounded(
            "b",
            Schema::new(vec![("x".into(), DataType::Int)]),
            Some(2),
            OverflowPolicy::ShedOldest,
        )
        .unwrap();
        let chunk = Chunk::new(
            Schema::new(vec![("x".into(), DataType::Int)]),
            vec![Column::from_ints(vec![1, 2, 3])],
        )
        .unwrap();
        b.append_chunk(&chunk).unwrap();
        assert_eq!(ints(&b), vec![2, 3]);
        assert_eq!(b.stats().shed, 1);
    }
}
