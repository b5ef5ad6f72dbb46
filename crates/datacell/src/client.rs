//! The typed client facade: [`DataCellBuilder`], [`StreamWriter`],
//! [`Subscription`] and [`QueryHandle`].
//!
//! The paper's periphery exchanges *textual* tuples (§2.1), and the
//! original session API mirrored that literally: raw `String` lines out,
//! hand-wired receptors in. This module is the typed surface above the
//! same Figure-1 pipeline:
//!
//! ```text
//! DataCell::builder() ──▶ DataCell
//!     cell.writer("b1")?           — typed, batched, schema-validated in
//!     cell.subscribe::<T>("q")?    — typed, decoded rows out
//!     cell.query_handle("q")?      — pause / resume / drop lifecycle
//! ```
//!
//! Rows go in through [`StreamWriter::append`] (anything implementing
//! [`IntoRow`]: tuples of primitives, `Vec<Value>`) and come out through
//! [`Subscription::next_timeout`] (anything implementing [`FromRow`]:
//! tuples of primitives, `Vec<Value>`, or `String` for the wire-format
//! text-compat mode). Nothing beneath the facade changed: receptors,
//! baskets, factories, emitters and the Petri-net scheduler are exactly
//! the paper's architecture.

use std::marker::PhantomData;

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use datacell_bat::types::Value;
use datacell_sql::Schema;

use crate::basket::Basket;
use crate::error::{DataCellError, Result};
use crate::metrics::SessionMetrics;
use crate::scheduler::{Fairness, SchedulePolicy};
use crate::session::DataCell;
use crate::text;

// ---------------------------------------------------------------- builder

pub use crate::basket::{Durability, OverflowPolicy};

/// How several [`Subscription`]s on one continuous query share its output
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubscriptionMode {
    /// Every subscription registers its own reader on the output basket,
    /// so **each subscriber sees every tuple** (the shared-readers release
    /// discipline of §2.5). The default.
    #[default]
    Broadcast,
    /// All subscriptions of the query share one reader: each tuple is
    /// delivered to exactly *one* of them (competing consumers — a simple
    /// work-sharing pool).
    ///
    /// **Delivery guarantee: exactly-once failover, ordered within a
    /// claim; at-least-once under racing failures.** Each emitter
    /// atomically claims the next unread range, so no two pool members
    /// deliver the same tuple concurrently, and the tuples inside one
    /// claim always arrive in stream order. Commits are
    /// **drain-acknowledged** (per-range [`AckLedger`] tracking): a
    /// claimed range is committed past the pool cursor only once this
    /// subscription has actually received its rows, not merely once they
    /// were pushed into its channel. A subscriber that dies mid-drain
    /// therefore loses nothing — the drained prefix of its claims stays
    /// committed, the undrained suffix is rewound to the pool and a
    /// surviving member redelivers it exactly once. Duplicates remain
    /// possible only when a failure races still-in-flight drains (the
    /// rewind can re-open a later range a sibling already delivered, and
    /// rows a dying subscriber drained concurrently with its settlement
    /// may be redelivered): never loss, never reordering within a claim.
    /// Consumers that cannot tolerate duplicates under such races should
    /// deduplicate on a key or use [`SubscriptionMode::Broadcast`].
    ///
    /// [`AckLedger`]: crate::emitter::AckLedger
    Shared,
}

/// Configures and constructs a [`DataCell`] session.
///
/// ```
/// use datacell::client::DataCellBuilder;
/// use datacell::scheduler::SchedulePolicy;
///
/// let cell = DataCellBuilder::new()
///     .scheduler_policy(SchedulePolicy::default())
///     .writer_batch_size(128)
///     .basket_capacity(100_000)
///     .metrics(true)
///     .build();
/// cell.execute("create basket b (x int)").unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct DataCellBuilder {
    pub(crate) default_policy: SchedulePolicy,
    pub(crate) fairness: Fairness,
    pub(crate) writer_batch: usize,
    pub(crate) basket_capacity: Option<usize>,
    pub(crate) overflow: OverflowPolicy,
    pub(crate) subscription_channel: Option<usize>,
    pub(crate) metrics: bool,
    pub(crate) workers: usize,
    pub(crate) auto_start: bool,
    pub(crate) listen: Option<String>,
    pub(crate) metrics_listen: Option<String>,
    pub(crate) auth_token: Option<String>,
    pub(crate) data_dir: Option<std::path::PathBuf>,
    pub(crate) durability: Durability,
    pub(crate) plan_sharing: bool,
}

impl Default for DataCellBuilder {
    fn default() -> Self {
        DataCellBuilder {
            default_policy: SchedulePolicy::default(),
            fairness: Fairness::default(),
            writer_batch: 256,
            basket_capacity: None,
            overflow: OverflowPolicy::Block,
            subscription_channel: None,
            metrics: false,
            workers: default_workers(),
            auto_start: false,
            listen: None,
            metrics_listen: None,
            auth_token: None,
            data_dir: None,
            durability: Durability::Ephemeral,
            plan_sharing: false,
        }
    }
}

/// Default worker count: `DATACELL_WORKERS` when set to a positive
/// integer (the CI pin for deterministic single-core runs), otherwise the
/// machine's available parallelism, otherwise 1.
fn default_workers() -> usize {
    if let Ok(v) = std::env::var("DATACELL_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl DataCellBuilder {
    /// Fresh builder with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scheduling policy applied to continuous queries registered through
    /// SQL (`CREATE CONTINUOUS QUERY`); see [`SchedulePolicy`].
    pub fn scheduler_policy(mut self, policy: SchedulePolicy) -> Self {
        self.default_policy = policy;
        self
    }

    /// How scheduler passes divide the thread between queries (default:
    /// [`Fairness::Priority`], the historical fixed sweep). Pick
    /// [`Fairness::DeficitRoundRobin`] for multi-tenant workloads where a
    /// hot query must not starve its co-tenants; per-query shares are set
    /// with [`DataCellBuilder::query_weight`], `SET QUERY WEIGHT` in SQL,
    /// or [`QueryHandle::set_weight`].
    pub fn fairness(mut self, fairness: Fairness) -> Self {
        self.fairness = fairness;
        self
    }

    /// Shorthand: priority of SQL-registered queries.
    pub fn query_priority(mut self, priority: i32) -> Self {
        self.default_policy.priority = priority;
        self
    }

    /// Shorthand: deficit-round-robin weight of SQL-registered queries
    /// (clamped to ≥ 1; only meaningful under
    /// [`Fairness::DeficitRoundRobin`]).
    pub fn query_weight(mut self, weight: u32) -> Self {
        self.default_policy.weight = weight.max(1);
        self
    }

    /// Shorthand: minimum interval between firings of SQL-registered
    /// queries (time-sliced batching).
    pub fn min_fire_interval(mut self, interval: Duration) -> Self {
        self.default_policy.min_interval = Some(interval);
        self
    }

    /// Rows a [`StreamWriter`] buffers before flushing to its basket.
    pub fn writer_batch_size(mut self, rows: usize) -> Self {
        self.writer_batch = rows.max(1);
        self
    }

    /// Tuple capacity of every basket created through this session
    /// (`CREATE BASKET` and continuous-query output baskets). The capacity
    /// lives in the engine: receptors, factories and writers all respect
    /// it under the configured [`OverflowPolicy`], so backpressure
    /// propagates end-to-end. Writers additionally use it as their
    /// flush-time soft cap.
    pub fn basket_capacity(mut self, tuples: usize) -> Self {
        self.basket_capacity = Some(tuples.max(1));
        self
    }

    /// What producers do at capacity (default: [`OverflowPolicy::Block`]):
    /// block until readers release space, reject the batch, or shed the
    /// oldest resident tuples.
    pub fn overflow_policy(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Bound every emitter → subscriber channel at `rows` queued tuples
    /// (default: unbounded, the historical behavior). With a bound, a slow
    /// client backpressures its emitter: the emitter stops committing
    /// claims, the query's output basket fills, and — with bounded baskets
    /// — the stall propagates all the way to the producers instead of the
    /// channel growing without limit.
    pub fn subscription_channel_capacity(mut self, rows: usize) -> Self {
        self.subscription_channel = Some(rows.max(1));
        self
    }

    /// Collect session-wide ingest/delivery/latency metrics, readable via
    /// [`DataCell::metrics`].
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Worker threads executing factory firings when the scheduler runs in
    /// the background (clamped to ≥ 1; default: the machine's available
    /// cores, overridable with the `DATACELL_WORKERS` environment
    /// variable). With `1` the scheduler keeps the historical sequential
    /// pass loop — admission and execution on one thread, byte-for-byte
    /// the old firing order. With more, ready firings are dispatched to a
    /// work-stealing pool ([`datacell_exec::WorkerPool`]) while the
    /// admission pass (fairness, budgets, gating) stays sequential; also
    /// settable at runtime with `SET SCHEDULER WORKERS n` in SQL.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Start the scheduler thread as part of `build()` (default: off; call
    /// [`DataCell::start`] explicitly).
    pub fn auto_start(mut self, enabled: bool) -> Self {
        self.auto_start = enabled;
        self
    }

    /// Record a TCP listen address (e.g. `"127.0.0.1:7878"`, or port `0`
    /// for an ephemeral port) for the wire-protocol front door. The session
    /// itself opens no socket — the transport lives in the `datacell-net`
    /// crate, whose `NetServer::start` reads this address back via
    /// [`DataCell::listen_addr`](crate::DataCell::listen_addr) and serves
    /// `STREAM` / `SUBSCRIBE` clients speaking the [`crate::text`] framing.
    pub fn listen(mut self, addr: impl Into<String>) -> Self {
        self.listen = Some(addr.into());
        self
    }

    /// Record an HTTP listen address (e.g. `"127.0.0.1:9090"`, or port `0`
    /// for an ephemeral port) for the observability front door. As with
    /// [`listen`](DataCellBuilder::listen), the session itself opens no
    /// socket — `datacell-net`'s `HttpServer::start` reads this address
    /// back via
    /// [`DataCell::metrics_listen_addr`](crate::DataCell::metrics_listen_addr)
    /// and serves `GET /metrics` (Prometheus text), `/healthz`, `/queries`
    /// and `/events`.
    pub fn metrics_listen(mut self, addr: impl Into<String>) -> Self {
        self.metrics_listen = Some(addr.into());
        self
    }

    /// Require clients of the wire-protocol front door to authenticate
    /// with `HELLO <token>` before `STREAM`/`SUBSCRIBE`/`EXEC`, and HTTP
    /// observability clients to send `Authorization: Bearer <token>`.
    /// Default: no authentication.
    pub fn auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Root data directory for the storage subsystem: spill segments
    /// ([`OverflowPolicy::Spill`]) and durable baskets
    /// ([`Durability::Persistent`], WAL + [`DataCell::recover`]) live in
    /// per-basket subdirectories beneath it. Without a data dir, spill
    /// and persistence are unavailable (their use errors cleanly).
    pub fn data_dir(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.data_dir = Some(path.into());
        self
    }

    /// Default durability of baskets created through this session
    /// (default: [`Durability::Ephemeral`]). `CREATE BASKET ... PERSISTENT`
    /// opts a single basket in. Requires
    /// [`data_dir`](DataCellBuilder::data_dir).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Enable cost-based multi-query plan sharing (default: off; also
    /// toggleable at runtime with `SET PLAN SHARING ON|OFF`). When on,
    /// continuous queries whose plans share a common consuming-scan prefix
    /// over the same basket (same predicate window) are rewritten so one
    /// shared head factory materializes the prefix once into a shared
    /// intermediate basket, and each query's tail consumes that basket
    /// through its own reader cursor. Dropping a query detaches its
    /// reader; the last drop retires the shared head and intermediate.
    pub fn plan_sharing(mut self, enabled: bool) -> Self {
        self.plan_sharing = enabled;
        self
    }

    /// Construct the session. Also initializes the engine clock so the
    /// first tuple's arrival timestamp is well-anchored. Panics when the
    /// configured `data_dir` cannot be created — use
    /// [`try_build`](DataCellBuilder::try_build) to handle that case.
    pub fn build(self) -> DataCell {
        self.try_build().expect("DataCellBuilder::build")
    }

    /// [`build`](DataCellBuilder::build), surfacing storage-setup errors
    /// instead of panicking.
    pub fn try_build(self) -> Result<DataCell> {
        DataCell::from_builder(self)
    }
}

// ------------------------------------------------------------- row traits

/// Conversion into a row of engine values; implemented for `Vec<Value>`,
/// `&[Value]`, and tuples of primitives up to arity 8.
pub trait IntoRow {
    /// Consume self into the row representation.
    fn into_row(self) -> Vec<Value>;
}

impl IntoRow for Vec<Value> {
    fn into_row(self) -> Vec<Value> {
        self
    }
}

impl IntoRow for &[Value] {
    fn into_row(self) -> Vec<Value> {
        self.to_vec()
    }
}

macro_rules! impl_into_row_tuple {
    ($($name:ident),+) => {
        impl<$($name: Into<Value>),+> IntoRow for ($($name,)+) {
            fn into_row(self) -> Vec<Value> {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                vec![$($name.into()),+]
            }
        }
    };
}

impl_into_row_tuple!(A);
impl_into_row_tuple!(A, B);
impl_into_row_tuple!(A, B, C);
impl_into_row_tuple!(A, B, C, D);
impl_into_row_tuple!(A, B, C, D, E);
impl_into_row_tuple!(A, B, C, D, E, F);
impl_into_row_tuple!(A, B, C, D, E, F, G);
impl_into_row_tuple!(A, B, C, D, E, F, G, H);

/// Conversion out of a single engine value; the per-column half of
/// [`FromRow`].
pub trait FromValue: Sized {
    /// Decode one value.
    fn from_value(v: &Value) -> Result<Self>;
}

impl FromValue for Value {
    fn from_value(v: &Value) -> Result<Self> {
        Ok(v.clone())
    }
}

impl FromValue for i64 {
    fn from_value(v: &Value) -> Result<Self> {
        v.as_int()
            .ok_or_else(|| DataCellError::Decode(format!("expected int, got {v}")))
    }
}

impl FromValue for f64 {
    fn from_value(v: &Value) -> Result<Self> {
        v.as_float()
            .ok_or_else(|| DataCellError::Decode(format!("expected float, got {v}")))
    }
}

impl FromValue for bool {
    fn from_value(v: &Value) -> Result<Self> {
        v.as_bool()
            .ok_or_else(|| DataCellError::Decode(format!("expected bool, got {v}")))
    }
}

impl FromValue for String {
    fn from_value(v: &Value) -> Result<Self> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DataCellError::Decode(format!("expected string, got {v}")))
    }
}

impl<T: FromValue> FromValue for Option<T> {
    fn from_value(v: &Value) -> Result<Self> {
        if v.is_nil() {
            Ok(None)
        } else {
            T::from_value(v).map(Some)
        }
    }
}

/// Deserialization of a delivered result row (`ts` already stripped);
/// implemented for `Vec<Value>` (raw), `String` (the textual wire format,
/// rendered by [`text::render_row`]), and tuples of [`FromValue`] types up
/// to arity 8.
pub trait FromRow: Sized {
    /// Decode one row.
    fn from_row(row: Vec<Value>) -> Result<Self>;
}

impl FromRow for Vec<Value> {
    fn from_row(row: Vec<Value>) -> Result<Self> {
        Ok(row)
    }
}

impl FromRow for String {
    fn from_row(row: Vec<Value>) -> Result<Self> {
        Ok(text::render_row(&row))
    }
}

macro_rules! impl_from_row_tuple {
    ($n:literal; $($name:ident : $idx:tt),+) => {
        impl<$($name: FromValue),+> FromRow for ($($name,)+) {
            fn from_row(row: Vec<Value>) -> Result<Self> {
                if row.len() != $n {
                    return Err(DataCellError::Decode(format!(
                        "row has {} columns, tuple wants {}",
                        row.len(),
                        $n
                    )));
                }
                Ok(($($name::from_value(&row[$idx])?,)+))
            }
        }
    };
}

impl_from_row_tuple!(1; A: 0);
impl_from_row_tuple!(2; A: 0, B: 1);
impl_from_row_tuple!(3; A: 0, B: 1, C: 2);
impl_from_row_tuple!(4; A: 0, B: 1, C: 2, D: 3);
impl_from_row_tuple!(5; A: 0, B: 1, C: 2, D: 3, E: 4);
impl_from_row_tuple!(6; A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_from_row_tuple!(7; A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_from_row_tuple!(8; A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

// ------------------------------------------------------------ StreamWriter

/// Monotone writer counters (plain integers: a writer is exclusively
/// owned, so nothing here is shared across threads).
#[derive(Debug, Default)]
struct WriterStats {
    appended: u64,
    rejected: u64,
    flushes: u64,
    backpressure_waits: u64,
}

/// Point-in-time view of a writer's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStatsSnapshot {
    /// Rows accepted into the basket.
    pub appended: u64,
    /// Rows rejected by validation (arity, type, malformed text).
    pub rejected: u64,
    /// Flushes that reached the basket.
    pub flushes: u64,
    /// Flushes that hit the capacity limit (blocked or rejected).
    pub backpressure_waits: u64,
}

/// A typed, schema-validated, batched ingestion handle for one basket —
/// the replacement for hand-wiring a `ChannelSource` receptor.
///
/// Rows are validated against the basket's user schema on [`append`]
/// (coercion rules identical to SQL `INSERT`), buffered up to the batch
/// size, and appended in bulk on [`flush`] — preserving the paper's
/// batch-processing advantage on the ingest path. A writer is independent
/// of the session's lifetime and may be moved to a producer thread.
///
/// [`append`]: StreamWriter::append
/// [`flush`]: StreamWriter::flush
pub struct StreamWriter {
    basket: Arc<Basket>,
    user_schema: Schema,
    buf: Vec<Vec<Value>>,
    batch_size: usize,
    capacity: Option<usize>,
    overflow: OverflowPolicy,
    stats: WriterStats,
    metrics: Option<Arc<SessionMetrics>>,
}

impl StreamWriter {
    pub(crate) fn new(
        basket: Arc<Basket>,
        batch_size: usize,
        capacity: Option<usize>,
        overflow: OverflowPolicy,
        metrics: Option<Arc<SessionMetrics>>,
    ) -> Self {
        let user_schema = Schema {
            columns: basket.schema().columns[..basket.user_width()].to_vec(),
        };
        StreamWriter {
            basket,
            user_schema,
            buf: Vec::new(),
            batch_size: batch_size.max(1),
            capacity,
            overflow,
            stats: WriterStats::default(),
            metrics,
        }
    }

    /// Name of the target basket.
    pub fn basket_name(&self) -> &str {
        self.basket.name()
    }

    /// The user schema rows are validated against (no `ts` column).
    pub fn schema(&self) -> &Schema {
        &self.user_schema
    }

    /// Rows buffered but not yet flushed.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WriterStatsSnapshot {
        WriterStatsSnapshot {
            appended: self.stats.appended,
            rejected: self.stats.rejected,
            flushes: self.stats.flushes,
            backpressure_waits: self.stats.backpressure_waits,
        }
    }

    /// Validate and buffer one row; flushes automatically when the buffer
    /// reaches the batch size. Rejected rows
    /// ([`DataCellError::Decode`]) are counted and do not disturb the
    /// buffer. A [`DataCellError::Backpressure`] error is different: the
    /// row *was* accepted and stays buffered — the auto-flush could not
    /// complete. Retry with [`flush`](StreamWriter::flush) (or just keep
    /// appending); do **not** re-append the same row.
    pub fn append(&mut self, row: impl IntoRow) -> Result<()> {
        let row = row.into_row();
        self.validate(&row)?;
        self.buf.push(row);
        if self.buf.len() >= self.batch_size {
            self.flush()?;
        }
        Ok(())
    }

    /// Parse and buffer one textual tuple (the paper's wire format, with
    /// quoting rules per [`crate::text`]); malformed lines are counted in
    /// [`WriterStatsSnapshot::rejected`].
    pub fn append_text(&mut self, line: &str) -> Result<()> {
        match text::parse_tuple(line, &self.user_schema) {
            Ok(row) => {
                self.buf.push(row);
                if self.buf.len() >= self.batch_size {
                    self.flush()?;
                }
                Ok(())
            }
            Err(e) => {
                self.stats.rejected += 1;
                Err(e)
            }
        }
    }

    /// Reject a row the basket could not take (arity, or a value with no
    /// lossless coercion to its column type). The coercion itself happens
    /// once, when the flushed batch is transposed into the basket.
    fn validate(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.user_schema.len() {
            self.stats.rejected += 1;
            return Err(DataCellError::Decode(format!(
                "row arity {} != schema {} arity {}",
                row.len(),
                self.user_schema.render(),
                self.user_schema.len()
            )));
        }
        for (v, cd) in row.iter().zip(&self.user_schema.columns) {
            if !v.can_coerce_to(cd.ty) {
                self.stats.rejected += 1;
                return Err(DataCellError::Decode(format!(
                    "column {}: cannot coerce {v} to {}",
                    cd.name, cd.ty
                )));
            }
        }
        Ok(())
    }

    /// The smaller of the writer's soft cap and the basket's own capacity
    /// (`None` = unbounded on both sides).
    fn effective_capacity(&self) -> Option<usize> {
        match (self.capacity, self.basket.capacity()) {
            (Some(w), Some(b)) => Some(w.min(b)),
            (Some(w), None) => Some(w),
            (None, b) => b,
        }
    }

    /// Append every buffered row to the basket in bulk, applying the
    /// capacity/overflow policy — the writer's own soft cap *and* the
    /// basket's engine-level capacity, whichever is tighter. A buffer
    /// larger than the remaining capacity is flushed in capacity-sized
    /// chunks, so a batch size above the basket capacity still makes
    /// progress. Returns the number of rows flushed; on
    /// [`DataCellError::Backpressure`] the rows already appended are
    /// removed from the buffer, the rest stay for retry.
    pub fn flush(&mut self) -> Result<usize> {
        if self.buf.is_empty() {
            return Ok(0);
        }
        let total = self.buf.len();
        let mut offset = 0;
        let mut waited = false;
        while offset < total {
            let (room, resident) = match self.effective_capacity() {
                None => (total - offset, 0),
                Some(capacity) => {
                    let resident = self.basket.len();
                    (capacity.saturating_sub(resident), resident)
                }
            };
            if room == 0 {
                if !waited {
                    self.stats.backpressure_waits += 1;
                    waited = true;
                }
                match self.overflow {
                    // A Spill basket reports no capacity (`room` is never
                    // 0 through `effective_capacity` unless the writer set
                    // its own soft cap); treat a soft-cap hit like Block:
                    // wait for the engine to spill/trim.
                    OverflowPolicy::Reject => {
                        self.buf.drain(..offset);
                        self.record_flush(offset);
                        return Err(DataCellError::Backpressure {
                            basket: self.basket.name().to_string(),
                            resident,
                            capacity: self.effective_capacity().unwrap_or(0),
                        });
                    }
                    OverflowPolicy::Block | OverflowPolicy::Spill { .. } => {
                        let signal = self.basket.signal();
                        let seen = signal.version();
                        // Re-check after any basket change (or 1ms, so a
                        // stopped pipeline cannot wedge the writer forever
                        // without it noticing stop conditions upstream).
                        signal.wait_past(seen, Duration::from_millis(1));
                        continue;
                    }
                    OverflowPolicy::ShedOldest => {
                        // Make room at the head of the stream; the basket
                        // counts the shed tuples in its stats.
                        let need = (total - offset)
                            .min(self.effective_capacity().unwrap_or(total - offset));
                        self.basket.shed_oldest(need.max(1));
                        continue;
                    }
                }
            }
            let n = room.min(total - offset);
            // A concurrent producer may still win the race to the last slot:
            // a Block-policy *writer* then waits inside the append, while
            // a non-blocking writer (Reject/ShedOldest) uses the
            // non-waiting path so the race surfaces as Backpressure and is
            // handled by this loop — never by parking un-cancellably
            // inside the engine (the wire receptor's stop-aware retry
            // depends on flush returning).
            let append = if self.overflow == OverflowPolicy::Block {
                self.basket.append_rows(&self.buf[offset..offset + n])
            } else {
                self.basket.try_append_rows(&self.buf[offset..offset + n])
            };
            match append {
                Ok(()) => offset += n,
                Err(DataCellError::Backpressure { .. })
                    if self.overflow != OverflowPolicy::Reject =>
                {
                    continue;
                }
                Err(e) => {
                    self.buf.drain(..offset);
                    self.record_flush(offset);
                    return Err(e);
                }
            }
        }
        self.buf.clear();
        self.record_flush(total);
        Ok(total)
    }

    fn record_flush(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.stats.appended += n as u64;
        self.stats.flushes += 1;
        if let Some(m) = &self.metrics {
            m.ingested.add(n as u64);
        }
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        // Best effort: do not lose buffered rows on drop, but never block
        // a (possibly panicking) thread on backpressure — flush whatever
        // fits right now and abandon the rest.
        if !self.buf.is_empty() {
            self.overflow = OverflowPolicy::Reject;
            let _ = self.flush();
        }
    }
}

// ------------------------------------------------------------ Subscription

/// A typed stream of continuous-query results.
///
/// Each delivered tuple (minus the implicit `ts` column) is decoded into
/// `T` via [`FromRow`]. `Subscription<String>` reproduces the old textual
/// interface; `Subscription<Vec<Value>>` gives raw rows.
///
/// Subscriptions are **broadcast by default**: each registers its own
/// reader on the query's output basket, so several subscriptions each see
/// the full result stream, and a tuple is released only once every
/// subscriber has received it. Competing-consumer delivery (each tuple to
/// exactly one subscriber) is available via
/// [`SubscriptionMode::Shared`] and
/// [`DataCell::subscribe_with`](crate::DataCell::subscribe_with).
///
/// The channel closes — [`next_timeout`] returns
/// [`DataCellError::Disconnected`] — when the query is dropped
/// ([`QueryHandle::drop_query`] or `DROP CONTINUOUS QUERY`) or the session
/// stops.
///
/// [`next_timeout`]: Subscription::next_timeout
pub struct Subscription<T = Vec<Value>> {
    query: String,
    rx: Receiver<Vec<Value>>,
    /// Shared-mode drain ledger: every row received here is acknowledged
    /// so the emitter can commit the pool cursor past it (exactly-once
    /// failover; see [`crate::emitter::AckLedger`]). `None` for broadcast
    /// subscriptions, whose reader dies with them.
    ledger: Option<Arc<crate::emitter::AckLedger>>,
    _decode: PhantomData<fn() -> T>,
}

impl<T: FromRow> Subscription<T> {
    pub(crate) fn new(query: String, rx: Receiver<Vec<Value>>) -> Self {
        Subscription {
            query,
            rx,
            ledger: None,
            _decode: PhantomData,
        }
    }

    pub(crate) fn new_acked(
        query: String,
        rx: Receiver<Vec<Value>>,
        ledger: Arc<crate::emitter::AckLedger>,
    ) -> Self {
        Subscription {
            query,
            rx,
            ledger: Some(ledger),
            _decode: PhantomData,
        }
    }

    /// Name of the subscribed continuous query.
    pub fn query(&self) -> &str {
        &self.query
    }

    /// Non-blocking receive: `Ok(Some)` on data, `Ok(None)` when nothing
    /// is queued, `Err(Disconnected)` once the query is gone.
    pub fn try_next(&self) -> Result<Option<T>> {
        match self.rx.try_recv() {
            Ok(row) => {
                if let Some(l) = &self.ledger {
                    l.ack();
                }
                T::from_row(row).map(Some)
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(DataCellError::Disconnected),
        }
    }

    /// Blocking receive with a deadline: `Ok(None)` means the timeout
    /// elapsed (the subscription is still live).
    pub fn next_timeout(&self, timeout: Duration) -> Result<Option<T>> {
        match self.rx.recv_timeout(timeout) {
            Ok(row) => {
                if let Some(l) = &self.ledger {
                    l.ack();
                }
                T::from_row(row).map(Some)
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(DataCellError::Disconnected),
        }
    }

    /// [`try_next`](Subscription::try_next) without the drain
    /// acknowledgement: the popped row is **not** recorded against the
    /// shared-pool ledger. For bridges that forward rows onward (e.g. the
    /// network emitter writing to a socket) and must count a row as
    /// drained only once that onward delivery succeeds — call
    /// [`ack_rows`](Subscription::ack_rows) afterwards, or the row is
    /// treated as lost and redelivered to the pool at this subscription's
    /// settlement. Identical to `try_next` on broadcast subscriptions.
    pub fn try_next_unacked(&self) -> Result<Option<T>> {
        match self.rx.try_recv() {
            Ok(row) => T::from_row(row).map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(DataCellError::Disconnected),
        }
    }

    /// [`next_timeout`](Subscription::next_timeout) without the drain
    /// acknowledgement; see
    /// [`try_next_unacked`](Subscription::try_next_unacked).
    pub fn next_timeout_unacked(&self, timeout: Duration) -> Result<Option<T>> {
        match self.rx.recv_timeout(timeout) {
            Ok(row) => T::from_row(row).map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(DataCellError::Disconnected),
        }
    }

    /// True when receives are drain-acknowledged against a shared-pool
    /// ledger (the subscription was opened with
    /// [`SubscriptionMode::Shared`]) — i.e. when a bridge using the
    /// `_unacked` variants must follow up with
    /// [`ack_rows`](Subscription::ack_rows). Lets such a bridge skip
    /// per-burst delivery confirmation work on broadcast subscriptions,
    /// where acks are no-ops.
    pub fn needs_ack(&self) -> bool {
        self.ledger.is_some()
    }

    /// Acknowledge `n` rows previously received through the `_unacked`
    /// variants, marking them drained on the shared-pool ledger. No-op on
    /// broadcast subscriptions. Acknowledge only rows whose onward
    /// delivery actually succeeded: anything popped but never acked is
    /// returned to the pool when this subscription settles.
    pub fn ack_rows(&self, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(l) = &self.ledger {
            l.ack_n(n);
        }
    }

    /// Decode everything currently queued, without blocking.
    pub fn drain(&self) -> Result<Vec<T>> {
        let mut out = Vec::new();
        while let Some(v) = self.try_next()? {
            out.push(v);
        }
        Ok(out)
    }

    /// Collect up to `n` rows, waiting at most `within` overall.
    pub fn collect_n(&self, n: usize, within: Duration) -> Result<Vec<T>> {
        let deadline = Instant::now() + within;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.next_timeout(deadline - now) {
                Ok(Some(v)) => out.push(v),
                Ok(None) => break,
                Err(DataCellError::Disconnected) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Iterate rows, ending when no row arrives within `idle_timeout` or
    /// the subscription closes. Decode failures also end iteration — use
    /// [`next_timeout`](Subscription::next_timeout) for per-row errors.
    pub fn iter_timeout(&self, idle_timeout: Duration) -> SubscriptionIter<'_, T> {
        SubscriptionIter {
            sub: self,
            idle_timeout,
        }
    }
}

impl<T> Drop for Subscription<T> {
    /// Close the shared-pool ledger, so the emitter settles whatever this
    /// subscription never drained even when it has no push left to fail.
    fn drop(&mut self) {
        if let Some(l) = &self.ledger {
            l.close();
        }
    }
}

/// Iterator over a [`Subscription`] with an idle timeout.
pub struct SubscriptionIter<'a, T> {
    sub: &'a Subscription<T>,
    idle_timeout: Duration,
}

impl<T: FromRow> Iterator for SubscriptionIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.sub.next_timeout(self.idle_timeout).ok().flatten()
    }
}

// ------------------------------------------------------------- QueryHandle

/// Lifecycle handle for one registered continuous query.
///
/// Obtained from [`DataCell::query_handle`]. `pause` stops the scheduler
/// from firing the factory (inputs keep buffering); `resume` processes the
/// backlog in one bulk step; [`drop_query`](QueryHandle::drop_query)
/// detaches the factory, drops the output basket, and closes every
/// subscription — equivalent to the SQL `DROP CONTINUOUS QUERY`.
pub struct QueryHandle<'a> {
    cell: &'a DataCell,
    name: String,
}

impl<'a> QueryHandle<'a> {
    pub(crate) fn new(cell: &'a DataCell, name: String) -> Self {
        QueryHandle { cell, name }
    }

    /// The query's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stop scheduling the factory; input baskets keep buffering.
    pub fn pause(&self) -> Result<()> {
        self.cell.pause_query(&self.name)
    }

    /// Re-enable scheduling; the buffered backlog is processed in bulk.
    pub fn resume(&self) -> Result<()> {
        self.cell.resume_query(&self.name)
    }

    /// True iff the factory is currently paused.
    pub fn is_paused(&self) -> Result<bool> {
        self.cell.is_query_paused(&self.name)
    }

    /// Set the query's deficit-round-robin weight (clamped to ≥ 1): under
    /// [`Fairness::DeficitRoundRobin`] a weight-3 query accrues three times
    /// the busy-time credit of a weight-1 co-tenant. Equivalent to
    /// the SQL `SET QUERY WEIGHT name = 3`. Has no effect under
    /// [`Fairness::Priority`].
    pub fn set_weight(&self, weight: u32) -> Result<()> {
        self.cell.set_query_weight(&self.name, weight)
    }

    /// The query's output basket.
    pub fn output(&self) -> Result<Arc<Basket>> {
        self.cell.query_output(&self.name)
    }

    /// Subscribe to this query's results (same as [`DataCell::subscribe`]).
    pub fn subscribe<T: FromRow>(&self) -> Result<Subscription<T>> {
        self.cell.subscribe(&self.name)
    }

    /// Drop the query: detach the factory from the scheduler, remove the
    /// output basket from the catalog, stop its emitters, and close every
    /// subscription channel.
    pub fn drop_query(self) -> Result<()> {
        self.cell.drop_query(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn into_row_accepts_tuples_and_vecs() {
        let r = (1i64, 2.5f64, "x", true).into_row();
        assert_eq!(
            r,
            vec![
                Value::Int(1),
                Value::Float(2.5),
                Value::Str("x".into()),
                Value::Bool(true)
            ]
        );
        assert_eq!(vec![Value::Int(1)].into_row(), vec![Value::Int(1)]);
        assert_eq!((None::<i64>,).into_row(), vec![Value::Nil]);
    }

    #[test]
    fn from_row_decodes_tuples_strings_and_options() {
        let row = vec![Value::Int(5), Value::Str("a,b".into())];
        let (i, s): (i64, String) = FromRow::from_row(row.clone()).unwrap();
        assert_eq!((i, s.as_str()), (5, "a,b"));
        let text: String = FromRow::from_row(row.clone()).unwrap();
        assert_eq!(text, "5,\"a,b\"", "wire format quotes the comma");
        let raw: Vec<Value> = FromRow::from_row(row).unwrap();
        assert_eq!(raw.len(), 2);
        let opt: (Option<i64>,) = FromRow::from_row(vec![Value::Nil]).unwrap();
        assert_eq!(opt.0, None);
        let bad: Result<(i64,)> = FromRow::from_row(vec![Value::Str("x".into())]);
        assert!(matches!(bad, Err(DataCellError::Decode(_))));
        let wrong_arity: Result<(i64, i64)> = FromRow::from_row(vec![Value::Int(1)]);
        assert!(matches!(wrong_arity, Err(DataCellError::Decode(_))));
    }

    #[test]
    fn builder_defaults_and_knobs() {
        let b = DataCellBuilder::new()
            .query_priority(3)
            .min_fire_interval(Duration::from_millis(5))
            .writer_batch_size(0)
            .basket_capacity(0)
            .overflow_policy(OverflowPolicy::Reject)
            .metrics(true);
        assert_eq!(b.default_policy.priority, 3);
        assert_eq!(
            b.default_policy.min_interval,
            Some(Duration::from_millis(5))
        );
        assert_eq!(b.writer_batch, 1, "clamped to >= 1");
        assert_eq!(b.basket_capacity, Some(1), "clamped to >= 1");
        assert_eq!(b.overflow, OverflowPolicy::Reject);
        assert!(b.metrics);
    }
}
