//! The typed client facade: [`DataCellBuilder`], [`StreamWriter`],
//! [`Subscription`] and [`QueryHandle`].
//!
//! The paper's periphery exchanges *textual* tuples (§2.1). This module
//! is the typed surface above the Figure-1 pipeline, and its one way in
//! and one way out:
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
//! text-compat mode). A writer is the pipeline's receptor and a
//! subscription its emitter; baskets, factories and the Petri-net
//! scheduler beneath them are the paper's architecture.

use std::marker::PhantomData;

use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell_bat::types::Value;
use datacell_engine::Chunk;
use datacell_sql::Schema;
use parking_lot::Mutex;

use crate::basket::Basket;
use crate::emitter::{settle, DeliveryMeter, Subscriber};
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
    /// claim; at-least-once under racing failures.** Each member
    /// atomically claims the next unread range, so no two pool members
    /// deliver the same tuple concurrently, and the tuples inside one
    /// claim always arrive in stream order. A [`Subscription`] commits a
    /// claim past the pool cursor only once it has handed out the claim's
    /// last row; dropped mid-claim, it commits the rows it handed out and
    /// rewinds the rest to the pool, where a surviving member delivers
    /// them exactly once. Duplicates remain possible only when a rewind
    /// races a sibling's later claim (the rewind re-opens a range the
    /// sibling may already have delivered): never loss, never reordering
    /// within a claim. Consumers that cannot tolerate that should
    /// deduplicate on a key or use [`SubscriptionMode::Broadcast`]. A
    /// sink attached with [`DataCell::subscribe_sink`](crate::DataCell::subscribe_sink)
    /// (the network subscriber) commits a claim once its delivery returns
    /// `Ok`, which a socket sink does only for rows written to a peer
    /// that has not hung up; a delivery failing partway commits the
    /// prefix it reports
    /// ([`PartialDelivery`](crate::emitter::PartialDelivery)) and rewinds
    /// the rest.
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

    /// Default tuple capacity of every basket created through this
    /// session (`CREATE BASKET` and continuous-query output baskets); a
    /// `CAPACITY` clause overrides it per basket. The capacity lives in
    /// the basket alone: writers and factories only append, and the
    /// basket applies its [`OverflowPolicy`], so backpressure propagates
    /// end-to-end. A [`Subscription`] that stops polling holds its
    /// reader's watermark, so the capacity of its query's output basket is
    /// also what bounds a slow subscriber.
    pub fn basket_capacity(mut self, tuples: usize) -> Self {
        self.basket_capacity = Some(tuples.max(1));
        self
    }

    /// Default [`OverflowPolicy`] of every basket created through this
    /// session (default: [`OverflowPolicy::Block`]); an `OVERFLOW` clause
    /// overrides it per basket. It says what an append does at capacity:
    /// wait until readers release space, reject the batch, shed the
    /// oldest resident tuples, or spill to disk.
    pub fn overflow_policy(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
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
}

/// A typed, schema-validated, batched ingestion handle for one basket —
/// how rows reach a basket from a program or a `STREAM` connection, and a
/// receptor (§2.1) of the session's Petri net for as long as it lives.
///
/// Rows are validated against the basket's user schema on [`append`]
/// (coercion rules identical to SQL `INSERT`) and textual tuples decoded
/// on [`append_text`] / [`append_bytes`] — either way straight into typed
/// column builders ([`text::ChunkBuilder`]) — buffered up to the batch
/// size, and appended in bulk as one chunk on [`flush`], preserving the
/// paper's batch-processing advantage on the ingest path. Like the
/// paper's receptor, a writer only appends: what enters the basket, and
/// what happens at capacity, is the basket's own [`OverflowPolicy`]. A
/// writer is independent of the session's lifetime and may be moved to a
/// producer thread.
///
/// [`append`]: StreamWriter::append
/// [`append_text`]: StreamWriter::append_text
/// [`append_bytes`]: StreamWriter::append_bytes
/// [`flush`]: StreamWriter::flush
pub struct StreamWriter {
    basket: Arc<Basket>,
    buf: text::ChunkBuilder,
    batch_size: usize,
    stats: WriterStats,
    metrics: Option<Arc<SessionMetrics>>,
    /// Keeps this writer's entry in the session's writer registry alive.
    _tag: Arc<WriterTag>,
}

/// One writer as its session tracks it: a name (its receptor transition in
/// the Petri net) and the basket it feeds. The writer holds it for its
/// lifetime; the session's registry holds it weakly.
#[derive(Debug)]
pub(crate) struct WriterTag {
    pub(crate) name: String,
    pub(crate) basket: String,
}

impl StreamWriter {
    pub(crate) fn new(
        basket: Arc<Basket>,
        batch_size: usize,
        metrics: Option<Arc<SessionMetrics>>,
        tag: Arc<WriterTag>,
    ) -> Self {
        let user_schema = Schema {
            columns: basket.schema().columns[..basket.user_width()].to_vec(),
        };
        StreamWriter {
            basket,
            buf: text::ChunkBuilder::new(user_schema),
            batch_size: batch_size.max(1),
            stats: WriterStats::default(),
            metrics,
            _tag: tag,
        }
    }

    /// Name of the target basket.
    pub fn basket_name(&self) -> &str {
        self.basket.name()
    }

    /// The user schema rows are validated against (no `ts` column).
    pub fn schema(&self) -> &Schema {
        self.buf.schema()
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
        let pushed = self.buf.push_row(&row);
        self.buffered(pushed)
    }

    /// Parse and buffer one textual tuple (the paper's wire format, with
    /// quoting rules per [`crate::text`]); malformed lines are counted in
    /// [`WriterStatsSnapshot::rejected`]. Errors as for
    /// [`append`](StreamWriter::append).
    pub fn append_text(&mut self, line: &str) -> Result<()> {
        self.append_bytes(line.as_bytes())
    }

    /// [`append_text`](StreamWriter::append_text) on raw bytes (one line
    /// without its terminator), as they arrive from a socket: bytes that
    /// are not UTF-8 decode as U+FFFD.
    pub fn append_bytes(&mut self, line: &[u8]) -> Result<()> {
        let decoded = self.buf.decode_line(line);
        self.buffered(decoded)
    }

    /// Count a rejected row, or auto-flush a full buffer.
    fn buffered(&mut self, added: Result<()>) -> Result<()> {
        if let Err(e) = added {
            self.stats.rejected += 1;
            return Err(e);
        }
        if self.buf.len() >= self.batch_size {
            self.flush()?;
        }
        Ok(())
    }

    /// Wait until the target basket changes (a reader released space, the
    /// engine spilled or shed) or `timeout` elapses; returns at once when
    /// the basket would admit the buffer already. Returns whether it
    /// does. For producers that retry a
    /// [`try_flush`](StreamWriter::try_flush) refused with
    /// [`DataCellError::Backpressure`] and must stay responsive to their
    /// own stop conditions between slices.
    pub fn wait_for_room(&self, timeout: Duration) -> bool {
        let signal = self.basket.signal();
        // Read the version before checking the room: a release racing the
        // check bumps it, so the wait cannot miss it.
        let seen = signal.version();
        if self.has_room() {
            return true;
        }
        signal.wait_past(seen, timeout);
        self.has_room()
    }

    /// Whether one non-waiting append of the buffer would be admitted.
    fn has_room(&self) -> bool {
        let room = self.basket.append_room();
        room.is_none_or(|room| room.admits(0, self.buf.len()))
    }

    /// Append every buffered row to the basket in bulk, under the basket's
    /// own [`OverflowPolicy`]: a full `Block` basket makes this wait (an
    /// oversized buffer lands in slices as room frees up), `Reject`
    /// returns [`DataCellError::Backpressure`], `ShedOldest` sheds and
    /// `Spill` admits. Returns the number of rows that left the buffer; on
    /// any error the rows that landed have left it and the rest stay, so a
    /// retry never duplicates.
    pub fn flush(&mut self) -> Result<usize> {
        self.flush_with(true)
    }

    /// [`flush`](StreamWriter::flush) that never waits: a full `Block`
    /// basket returns [`DataCellError::Backpressure`] too, with nothing
    /// appended (see [`Basket::try_append_chunk`]).
    pub fn try_flush(&mut self) -> Result<usize> {
        self.flush_with(false)
    }

    fn flush_with(&mut self, wait: bool) -> Result<usize> {
        if self.buf.is_empty() {
            return Ok(0);
        }
        let (landed, result) = self.basket.append_chunk_landing(self.buf.chunk(), wait);
        if landed == self.buf.len() {
            self.buf.clear();
        } else {
            self.buf.drop_head(landed);
        }
        self.record_flush(landed);
        result.map(|()| landed)
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
        // a (possibly panicking) thread on backpressure — land what the
        // basket admits right now (the buffer, or else the prefix that
        // fits under its capacity) and abandon the rest.
        if self.try_flush().is_err() {
            let room = self.basket.append_room();
            let fits = room.map_or(0, |r| r.capacity.saturating_sub(r.resident));
            if let Ok(head) = self.buf.chunk().head(fits) {
                if fits > 0 && self.basket.try_append_chunk(&head).is_ok() {
                    self.record_flush(head.len());
                }
            }
        }
    }
}

// ------------------------------------------------------------ Subscription

/// A typed stream of continuous-query results.
///
/// Each delivered tuple (minus the implicit `ts` column) is decoded into
/// `T` via [`FromRow`]. `Subscription<String>` renders rows in the textual
/// wire format; `Subscription<Vec<Value>>` gives raw rows.
///
/// A subscription is a **reader on its query's output basket** and plays
/// the emitter itself (§2.1): when it runs out of rows, a poll claims
/// everything unread as one chunk, and rows are decoded out of that chunk
/// on the polling thread. There is no engine-side thread and no queue
/// outside the basket, so a subscriber that stops polling holds its
/// reader's watermark and the output basket's capacity and
/// [`OverflowPolicy`] bound it.
///
/// Subscriptions are **broadcast by default**: each registers its own
/// reader, commits each claim as it takes it, and so several subscriptions
/// each see the full result stream, while a tuple is released only once
/// every subscriber has claimed it. Competing-consumer delivery (each
/// tuple to exactly one subscriber) is available via
/// [`SubscriptionMode::Shared`] and
/// [`DataCell::subscribe_with`](crate::DataCell::subscribe_with).
///
/// The subscription closes when the query is dropped
/// ([`QueryHandle::drop_query`] or `DROP CONTINUOUS QUERY`) or the session
/// stops: it hands out the rows it has already claimed, then
/// [`DataCellError::Disconnected`].
pub struct Subscription<T = Vec<Value>> {
    query: String,
    subscriber: Arc<Subscriber>,
    /// Whether the reader is the query's competing-consumer pool.
    shared: bool,
    meter: DeliveryMeter,
    claim: Mutex<Claim>,
    _decode: PhantomData<fn() -> T>,
}

/// The chunk a subscription claimed last and how much of it it handed out.
struct Claim {
    rows: Chunk,
    /// Oids `[start, end)` of `rows` in the output basket.
    start: u64,
    end: u64,
    /// Rows handed out so far.
    taken: usize,
}

impl<T: FromRow> Subscription<T> {
    pub(crate) fn new(
        query: String,
        subscriber: Arc<Subscriber>,
        mode: SubscriptionMode,
        meter: DeliveryMeter,
    ) -> Self {
        let rows = Chunk::empty(subscriber.lease.basket().schema().clone());
        Subscription {
            query,
            subscriber,
            shared: mode == SubscriptionMode::Shared,
            meter,
            claim: Mutex::new(Claim {
                rows,
                start: 0,
                end: 0,
                taken: 0,
            }),
            _decode: PhantomData,
        }
    }

    /// Name of the subscribed continuous query.
    pub fn query(&self) -> &str {
        &self.query
    }

    /// Non-blocking receive: `Ok(Some)` on data, `Ok(None)` when nothing
    /// is pending, `Err(Disconnected)` once the query is gone.
    pub fn try_next(&self) -> Result<Option<T>> {
        let mut claim = self.claim.lock();
        if claim.taken == claim.rows.len() && !self.claim_more(&mut claim)? {
            return Ok(None);
        }
        let at = claim.taken;
        let width = claim.rows.columns.len() - 1;
        let mut row = Vec::with_capacity(width);
        for column in &claim.rows.columns[..width] {
            row.push(column.get(at)?);
        }
        claim.taken += 1;
        if self.shared && claim.taken == claim.rows.len() {
            let lease = &self.subscriber.lease;
            lease
                .basket()
                .commit_claim(lease.id(), claim.start, claim.end);
        }
        drop(claim);
        T::from_row(row).map(Some)
    }

    /// Claim every unread row of the output basket into `claim`; `false`
    /// when there is none. A broadcast reader commits the claim at once —
    /// nobody else can deliver its rows — while a pool member commits only
    /// after handing out the last row (see [`SubscriptionMode::Shared`]).
    fn claim_more(&self, claim: &mut Claim) -> Result<bool> {
        let lease = &self.subscriber.lease;
        let basket = lease.basket();
        if basket.is_closed() {
            return Err(DataCellError::Disconnected);
        }
        let (rows, start, end) = basket.claim_for_reader(lease.id(), usize::MAX);
        if rows.is_empty() {
            return Ok(false);
        }
        if !self.shared {
            basket.commit_claim(lease.id(), start, end);
        }
        self.meter.record(&rows, rows.len());
        *claim = Claim {
            rows,
            start,
            end,
            taken: 0,
        };
        Ok(true)
    }

    /// Blocking receive with a deadline: `Ok(None)` means the timeout
    /// elapsed (the subscription is still live). Waits on the output
    /// basket's change signal.
    pub fn next_timeout(&self, timeout: Duration) -> Result<Option<T>> {
        if let Some(row) = self.try_next()? {
            return Ok(Some(row));
        }
        let deadline = Instant::now() + timeout;
        let signal = self.subscriber.lease.basket().signal();
        loop {
            // Read the version before polling: a change racing the poll
            // bumps it, so the wait cannot miss it.
            let seen = signal.version();
            if let Some(row) = self.try_next()? {
                return Ok(Some(row));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            signal.wait_past(seen, deadline - now);
        }
    }

    /// Decode everything currently pending, without blocking.
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
    /// A pool member settles its claim: the rows it handed out stay
    /// consumed, the rest go back to the pool. Dropping the last holder of
    /// the reader then deregisters it.
    fn drop(&mut self) {
        let claim = self.claim.get_mut();
        if self.shared && claim.taken < claim.rows.len() {
            let lease = &self.subscriber.lease;
            settle(
                lease.basket(),
                lease.id(),
                claim.start,
                claim.taken as u64,
                claim.end,
            );
        }
    }
}

// A subscription moves to the thread that polls it.
const _: () = {
    const fn send<S: Send>() {}
    send::<Subscription<Vec<Value>>>();
};

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
    /// subscription.
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
