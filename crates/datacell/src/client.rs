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
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell_bat::candidates::Candidates;
use datacell_bat::types::Value;
use datacell_engine::Chunk;
use datacell_sql::Schema;
use parking_lot::Mutex;

use crate::basket::{AppendRoom, Basket, Durable, ReaderClaim, ReaderLease};
use crate::clock::now_micros;
use crate::error::{DataCellError, Result};
use crate::metrics::{LatencyHistogram, SessionMetrics};
use crate::scheduler::SchedulePolicy;
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
    /// chunk taken whole with [`Subscription::claim_chunk`] (how a
    /// network subscriber claims) settles the same way: the leading rows
    /// reported through [`ChunkClaim::delivered`] commit, the rest rewind.
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
    /// variable). With `1` admission and execution share the background
    /// thread: every firing runs inline. With more, ready firings are
    /// dispatched to a work-stealing pool ([`datacell_exec::WorkerPool`])
    /// while the admission pass (tiers, budgets, gating) stays sequential; also
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
/// on [`append_text`] / [`append_bytes`] (a read's worth of lines at a
/// time on [`append_lines`]) — either way straight into typed
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
/// [`append_lines`]: StreamWriter::append_lines
/// [`flush`]: StreamWriter::flush
pub struct StreamWriter {
    basket: Arc<Basket>,
    buf: text::ChunkBuilder,
    /// The newest WAL record a flush wrote and [`sync`](StreamWriter::sync)
    /// has not yet awaited.
    unsynced: Durable,
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
        let user_schema = basket.user_schema();
        StreamWriter {
            basket,
            buf: text::ChunkBuilder::new(user_schema),
            unsynced: Durable::default(),
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

    /// Decode and buffer the complete lines at the front of `bytes` in one
    /// pass, at most `max_rows` of them ([`text::ChunkBuilder::decode_lines`]);
    /// returns the bytes consumed and the rows buffered. It stops before
    /// the first line that needs the per-line rules — hand that line to
    /// [`append_bytes`](StreamWriter::append_bytes) and resume after it.
    /// Unlike the other appends it never flushes: the caller lands the
    /// buffer ([`flush`](StreamWriter::flush),
    /// [`try_flush`](StreamWriter::try_flush)).
    pub fn append_lines(&mut self, bytes: &[u8], max_rows: usize) -> (usize, usize) {
        self.buf.decode_lines(bytes, max_rows)
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
        let room = self.append_room();
        room.is_none_or(|room| room.admits(0, self.buf.len()))
    }

    /// The target basket's occupancy as
    /// [`try_flush`](StreamWriter::try_flush) sees it
    /// ([`Basket::append_room`]): `None` when no flush is ever refused for
    /// its size. A producer that sizes its own batches reads it per batch,
    /// so a capacity lowered at runtime is respected.
    pub fn append_room(&self) -> Option<AppendRoom> {
        self.basket.append_room()
    }

    /// Append every buffered row to the basket in bulk, under the basket's
    /// own [`OverflowPolicy`]: a full `Block` basket makes this wait (an
    /// oversized buffer lands in slices as room frees up), `Reject`
    /// returns [`DataCellError::Backpressure`], `ShedOldest` sheds and
    /// `Spill` admits. Returns the number of rows that left the buffer; on
    /// any error the rows that landed have left it and the rest stay, so a
    /// retry never duplicates. On a persistent basket `Ok` means durable:
    /// it [syncs](StreamWriter::sync) every row this writer landed.
    pub fn flush(&mut self) -> Result<usize> {
        let landed = self.flush_with(true);
        let synced = self.sync();
        synced.and(landed)
    }

    /// [`flush`](StreamWriter::flush) that never waits: a full `Block`
    /// basket returns [`DataCellError::Backpressure`] too, with nothing
    /// appended (see [`Basket::try_append_chunk`]). Nor does it wait for
    /// the disk: the rows are in the basket, visible to its readers, but
    /// a persistent basket's are durable only once
    /// [`sync`](StreamWriter::sync) returns.
    pub fn try_flush(&mut self) -> Result<usize> {
        self.flush_with(false)
    }

    /// Wait until every row this writer has landed is durable: one
    /// group-commit `fdatasync` covers all the flushes since the last
    /// sync (nothing to wait for on an ephemeral basket). A failed sync
    /// returns [`DataCellError::Storage`]: the rows are in the basket, but
    /// not confirmed on disk, and a later `sync` retries the confirmation.
    /// The `STREAM` receptor calls this before it acknowledges `SYNC` or
    /// `QUIT`; dropping the writer syncs as a best effort.
    pub fn sync(&mut self) -> Result<()> {
        self.basket.await_durable(&self.unsynced)?;
        self.unsynced = Durable::default();
        Ok(())
    }

    fn flush_with(&mut self, wait: bool) -> Result<usize> {
        if self.buf.is_empty() {
            return Ok(0);
        }
        let (landing, result) = self.basket.append_chunk_landing(self.buf.chunk(), wait);
        let landed = landing.rows;
        self.unsynced.advance(landing.durable);
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
        let _ = self.sync();
    }
}

// ------------------------------------------------------------ Subscription

/// One subscriber of a continuous query as its session tracks it: a name
/// (its emitter transition in the Petri net) and the reader it holds on
/// the query's output basket for the lifetime of its [`Subscription`].
#[derive(Debug)]
pub(crate) struct Subscriber {
    pub(crate) name: String,
    pub(crate) lease: Arc<ReaderLease>,
}

/// The accounts a subscription's deliveries feed: its query's latency
/// histogram (always recorded — the output basket's `ts` rides on every
/// tuple anyway: output-basket entry, or input-basket entry when the query
/// projects `ts`) and, when session metrics are on, the session's delivered
/// counter and latency histogram. A row is accounted once, when it is
/// committed: at claim for a broadcast reader, as it is handed out for a
/// pool member, and as it is reported delivered for a [`ChunkClaim`].
#[derive(Debug, Clone)]
pub(crate) struct DeliveryMeter {
    query: Arc<LatencyHistogram>,
    session: Option<Arc<SessionMetrics>>,
}

impl DeliveryMeter {
    pub(crate) fn new(query: Arc<LatencyHistogram>, session: Option<Arc<SessionMetrics>>) -> Self {
        DeliveryMeter { query, session }
    }

    /// Account rows `rows` of a delivered chunk (its `ts` column last):
    /// their count, and their latency as of now.
    fn record(&self, chunk: &Chunk, rows: Range<usize>) {
        if let Some(m) = &self.session {
            m.delivered.add(rows.len() as u64);
        }
        if let Some(ts) = chunk.columns.last().and_then(|c| c.as_timestamps().ok()) {
            let (ts, now) = (&ts[rows], now_micros());
            self.query.record_many(ts, now);
            if let Some(m) = &self.session {
                m.latency.record_many(ts, now);
            }
        }
    }
}

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
/// [`OverflowPolicy`] bound it. A consumer that wants columns rather than
/// rows — the network subscriber — takes whole chunks with
/// [`claim_chunk`](Subscription::claim_chunk) instead.
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
    /// Lent by the output basket.
    rows: Arc<Chunk>,
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
        let rows = Arc::new(Chunk::empty(subscriber.lease.basket().schema().clone()));
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

    /// True once the query is gone: dropped, or its session stopped.
    pub fn is_closed(&self) -> bool {
        self.subscriber.lease.basket().is_closed()
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
        if self.shared {
            self.meter.record(&claim.rows, at..at + 1);
            if claim.taken == claim.rows.len() {
                let lease = &self.subscriber.lease;
                lease
                    .basket()
                    .commit_claim(lease.id(), claim.start, claim.end);
            }
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
        let (rows, start, end) = basket.lend_for_reader(lease.id(), usize::MAX);
        if rows.is_empty() {
            return Ok(false);
        }
        if !self.shared {
            basket.commit_claim(lease.id(), start, end);
            self.meter.record(&rows, 0..rows.len());
        }
        *claim = Claim {
            rows,
            start,
            end,
            taken: 0,
        };
        Ok(true)
    }

    /// Claim everything unread as one [`Chunk`] (the output basket's `ts`
    /// column last), waiting for rows once, at most `timeout`: the
    /// emitter's step for a consumer that takes columns rather than
    /// decoded rows, as the network subscriber does. Report through
    /// [`ChunkClaim::delivered`] how many leading rows reached the
    /// consumer; dropping the claim commits those and gives the rest back
    /// to this subscription's reader, to be claimed again (under
    /// [`SubscriptionMode::Shared`], perhaps by another member). Rows a
    /// [`try_next`](Self::try_next) claim left undecoded come out first,
    /// handed out as `try_next` would have. `Ok(None)` means nothing came:
    /// the wait ended at `timeout`, or on a wake-up of the output basket's
    /// signal that left this reader nothing to claim. `Err(Disconnected)`
    /// means the query is gone.
    pub fn claim_chunk(&self, timeout: Duration) -> Result<Option<ChunkClaim<'_>>> {
        let signal = self.subscriber.lease.basket().signal();
        // Read the version before claiming: a change racing the claim
        // bumps it, so the wait cannot miss it.
        let seen = signal.version();
        if let Some(claim) = self.take_chunk()? {
            return Ok(Some(claim));
        }
        signal.wait_past(seen, timeout);
        self.take_chunk()
    }

    /// [`claim_chunk`](Self::claim_chunk) without the wait.
    fn take_chunk(&self) -> Result<Option<ChunkClaim<'_>>> {
        let mut claim = self.claim.lock();
        let len = claim.rows.len();
        if claim.taken < len {
            let rows = Arc::new(claim.rows.gather(&Candidates::Dense(claim.taken..len))?);
            if self.shared {
                self.meter.record(&claim.rows, claim.taken..len);
                let lease = &self.subscriber.lease;
                lease
                    .basket()
                    .commit_claim(lease.id(), claim.start, claim.end);
            }
            claim.taken = len;
            return Ok(Some(ChunkClaim {
                rows,
                delivered: 0,
                owner: None,
            }));
        }
        let lease = &self.subscriber.lease;
        if lease.basket().is_closed() {
            return Err(DataCellError::Disconnected);
        }
        let (rows, claim) = lease.claim(usize::MAX);
        Ok((!rows.is_empty()).then(|| ChunkClaim {
            rows,
            delivered: 0,
            owner: Some((claim, &self.meter)),
        }))
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
            lease.settle(claim.start, claim.taken as u64, claim.end);
        }
    }
}

/// A chunk claimed whole by [`Subscription::claim_chunk`]. Dropping it
/// settles the claim: the rows reported [`delivered`](Self::delivered)
/// commit, the rest go back to the subscription's reader.
pub struct ChunkClaim<'a> {
    /// Lent by the output basket.
    rows: Arc<Chunk>,
    delivered: usize,
    /// The reader's claim on the rows and the accounts they feed; `None`
    /// for rows already handed out.
    owner: Option<(ReaderClaim<'a>, &'a DeliveryMeter)>,
}

impl ChunkClaim<'_> {
    /// The claimed rows, the output basket's `ts` column last.
    pub fn chunk(&self) -> &Chunk {
        &self.rows
    }

    /// Report that the first `n` rows (a running total) reached the
    /// consumer: they are accounted as delivered now and commit when the
    /// claim is dropped.
    pub fn delivered(&mut self, n: usize) {
        let n = n.min(self.rows.len());
        if n > self.delivered {
            if let Some((claim, meter)) = &mut self.owner {
                meter.record(&self.rows, self.delivered..n);
                claim.delivered(n);
            }
            self.delivered = n;
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

    /// Set the query's deficit-round-robin weight (clamped to ≥ 1): in the
    /// DRR ring a weight-3 query accrues three times the busy-time credit
    /// of a weight-1 co-tenant. Equivalent to the SQL
    /// `SET QUERY WEIGHT name = 3`. It acts only at
    /// [`SchedulePolicy::priority`]` < 0`; the unbudgeted sweep ignores it.
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
    /// output basket from the catalog, and close it, which ends every
    /// subscription — network subscribers included.
    pub fn drop_query(self) -> Result<()> {
        self.cell.drop_query(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_bat::column::Column;
    use datacell_bat::types::DataType;

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
            .scheduler_policy(SchedulePolicy {
                priority: 3,
                min_interval: Some(Duration::from_millis(5)),
                ..SchedulePolicy::default()
            })
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

    // ------- subscriptions: the subscriber plays the emitter

    /// A session (metrics on) with one pass-through query `q` over
    /// basket `b`.
    fn pool_cell() -> DataCell {
        let cell = DataCell::builder().metrics(true).build();
        cell.execute("create basket b (x int)").unwrap();
        cell.continuous_query("q", "select s.x from [select * from b] as s")
            .unwrap();
        cell
    }

    /// Append `values` to `b` and run the query to quiescence.
    fn feed(cell: &DataCell, values: std::ops::Range<i64>) {
        let mut w = cell.writer("b").unwrap();
        for i in values {
            w.append((i,)).unwrap();
        }
        w.flush().unwrap();
        cell.run_until_quiescent(10);
    }

    fn member(cell: &DataCell) -> Subscription<(i64,)> {
        cell.subscribe_with("q", SubscriptionMode::Shared).unwrap()
    }

    fn values(sub: &Subscription<(i64,)>) -> Vec<i64> {
        sub.drain().unwrap().into_iter().map(|(x,)| x).collect()
    }

    /// `q`'s delivered rows by the session counter and by its latency
    /// histogram's observation count.
    fn delivered(cell: &DataCell) -> (u64, u64) {
        let m = cell.metrics();
        let observed = m
            .per_query_latency
            .iter()
            .find(|(q, _)| q == "q")
            .map_or(0, |(_, h)| h.count);
        (m.tuples_delivered, observed)
    }

    #[test]
    fn acked_shared_pool_fails_over_exactly_once() {
        // A pool member takes k rows of its claim and is dropped: its
        // settlement commits exactly those k and rewinds the rest, so the
        // survivor gets every other row once — for every k. Each row is
        // accounted once, by the member that handed it out.
        for k in 0..=4i64 {
            let cell = pool_cell();
            let dying = member(&cell);
            let survivor = member(&cell);
            feed(&cell, 0..4);
            let taken: Vec<i64> = (0..k)
                .map(|_| dying.try_next().unwrap().unwrap().0)
                .collect();
            assert_eq!(taken, (0..k).collect::<Vec<_>>());
            if k > 0 {
                assert_eq!(survivor.try_next().unwrap(), None, "one claim holds all 4");
            }
            drop(dying);
            feed(&cell, 4..6);
            assert_eq!(values(&survivor), (k..6).collect::<Vec<_>>(), "k = {k}");
            assert!(cell.query_output("q").unwrap().is_empty(), "k = {k}");
            assert_eq!(delivered(&cell), (6, 6), "k = {k}");
        }
    }

    #[test]
    fn acked_shared_pool_settles_when_idle_subscriber_drops() {
        // The last member leaves mid-claim: the row it took is committed
        // and trimmed at once, the rows it never took stay for the next
        // member, and the pool reader is released.
        let cell = pool_cell();
        let out = cell.query_output("q").unwrap();
        let dying = member(&cell);
        feed(&cell, 0..4);
        assert_eq!(dying.try_next().unwrap(), Some((0,)));
        drop(dying);
        assert_eq!(out.reader_count(), 0, "pool reader released");
        assert_eq!(out.len(), 3, "the taken row trimmed, the rest kept");
        let next = member(&cell);
        assert_eq!(values(&next), vec![1, 2, 3]);
        assert!(out.is_empty());
    }

    #[test]
    fn acked_shared_pool_commits_as_subscriber_drains() {
        // A shared claim commits once its last row is handed out, so the
        // basket holds the claim until then and trims it right after.
        let cell = pool_cell();
        let out = cell.query_output("q").unwrap();
        let sub = member(&cell);
        feed(&cell, 0..30);
        for i in 0..29 {
            assert_eq!(sub.try_next().unwrap(), Some((i,)));
        }
        assert_eq!(out.len(), 30, "claim not yet fully handed out");
        assert_eq!(sub.try_next().unwrap(), Some((29,)));
        assert!(out.is_empty(), "claim committed and trimmed");
    }

    #[test]
    fn claims_are_atomic_no_duplicates() {
        // Two threads append to the output basket while a subscriber
        // drains it: every row arrives exactly once.
        let cell = pool_cell();
        let out = cell.query_output("q").unwrap();
        let sub = cell.subscribe::<(i64,)>("q").unwrap();
        let mut got = Vec::new();
        std::thread::scope(|scope| {
            let appenders: Vec<_> = (0..2i64)
                .map(|w| {
                    let out = &out;
                    scope.spawn(move || {
                        for i in w * 1000..w * 1000 + 500 {
                            out.append_rows(&[vec![Value::Int(i)]]).unwrap();
                        }
                    })
                })
                .collect();
            while !appenders.iter().all(|h| h.is_finished()) {
                got.extend(values(&sub));
            }
        });
        got.extend(values(&sub));
        assert_eq!(got.len(), 1000, "no duplicates, no losses");
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 1000, "no duplicates, no losses");
        assert!(out.is_empty());
    }

    #[test]
    fn latency_records_one_observation_per_delivered_row() {
        // Rows decoded through `try_next` are accounted once each; of a
        // chunk claim, exactly the rows reported delivered.
        let cell = pool_cell();
        let sub = cell.subscribe::<(i64,)>("q").unwrap();
        feed(&cell, 0..3);
        assert_eq!(values(&sub), vec![0, 1, 2]);
        assert_eq!(delivered(&cell), (3, 3));
        feed(&cell, 3..8);
        let mut claim = sub.claim_chunk(Duration::ZERO).unwrap().unwrap();
        assert_eq!(claim.chunk().len(), 5);
        claim.delivered(2);
        claim.delivered(1);
        drop(claim);
        assert_eq!(delivered(&cell), (5, 5), "only the delivered prefix");
    }

    #[test]
    fn latency_spans_the_input_basket_only_when_the_query_projects_ts() {
        // A row whose `ts` says it entered `b` 10 s ago: a query projecting
        // `ts` carries that stamp into its output basket and records it;
        // one that does not stamps its output rows afresh and records only
        // their output-basket residency. Both read `b` through one shared
        // plan head.
        let cell = DataCell::builder().plan_sharing(true).build();
        cell.execute("create basket b (x int)").unwrap();
        cell.continuous_query("with_ts", "select t.x, t.ts from [select * from b] as t")
            .unwrap();
        cell.continuous_query("without_ts", "select t.x from [select * from b] as t")
            .unwrap();
        // The projected `ts` is the output basket's own: one user column.
        let with_ts = cell.subscribe::<(i64,)>("with_ts").unwrap();
        let without_ts = cell.subscribe::<(i64,)>("without_ts").unwrap();
        const TEN_S: i64 = 10_000_000;
        let chunk = Chunk::new(
            Schema::new(vec![
                ("x".into(), DataType::Int),
                ("ts".into(), DataType::Timestamp),
            ]),
            vec![
                Column::from_ints(vec![7]),
                Column::from_timestamps(vec![now_micros() - TEN_S]),
            ],
        )
        .unwrap();
        cell.basket("b").unwrap().append_chunk(&chunk).unwrap();
        cell.run_until_quiescent(10);
        assert_eq!(with_ts.drain().unwrap(), vec![(7,)]);
        assert_eq!(without_ts.drain().unwrap(), vec![(7,)]);
        let m = cell.metrics();
        let latency = |q: &str| {
            let (_, h) = m.per_query_latency.iter().find(|(n, _)| n == q).unwrap();
            assert_eq!(h.count, 1, "{q}: one delivered row");
            h.max_micros
        };
        assert!(latency("with_ts") >= TEN_S as u64, "input-basket entry");
        assert!(latency("without_ts") < TEN_S as u64, "output-basket entry");
    }

    #[test]
    fn chunk_claim_settles_the_delivered_prefix() {
        // A partly delivered chunk commits its prefix and gives the rest
        // back: to the same broadcast reader, or to another pool member.
        let cell = pool_cell();
        let out = cell.query_output("q").unwrap();
        let sub = cell.subscribe::<(i64,)>("q").unwrap();
        let (dying, survivor) = (member(&cell), member(&cell));
        feed(&cell, 0..6);
        let mut claim = sub.claim_chunk(Duration::ZERO).unwrap().unwrap();
        claim.delivered(2);
        drop(claim);
        assert_eq!(values(&sub), vec![2, 3, 4, 5], "broadcast: the rest again");
        let mut claim = dying.claim_chunk(Duration::ZERO).unwrap().unwrap();
        claim.delivered(4);
        drop(claim);
        drop(dying);
        assert_eq!(
            values(&survivor),
            vec![4, 5],
            "shared: the rest to a member"
        );
        assert!(out.is_empty());
        // Rows a `try_next` claim left come out first, as handed out.
        feed(&cell, 6..9);
        assert_eq!(sub.try_next().unwrap(), Some((6,)));
        let claim = sub.claim_chunk(Duration::ZERO).unwrap().unwrap();
        let rest: Vec<i64> = (0..claim.chunk().len())
            .map(|i| claim.chunk().row(i).unwrap()[0].as_int().unwrap())
            .collect();
        assert_eq!(rest, vec![7, 8]);
        drop(claim);
        assert_eq!(sub.try_next().unwrap(), None);
        assert!(sub.claim_chunk(Duration::ZERO).unwrap().is_none());
        cell.drop_query("q").unwrap();
        assert!(sub.is_closed());
        assert!(matches!(
            sub.claim_chunk(Duration::ZERO),
            Err(DataCellError::Disconnected)
        ));
    }
}
