//! Emitters: delivery at the output periphery (§2.1).
//!
//! "An emitter is a separate thread that picks up events prepared by the
//! DataCell kernel and delivers them to interested clients, i.e., those
//! that have subscribed to a query result." Every subscriber is a
//! registered *reader* on its query's output basket: it atomically claims
//! the unread range and commits the claim once delivered (a broadcast
//! subscription, whose rows nobody else could deliver, commits as it
//! claims) — so no tuple is delivered twice by one reader and none is
//! lost. An undelivered claim is *rewound* (the cursor steps back)
//! instead of the chunk being re-inserted, which keeps the stream in
//! order for other readers. Two kinds of subscriber play the emitter:
//!
//! * an **in-process** [`Subscription`](crate::client::Subscription) is
//!   its own emitter: the subscriber's thread claims a chunk when it polls
//!   and decodes rows out of it in place, with no engine-side thread and
//!   no queue outside the basket. A subscriber that stops polling holds
//!   its reader's watermark, so the output basket's capacity and
//!   [`OverflowPolicy`](crate::basket::OverflowPolicy) bound it;
//! * a **network** subscriber, and any custom [`Sink`]
//!   ([`DataCell::subscribe_sink`](crate::DataCell::subscribe_sink)), keeps
//!   an engine-side emitter thread ([`Emitter`]) that claims whenever the
//!   basket signals new content and hands each chunk to its sink.
//!
//! Either way the subscription's deliveries feed its query's latency
//! histogram (`MetricsSnapshot::per_query_latency`), measured from each
//! tuple's arrival stamp.
//!
//! Two fan-out shapes fall out of the reader model:
//!
//! * **broadcast** — each subscriber registers its own reader, so several
//!   subscribers on one basket each see *every* tuple;
//! * **competing consumers** — several subscribers share one
//!   [`ReaderId`]; each claimed range goes to exactly one of them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use datacell_engine::Chunk;

use crate::basket::{Basket, ReaderId, ReaderLease};
use crate::clock::now_micros;
use crate::error::{DataCellError, Result};
use crate::metrics::{LatencyHistogram, SessionMetrics};

/// Where an emitter delivers result batches.
pub trait Sink: Send {
    /// Called once on the emitter thread, after its reader is registered
    /// and before the first delivery — a sink that must announce itself
    /// (a protocol reply) does so here, so nothing it delivers can
    /// overtake the announcement. An error ends the emitter. Default:
    /// nothing to do.
    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    /// Deliver one drained batch (includes the basket's `ts` column last).
    /// A delivery that fails partway reports how many leading rows did
    /// reach the subscriber (see [`PartialDelivery`]).
    fn deliver(&mut self, chunk: &Chunk) -> std::result::Result<(), PartialDelivery>;

    /// Hand the sink its emitter's stop flag, so a delivery that can stall
    /// (a socket whose client stopped reading) aborts cleanly — returning
    /// [`DataCellError::Disconnected`] so the emitter rewinds the claim —
    /// when the emitter is asked to stop. Default: ignored (non-blocking
    /// sinks need no cancellation).
    fn bind_cancel(&mut self, cancel: Arc<AtomicBool>) {
        let _ = cancel;
    }

    /// Hand the sink the delivery accounts of the subscription it serves
    /// (see [`DeliveryMeter`]); the sink records what it delivered, by its
    /// own definition of delivered. Default: ignored (sinks outside a
    /// subscription account nothing).
    fn bind_meter(&mut self, meter: DeliveryMeter) {
        let _ = meter;
    }
}

/// A failed delivery: the first `delivered` rows of the chunk reached the
/// subscriber, the rest did not. A competing-consumer emitter commits that
/// prefix and rewinds only the rest, so a surviving member re-receives
/// just the rows the failing sink could not vouch for.
#[derive(Debug)]
pub struct PartialDelivery {
    /// Leading rows of the chunk that were delivered.
    pub delivered: usize,
    /// Why the rest were not.
    pub error: DataCellError,
}

impl From<DataCellError> for PartialDelivery {
    /// A failure before any row was delivered.
    fn from(error: DataCellError) -> Self {
        PartialDelivery {
            delivered: 0,
            error,
        }
    }
}

/// The accounts a subscription's deliveries feed: its query's end-to-end
/// latency histogram (always recorded — the arrival `ts` rides on every
/// tuple anyway) and, when session metrics are on, the session's delivered
/// counter and latency histogram.
#[derive(Debug, Clone, Default)]
pub struct DeliveryMeter {
    query: Option<Arc<LatencyHistogram>>,
    session: Option<Arc<SessionMetrics>>,
}

impl DeliveryMeter {
    pub(crate) fn new(query: Arc<LatencyHistogram>, session: Option<Arc<SessionMetrics>>) -> Self {
        DeliveryMeter {
            query: Some(query),
            session,
        }
    }

    /// Count `n` rows as delivered.
    pub fn delivered(&self, n: u64) {
        if let Some(m) = &self.session {
            m.delivered.add(n);
        }
    }

    /// Record the latency of rows with arrival stamps `ts` delivered at
    /// `now` (engine-clock µs).
    pub fn latency(&self, ts: &[i64], now: i64) {
        if let Some(h) = &self.query {
            h.record_many(ts, now);
        }
        if let Some(m) = &self.session {
            m.latency.record_many(ts, now);
        }
    }

    /// Account the first `rows` rows of a delivered chunk (its `ts`
    /// column last): their count, and their latency as of now.
    pub fn record(&self, chunk: &Chunk, rows: usize) {
        self.delivered(rows as u64);
        if let Some(ts) = chunk.columns.last().and_then(|c| c.as_timestamps().ok()) {
            self.latency(&ts[..rows], now_micros());
        }
    }
}

/// One subscriber of a continuous query as its session tracks it: a name
/// (its emitter transition in the Petri net) and the reader it holds on
/// the query's output basket. An in-process
/// [`Subscription`](crate::client::Subscription) holds it for its
/// lifetime; a sink's emitter thread holds it until the thread exits.
#[derive(Debug)]
pub(crate) struct Subscriber {
    pub(crate) name: String,
    pub(crate) lease: Arc<ReaderLease>,
}

/// A running emitter thread.
pub struct Emitter {
    stop: Arc<AtomicBool>,
    exited: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Stops an emitter someone else owns (the session keeps every
/// subscription's emitter) from another thread — e.g. the connection
/// thread of a network subscriber that saw its peer hang up.
#[derive(Debug, Clone)]
pub struct EmitterControl {
    stop: Arc<AtomicBool>,
    exited: Arc<AtomicBool>,
}

impl EmitterControl {
    /// Ask the emitter to stop; it rewinds an undelivered claim and
    /// releases its reader on the way out. Does not wait.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// True once the emitter thread has exited: stopped, its query
    /// dropped, or its sink failed.
    pub fn is_finished(&self) -> bool {
        self.exited.load(Ordering::Acquire)
    }
}

impl Emitter {
    /// Spawn an emitter on `reader` of `basket`, delivering into `sink`
    /// whenever the basket signals new content. Each claim commits as soon
    /// as the sink accepts it, so the sink must accept only rows that
    /// reached its consumer; a failed delivery commits the prefix its
    /// [`PartialDelivery`] vouches for and rewinds the rest. `release` runs
    /// after the thread finishes — the session hands it the subscriber's
    /// reader lease, released with it.
    pub(crate) fn spawn(
        name: String,
        basket: Arc<Basket>,
        reader: ReaderId,
        mut sink: impl Sink + 'static,
        release: impl FnOnce() + Send + 'static,
    ) -> Result<Emitter> {
        let stop = Arc::new(AtomicBool::new(false));
        let exited = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_exited = Arc::clone(&exited);
        let thread_name = name.clone();
        sink.bind_cancel(Arc::clone(&stop));
        let handle = std::thread::Builder::new()
            .name(format!("emitter-{name}"))
            .spawn(move || {
                if let Err(e) = sink.open() {
                    report(&thread_name, &e);
                    thread_stop.store(true, Ordering::Relaxed);
                }
                let signal = basket.signal();
                let mut seen = signal.version();
                while !thread_stop.load(Ordering::Relaxed) {
                    let (chunk, start, end) = basket.claim_for_reader(reader, usize::MAX);
                    if chunk.is_empty() {
                        seen = signal.wait_past(seen, Duration::from_millis(5));
                        continue;
                    }
                    let delivered = match sink.deliver(&chunk) {
                        Ok(()) => chunk.len(),
                        // The sink is gone (subscriber hung up) or broken.
                        // Rewind the undelivered part of the claim so it
                        // stays in place — original order and timestamps
                        // intact — for a competing consumer on the same
                        // reader.
                        Err(PartialDelivery { delivered, error }) => {
                            report(&thread_name, &error);
                            thread_stop.store(true, Ordering::Relaxed);
                            delivered
                        }
                    };
                    settle(&basket, reader, start, delivered as u64, end);
                }
                release();
                thread_exited.store(true, Ordering::Release);
            })
            .map_err(|e| DataCellError::Runtime(format!("spawn emitter: {e}")))?;
        Ok(Emitter {
            stop,
            exited,
            handle: Some(handle),
        })
    }

    /// A handle that stops this emitter from another thread.
    pub fn control(&self) -> EmitterControl {
        EmitterControl {
            stop: Arc::clone(&self.stop),
            exited: Arc::clone(&self.exited),
        }
    }

    /// True once the emitter thread has exited.
    pub fn is_finished(&self) -> bool {
        self.exited.load(Ordering::Acquire)
    }

    /// Stop the thread and wait for it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Settle a claim `[start, end)` of which the first `done` rows were
/// delivered: commit those, give the rest back to the reader.
pub(crate) fn settle(basket: &Basket, reader: ReaderId, start: u64, done: u64, end: u64) {
    let mid = start + done.min(end - start);
    if mid >= end {
        basket.commit_claim(reader, start, end);
    } else {
        // Drops the whole in-flight range and steps the cursor back to
        // `mid`: `[start, mid)` stays consumed.
        basket.rewind_claim(reader, mid, end);
    }
}

/// A sink that is gone (its subscriber hung up) is a clean shutdown, not a
/// fault worth logging.
fn report(emitter: &str, e: &DataCellError) {
    if !matches!(e, DataCellError::Disconnected) {
        eprintln!("emitter {emitter}: {e}");
    }
}

impl Drop for Emitter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Subscription, SubscriptionMode};
    use crate::DataCell;
    use datacell_bat::types::Value;
    use parking_lot::Mutex;

    /// Collects delivered rows (without the trailing `ts` column) in
    /// memory, accounting them in the subscription's meter.
    #[derive(Clone, Default)]
    struct CollectSink {
        rows: Arc<Mutex<Vec<Vec<Value>>>>,
        meter: DeliveryMeter,
    }

    impl CollectSink {
        fn new() -> Self {
            Self::default()
        }

        fn ints(&self) -> Vec<i64> {
            self.rows
                .lock()
                .iter()
                .map(|r| r[0].as_int().unwrap())
                .collect()
        }

        fn len(&self) -> usize {
            self.rows.lock().len()
        }
    }

    impl Sink for CollectSink {
        fn deliver(&mut self, chunk: &Chunk) -> std::result::Result<(), PartialDelivery> {
            let width = chunk.schema.len().saturating_sub(1);
            let mut rows = self.rows.lock();
            for i in 0..chunk.len() {
                let mut row = chunk.row(i).map_err(DataCellError::from)?;
                row.truncate(width);
                rows.push(row);
            }
            self.meter.record(chunk, chunk.len());
            Ok(())
        }

        fn bind_meter(&mut self, meter: DeliveryMeter) {
            self.meter = meter;
        }
    }

    /// A sink whose subscriber has already hung up.
    struct GoneSink;

    impl Sink for GoneSink {
        fn deliver(&mut self, _: &Chunk) -> std::result::Result<(), PartialDelivery> {
            Err(DataCellError::Disconnected.into())
        }
    }

    fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(deadline_ms) {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cond()
    }

    /// A session with one pass-through query `q` over basket `b`.
    fn pool_cell() -> DataCell {
        let cell = DataCell::new();
        cell.execute("create basket b (x int)").unwrap();
        cell.continuous_query("q", "select s.x from [select * from b] as s")
            .unwrap();
        cell
    }

    /// Append `values` to `q`'s output basket one row at a time, as a
    /// factory firing per tuple would: the sink tests exercise delivery,
    /// not the query.
    fn emit(out: &Basket, values: std::ops::Range<i64>) {
        for i in values {
            out.append_rows(&[vec![Value::Int(i)]]).unwrap();
        }
    }

    fn sink_on(
        cell: &DataCell,
        mode: SubscriptionMode,
        sink: impl Sink + 'static,
    ) -> EmitterControl {
        cell.subscribe_sink("q", mode, sink).unwrap()
    }

    #[test]
    fn collect_sink_receives_all_tuples() {
        let cell = pool_cell();
        let out = cell.query_output("q").unwrap();
        let sink = CollectSink::new();
        let e = sink_on(&cell, SubscriptionMode::Broadcast, sink.clone());
        emit(&out, 0..50);
        assert!(
            wait_until(2000, || sink.len() == 50 && out.is_empty()),
            "got {}",
            sink.len()
        );
        e.stop();
        assert_eq!(sink.ints(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn latency_sink_records_per_tuple() {
        // A sink subscription's deliveries land in its query's latency
        // histogram, one observation per tuple.
        let cell = pool_cell();
        let out = cell.query_output("q").unwrap();
        let _e = sink_on(&cell, SubscriptionMode::Broadcast, CollectSink::new());
        emit(&out, 0..2);
        let recorded = || {
            let m = cell.metrics();
            let (_, h) = m.per_query_latency.into_iter().find(|(q, _)| q == "q")?;
            Some(h.count)
        };
        assert!(wait_until(2000, || recorded() == Some(2)));
    }

    #[test]
    fn broadcast_emitters_each_deliver_everything() {
        let cell = pool_cell();
        let out = cell.query_output("q").unwrap();
        let s1 = CollectSink::new();
        let s2 = CollectSink::new();
        let e1 = sink_on(&cell, SubscriptionMode::Broadcast, s1.clone());
        let e2 = sink_on(&cell, SubscriptionMode::Broadcast, s2.clone());
        emit(&out, 0..20);
        assert!(wait_until(2000, || s1.len() == 20 && s2.len() == 20));
        assert!(
            wait_until(2000, || out.is_empty()),
            "trimmed once both readers passed"
        );
        e1.stop();
        e2.stop();
        assert_eq!(s1.ints(), (0..20).collect::<Vec<_>>());
        assert_eq!(s2.ints(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn shared_emitters_compete_without_duplicates() {
        let cell = pool_cell();
        let out = cell.query_output("q").unwrap();
        let s1 = CollectSink::new();
        let s2 = CollectSink::new();
        let e1 = sink_on(&cell, SubscriptionMode::Shared, s1.clone());
        let e2 = sink_on(&cell, SubscriptionMode::Shared, s2.clone());
        emit(&out, 0..200);
        assert!(wait_until(3000, || s1.len() + s2.len() == 200));
        e1.stop();
        e2.stop();
        let mut values = s1.ints();
        values.extend(s2.ints());
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 200, "each tuple claimed exactly once");
    }

    #[test]
    fn disconnect_rewinds_claim_for_surviving_consumer() {
        // One shared consumer's sink is already gone: its claims must be
        // rewound (not re-inserted) so the surviving consumer re-claims
        // them in place.
        let cell = pool_cell();
        let out = cell.query_output("q").unwrap();
        let dead = sink_on(&cell, SubscriptionMode::Shared, GoneSink);
        let sink = CollectSink::new();
        let live = sink_on(&cell, SubscriptionMode::Shared, sink.clone());
        emit(&out, 0..50);
        // A rewind behind a claim the live consumer already committed
        // re-opens that claim too (the documented at-least-once corner), so
        // wait for every value, not for exactly 50 rows.
        let distinct = || {
            let mut values = sink.ints();
            values.sort_unstable();
            values.dedup();
            values.len()
        };
        assert!(
            wait_until(3000, || distinct() == 50 && out.is_empty()),
            "got {}",
            distinct()
        );
        dead.stop();
        live.stop();
    }

    #[test]
    fn claims_are_atomic_no_duplicates() {
        let cell = pool_cell();
        let out = cell.query_output("q").unwrap();
        let sink = CollectSink::new();
        let e = sink_on(&cell, SubscriptionMode::Broadcast, sink.clone());
        // Hammer appends from two threads while the emitter drains.
        std::thread::scope(|scope| {
            for w in 0..2 {
                let out = &out;
                scope.spawn(move || emit(out, w * 1000..w * 1000 + 500));
            }
        });
        assert!(
            wait_until(3000, || sink.len() == 1000),
            "got {}",
            sink.len()
        );
        e.stop();
        let mut values = sink.ints();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 1000, "no duplicates, no losses");
    }

    // ------- in-process subscriptions: the subscriber plays the emitter

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

    #[test]
    fn acked_shared_pool_fails_over_exactly_once() {
        // A pool member takes k rows of its claim and is dropped: its
        // settlement commits exactly those k and rewinds the rest, so the
        // survivor gets every other row once — for every k.
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
}
