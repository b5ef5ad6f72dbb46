//! Emitters: threads at the output periphery (§2.1).
//!
//! "An emitter is a separate thread that picks up events prepared by the
//! DataCell kernel and delivers them to interested clients, i.e., those
//! that have subscribed to a query result." An emitter is a registered
//! *reader* on its basket: it atomically claims the unread range, hands the
//! batch to a [`Sink`], and acknowledges the claim on success — so no tuple
//! is delivered twice by one reader and none is lost. On a failed delivery
//! the claim is *rewound* (the cursor steps back) instead of the chunk
//! being re-inserted, which keeps the stream in order for other readers.
//!
//! Two fan-out shapes fall out of the reader model:
//!
//! * **broadcast** ([`Emitter::spawn`]) — the emitter registers its own
//!   reader, so several emitters on one basket each see *every* tuple;
//! * **competing consumers** ([`Emitter::spawn_shared`]) — several emitters
//!   share one [`ReaderId`]; each claimed range goes to exactly one of
//!   them.
//!
//! The row sink feeds typed [`Subscription`](crate::client::Subscription)s;
//! the network transport plugs its own socket sink in through
//! [`DataCell::subscribe_sink`](crate::DataCell::subscribe_sink); the
//! latency sink powers the evaluation harness.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{SendTimeoutError, Sender};
use datacell_bat::types::Value;
use datacell_engine::Chunk;

use crate::basket::{Basket, ReaderId};
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
    /// (a bounded subscription channel with a slow client) aborts cleanly
    /// — returning [`DataCellError::Disconnected`] so the emitter rewinds
    /// the claim — when the emitter is asked to stop. Default: ignored
    /// (non-blocking sinks need no cancellation).
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
        if let Some(ts) = ts_column(chunk) {
            self.latency(&ts[..rows], now_micros());
        }
    }
}

/// The arrival stamps of a delivered chunk: its trailing `ts` column.
fn ts_column(chunk: &Chunk) -> Option<&[i64]> {
    chunk.columns.last()?.as_timestamps().ok()
}

/// Per-subscription delivery ledger closing the shared-pool loss window.
///
/// A [`RowSink`]'s `deliver` returns `Ok` once rows are *pushed into the
/// subscription channel* — not once the subscriber drained them. A shared
/// emitter that commits its claim on push therefore loses whatever a dying
/// subscriber left sitting undrained in its channel: the pool cursor has
/// moved on, the channel buffer is gone.
///
/// The ledger splits the two events: the sink counts rows **pushed**, the
/// [`Subscription`](crate::client::Subscription) counts rows **acked**
/// (drained by the client). An acked emitter defers `commit_claim` until a
/// range's rows are fully acked; when its subscriber dies, the undrained
/// suffix of every claimed range is rewound to the pool and a surviving
/// member redelivers it — exactly-once failover instead of silent loss.
/// (If acks race with the settlement, a drained row may be redelivered:
/// the guarantee degrades to at-least-once only when the subscriber is
/// still draining at settlement time, never to loss.)
///
/// The subscription also marks the ledger *closed* when it is dropped, so
/// an emitter that already pushed its whole claim — and has nothing left
/// to push that could fail — still learns its subscriber is gone and
/// settles at once instead of holding the range from the pool until it is
/// stopped.
#[derive(Debug, Default)]
pub struct AckLedger {
    pushed: AtomicU64,
    acked: AtomicU64,
    closed: AtomicBool,
}

impl AckLedger {
    /// Fresh ledger, shared between one sink and one subscription.
    pub fn new() -> Arc<AckLedger> {
        Arc::new(AckLedger::default())
    }

    /// Record one row pushed into the channel (sink side).
    fn record_push(&self) {
        self.pushed.fetch_add(1, Ordering::Release);
    }

    /// Record one row drained out of the channel (subscriber side).
    pub fn ack(&self) {
        self.acked.fetch_add(1, Ordering::Release);
    }

    /// Total rows pushed into the channel so far.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Acquire)
    }

    /// Total rows the subscriber has drained so far.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    /// Record that the subscriber is gone: no further acks will arrive.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// True once the subscriber has closed (see [`AckLedger::close`]).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

/// Delivers each tuple as a `Vec<Value>` row into a channel — the transport
/// behind [`Subscription`](crate::client::Subscription). The trailing `ts`
/// column is stripped before delivery, after feeding the latency accounts
/// of the bound [`DeliveryMeter`].
///
/// On a **bounded** channel
/// ([`DataCellBuilder::subscription_channel_capacity`](crate::client::DataCellBuilder::subscription_channel_capacity))
/// a full queue makes the delivery wait for the client — the emitter holds
/// its claim, the output basket fills, and the slowness backpressures the
/// whole pipeline instead of growing an unbounded queue. The wait aborts
/// (claim rewound, nothing lost) when the emitter is stopped.
pub struct RowSink {
    tx: Sender<Vec<Value>>,
    cancel: Option<Arc<AtomicBool>>,
    ledger: Option<Arc<AckLedger>>,
    meter: DeliveryMeter,
}

impl RowSink {
    /// Deliver rows into `tx`.
    pub fn new(tx: Sender<Vec<Value>>) -> Self {
        RowSink {
            tx,
            cancel: None,
            ledger: None,
            meter: DeliveryMeter::default(),
        }
    }

    /// Count every pushed row into `ledger` (see [`AckLedger`]); pair with
    /// [`Emitter::spawn_shared_acked`] and a ledgered subscription for
    /// exactly-once shared failover.
    pub fn with_ledger(mut self, ledger: Arc<AckLedger>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Push one row, waiting out a full bounded channel until the client
    /// drains it, the subscription hangs up, or the emitter is stopped.
    /// The wait parks on the channel's condvar (woken by client pops),
    /// re-checking the cancel flag on a bounded interval.
    fn push(&self, mut row: Vec<Value>) -> Result<()> {
        loop {
            match self.tx.send_timeout(row, Duration::from_millis(1)) {
                Ok(()) => {
                    if let Some(l) = &self.ledger {
                        l.record_push();
                    }
                    return Ok(());
                }
                Err(SendTimeoutError::Disconnected(_)) => return Err(DataCellError::Disconnected),
                Err(SendTimeoutError::Timeout(v)) => {
                    if self
                        .cancel
                        .as_ref()
                        .is_some_and(|c| c.load(Ordering::Relaxed))
                    {
                        // Emitter shutting down: abandon the delivery so the
                        // claim rewinds (at-least-once, nothing lost).
                        return Err(DataCellError::Disconnected);
                    }
                    row = v;
                }
            }
        }
    }

    /// Push rows of `chunk` in order; returns how many were pushed and
    /// whether the whole chunk went.
    fn push_all(&self, chunk: &Chunk) -> (usize, Result<()>) {
        let width = chunk.schema.len().saturating_sub(1);
        for i in 0..chunk.len() {
            let pushed = chunk
                .row(i)
                .map_err(DataCellError::from)
                .and_then(|mut row| {
                    row.truncate(width);
                    self.push(row)
                });
            if let Err(e) = pushed {
                return (i, Err(e));
            }
            // Count only rows that actually reached the subscriber.
            self.meter.delivered(1);
        }
        (chunk.len(), Ok(()))
    }
}

impl Sink for RowSink {
    fn deliver(&mut self, chunk: &Chunk) -> std::result::Result<(), PartialDelivery> {
        let now = now_micros();
        let (pushed, result) = self.push_all(chunk);
        if let Some(ts) = ts_column(chunk) {
            self.meter.latency(&ts[..pushed], now);
        }
        result.map_err(|error| PartialDelivery {
            delivered: pushed,
            error,
        })
    }

    fn bind_cancel(&mut self, cancel: Arc<AtomicBool>) {
        self.cancel = Some(cancel);
    }

    fn bind_meter(&mut self, meter: DeliveryMeter) {
        self.meter = meter;
    }
}

/// Records per-tuple end-to-end latency: delivery time minus the tuple's
/// `ts` column (arrival stamp, carried through factories whose queries
/// project it).
#[derive(Clone)]
pub struct LatencySink {
    histogram: Arc<LatencyHistogram>,
}

impl LatencySink {
    /// Record into `histogram`.
    pub fn new(histogram: Arc<LatencyHistogram>) -> Self {
        LatencySink { histogram }
    }
}

impl Sink for LatencySink {
    fn deliver(&mut self, chunk: &Chunk) -> std::result::Result<(), PartialDelivery> {
        let ts = chunk.columns[chunk.schema.len() - 1]
            .as_timestamps()
            .map_err(DataCellError::from)?;
        self.histogram.record_many(ts, now_micros());
        Ok(())
    }
}

/// Fan a batch out to several sinks.
pub struct TeeSink {
    sinks: Vec<Box<dyn Sink>>,
}

impl TeeSink {
    /// Combine sinks.
    pub fn new(sinks: Vec<Box<dyn Sink>>) -> Self {
        TeeSink { sinks }
    }
}

impl Sink for TeeSink {
    fn deliver(&mut self, chunk: &Chunk) -> std::result::Result<(), PartialDelivery> {
        for s in &mut self.sinks {
            s.deliver(chunk)?;
        }
        Ok(())
    }

    fn open(&mut self) -> Result<()> {
        self.sinks.iter_mut().try_for_each(|s| s.open())
    }

    fn bind_cancel(&mut self, cancel: Arc<AtomicBool>) {
        for s in &mut self.sinks {
            s.bind_cancel(Arc::clone(&cancel));
        }
    }

    fn bind_meter(&mut self, meter: DeliveryMeter) {
        for s in &mut self.sinks {
            s.bind_meter(meter.clone());
        }
    }
}

/// Monotone emitter counters.
#[derive(Debug, Default)]
pub struct EmitterStats {
    /// Tuples delivered.
    pub tuples: AtomicU64,
    /// Drain cycles that delivered at least one tuple.
    pub batches: AtomicU64,
}

/// A running emitter thread.
pub struct Emitter {
    name: String,
    stop: Arc<AtomicBool>,
    exited: Arc<AtomicBool>,
    stats: Arc<EmitterStats>,
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
    /// Spawn a broadcast emitter: it registers its own reader on `basket`
    /// (seeing every resident and future tuple) and delivers into `sink`
    /// whenever the basket signals new content. The reader is deregistered
    /// when the emitter exits, releasing its hold on the trim watermark.
    pub fn spawn(
        name: impl Into<String>,
        basket: Arc<Basket>,
        sink: impl Sink + 'static,
    ) -> Result<Emitter> {
        Self::spawn_inner(name.into(), basket, None, sink, None, None)
    }

    /// Spawn a competing-consumer emitter on an externally registered
    /// `reader` shared with other emitters: each claimed range is delivered
    /// by exactly one of them. The caller owns the reader's lifetime (it is
    /// *not* deregistered when this emitter exits).
    ///
    /// Commits each claim as soon as the sink accepts it. For channel
    /// sinks that means *pushed, not drained* — a subscriber dying with
    /// rows still queued loses them from the pool. Use
    /// [`Emitter::spawn_shared_acked`] for drain-acknowledged commits.
    pub fn spawn_shared(
        name: impl Into<String>,
        basket: Arc<Basket>,
        reader: ReaderId,
        sink: impl Sink + 'static,
    ) -> Result<Emitter> {
        Self::spawn_inner(name.into(), basket, Some(reader), sink, None, None)
    }

    /// [`Emitter::spawn_shared`] with per-range acknowledgement tracking:
    /// a claimed range is committed only once the subscriber has drained
    /// its rows (per `ledger`, which must also be wired into the sink via
    /// [`RowSink::with_ledger`] and the consuming subscription). When the
    /// subscriber dies, every undrained row is rewound to the pool for a
    /// surviving member — exactly-once failover (see [`AckLedger`]).
    pub fn spawn_shared_acked(
        name: impl Into<String>,
        basket: Arc<Basket>,
        reader: ReaderId,
        sink: impl Sink + 'static,
        ledger: Arc<AckLedger>,
    ) -> Result<Emitter> {
        Self::spawn_inner(name.into(), basket, Some(reader), sink, Some(ledger), None)
    }

    /// [`Emitter::spawn_shared_acked`] with an exit hook, run after the
    /// emitter thread finishes — the session uses it to refcount a query's
    /// shared reader and deregister it when the last shared subscriber is
    /// gone.
    pub(crate) fn spawn_shared_with_release(
        name: impl Into<String>,
        basket: Arc<Basket>,
        reader: ReaderId,
        sink: impl Sink + 'static,
        ledger: Option<Arc<AckLedger>>,
        release: impl FnOnce() + Send + 'static,
    ) -> Result<Emitter> {
        Self::spawn_inner(
            name.into(),
            basket,
            Some(reader),
            sink,
            ledger,
            Some(Box::new(release)),
        )
    }

    fn spawn_inner(
        name: String,
        basket: Arc<Basket>,
        shared_reader: Option<ReaderId>,
        mut sink: impl Sink + 'static,
        ledger: Option<Arc<AckLedger>>,
        on_exit: Option<Box<dyn FnOnce() + Send>>,
    ) -> Result<Emitter> {
        let stop = Arc::new(AtomicBool::new(false));
        let exited = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(EmitterStats::default());
        let thread_stop = Arc::clone(&stop);
        let thread_exited = Arc::clone(&exited);
        let thread_stats = Arc::clone(&stats);
        let thread_name = name.clone();
        sink.bind_cancel(Arc::clone(&stop));
        let owns_reader = shared_reader.is_none();
        let reader = shared_reader.unwrap_or_else(|| basket.register_reader(true));
        // Acked commits only matter on a shared reader: a broadcast
        // emitter's reader dies with it, so there is no pool to hand
        // undrained rows back to.
        let acked_mode = ledger.is_some() && !owns_reader;
        let handle = std::thread::Builder::new()
            .name(format!("emitter-{name}"))
            .spawn(move || {
                if let Err(e) = sink.open() {
                    report(&thread_name, &e);
                    thread_stop.store(true, Ordering::Relaxed);
                }
                let signal = basket.signal();
                let mut seen = signal.version();
                // Delivered-but-uncommitted claims, oldest first:
                // `(start, end, pushed_before, pushed_after)` with the
                // cumulative ledger push counts bracketing the range.
                let mut outstanding: VecDeque<(u64, u64, u64, u64)> = VecDeque::new();
                while !thread_stop.load(Ordering::Relaxed) {
                    if acked_mode {
                        let ledger = ledger.as_ref().expect("acked_mode");
                        // Read `closed` before `acked`: a subscriber acks
                        // before it closes, so a closed ledger's ack count
                        // is final.
                        let closed = ledger.is_closed();
                        let acked = ledger.acked();
                        // Commit the prefix of ranges the subscriber has
                        // fully drained; the pool cursor advances exactly
                        // as far as consumption is proven.
                        while outstanding
                            .front()
                            .is_some_and(|&(_, _, _, p1)| p1 <= acked)
                        {
                            let (s, e, _, _) = outstanding.pop_front().expect("front");
                            basket.commit_claim(reader, s, e);
                        }
                        // The subscriber is gone. A claim pushed in full
                        // never meets a failing push, so settle now: the
                        // undrained rows go back to the pool for a
                        // surviving member instead of waiting for stop.
                        if closed {
                            break;
                        }
                    }
                    let (chunk, start, end) = basket.claim_for_reader(reader, usize::MAX);
                    if chunk.is_empty() {
                        seen = signal.wait_past(seen, Duration::from_millis(5));
                        continue;
                    }
                    let p0 = ledger.as_ref().map_or(0, |l| l.pushed());
                    match sink.deliver(&chunk) {
                        Ok(()) => {
                            if acked_mode {
                                let p1 = ledger.as_ref().expect("acked_mode").pushed();
                                outstanding.push_back((start, end, p0, p1));
                            } else {
                                basket.commit_claim(reader, start, end);
                            }
                            thread_stats
                                .tuples
                                .fetch_add(chunk.len() as u64, Ordering::Relaxed);
                            thread_stats.batches.fetch_add(1, Ordering::Relaxed);
                        }
                        // The sink is gone (subscriber hung up) or broken.
                        // Rewind the undelivered part of the claim so it
                        // stays in place — original order and timestamps
                        // intact — for a competing emitter on the same
                        // reader.
                        Err(PartialDelivery { delivered, error }) => {
                            report(&thread_name, &error);
                            if acked_mode {
                                // The failing delivery may have pushed a
                                // prefix of the chunk; settle it below by
                                // acks like every other range.
                                let p1 = ledger.as_ref().expect("acked_mode").pushed();
                                outstanding.push_back((start, end, p0, p1));
                            } else {
                                settle(&basket, reader, start, delivered as u64, end);
                                thread_stats
                                    .tuples
                                    .fetch_add(delivered as u64, Ordering::Relaxed);
                            }
                            break;
                        }
                    }
                }
                if acked_mode {
                    // Exit settlement — on failure *and* on clean stop:
                    // only proven-drained rows commit; everything else goes
                    // back to the pool. (Committing pushed-but-undrained
                    // rows on a clean stop would lose them whenever the
                    // subscriber is already gone; returning them can at
                    // worst duplicate towards a subscriber that is still
                    // draining concurrently — never lose.)
                    let acked = ledger.as_ref().expect("acked_mode").acked();
                    for (s, e, p0, p1) in outstanding.drain(..) {
                        // The range's rows reached the channel as the push
                        // window `(p0, p1]` — a failed delivery pushes only
                        // a prefix (possibly none), so `acked >= p1` alone
                        // would wrongly cover rows that never left the
                        // basket. Commit exactly the proven-drained prefix.
                        settle(&basket, reader, s, acked.saturating_sub(p0).min(p1 - p0), e);
                    }
                }
                if owns_reader {
                    basket.unregister_reader(reader);
                }
                if let Some(release) = on_exit {
                    release();
                }
                thread_exited.store(true, Ordering::Release);
            })
            .map_err(|e| DataCellError::Runtime(format!("spawn emitter: {e}")))?;
        Ok(Emitter {
            name,
            stop,
            exited,
            stats,
            handle: Some(handle),
        })
    }

    /// Emitter name.
    pub fn name(&self) -> &str {
        &self.name
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

    /// Tuples delivered so far.
    pub fn tuples_delivered(&self) -> u64 {
        self.stats.tuples.load(Ordering::Relaxed)
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
fn settle(basket: &Basket, reader: ReaderId, start: u64, done: u64, end: u64) {
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
    use crossbeam::channel::unbounded;
    use datacell_bat::types::DataType;
    use datacell_sql::Schema;
    use parking_lot::Mutex;

    fn basket() -> Arc<Basket> {
        Arc::new(Basket::new("out", Schema::new(vec![("x".into(), DataType::Int)])).unwrap())
    }

    /// Collects delivered rows (without the trailing `ts` column) in memory.
    #[derive(Clone, Default)]
    struct CollectSink {
        rows: Arc<Mutex<Vec<Vec<Value>>>>,
    }

    impl CollectSink {
        fn new() -> Self {
            Self::default()
        }

        fn rows(&self) -> Vec<Vec<Value>> {
            self.rows.lock().clone()
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
            Ok(())
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

    #[test]
    fn collect_sink_receives_all_tuples() {
        let b = basket();
        let sink = CollectSink::new();
        let e = Emitter::spawn("e", Arc::clone(&b), sink.clone()).unwrap();
        for i in 0..50 {
            b.append_rows(&[vec![Value::Int(i)]]).unwrap();
        }
        assert!(wait_until(2000, || sink.len() == 50), "got {}", sink.len());
        assert!(b.is_empty());
        assert_eq!(e.tuples_delivered(), 50);
        e.stop();
        let rows = sink.rows();
        assert_eq!(rows[0], vec![Value::Int(0)]);
        assert_eq!(rows[49], vec![Value::Int(49)]);
    }

    #[test]
    fn latency_sink_records_per_tuple() {
        let b = basket();
        let hist = Arc::new(LatencyHistogram::new());
        let e = Emitter::spawn("e", Arc::clone(&b), LatencySink::new(Arc::clone(&hist))).unwrap();
        b.append_rows(&[vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        assert!(wait_until(2000, || hist.count() == 2));
        e.stop();
        assert!(hist.mean_micros() >= 0.0);
    }

    #[test]
    fn broadcast_emitters_each_deliver_everything() {
        let b = basket();
        let s1 = CollectSink::new();
        let s2 = CollectSink::new();
        let e1 = Emitter::spawn("e1", Arc::clone(&b), s1.clone()).unwrap();
        let e2 = Emitter::spawn("e2", Arc::clone(&b), s2.clone()).unwrap();
        for i in 0..20 {
            b.append_rows(&[vec![Value::Int(i)]]).unwrap();
        }
        assert!(wait_until(2000, || s1.len() == 20 && s2.len() == 20));
        assert!(
            wait_until(2000, || b.is_empty()),
            "trimmed once both readers passed"
        );
        e1.stop();
        e2.stop();
        let values = |s: &CollectSink| -> Vec<i64> {
            s.rows().iter().map(|r| r[0].as_int().unwrap()).collect()
        };
        assert_eq!(values(&s1), (0..20).collect::<Vec<_>>());
        assert_eq!(values(&s2), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn shared_emitters_compete_without_duplicates() {
        let b = basket();
        let reader = b.register_reader(true);
        let s1 = CollectSink::new();
        let s2 = CollectSink::new();
        let e1 = Emitter::spawn_shared("e1", Arc::clone(&b), reader, s1.clone()).unwrap();
        let e2 = Emitter::spawn_shared("e2", Arc::clone(&b), reader, s2.clone()).unwrap();
        for i in 0..200 {
            b.append_rows(&[vec![Value::Int(i)]]).unwrap();
        }
        assert!(wait_until(3000, || s1.len() + s2.len() == 200));
        e1.stop();
        e2.stop();
        let mut values: Vec<i64> = s1
            .rows()
            .iter()
            .chain(s2.rows().iter())
            .map(|r| r[0].as_int().unwrap())
            .collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 200, "each tuple claimed exactly once");
    }

    #[test]
    fn disconnect_rewinds_claim_for_surviving_consumer() {
        // One shared consumer's sink is already gone: its claims must be
        // rewound (not re-inserted) so the surviving consumer re-claims
        // them in place.
        let b = basket();
        let reader = b.register_reader(true);
        let (tx, rx) = unbounded::<Vec<Value>>();
        drop(rx); // dead subscriber
        let dead = Emitter::spawn_shared("dead", Arc::clone(&b), reader, RowSink::new(tx)).unwrap();
        let sink = CollectSink::new();
        let live = Emitter::spawn_shared("live", Arc::clone(&b), reader, sink.clone()).unwrap();
        for i in 0..50 {
            b.append_rows(&[vec![Value::Int(i)]]).unwrap();
        }
        // A rewind behind a claim the live consumer already committed
        // re-opens that claim too (the documented at-least-once corner), so
        // wait for every value, not for exactly 50 rows.
        let distinct = || {
            let mut values: Vec<i64> = sink.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
            values.sort_unstable();
            values.dedup();
            values.len()
        };
        assert!(wait_until(3000, || distinct() == 50), "got {}", distinct());
        dead.stop();
        live.stop();
        assert_eq!(distinct(), 50, "rewound claims were re-delivered");
        assert!(b.is_empty());
    }

    #[test]
    fn unacked_shared_pool_loses_undrained_rows_on_subscriber_death() {
        // The pre-fix path, pinned as a negative: `spawn_shared` (no
        // ledger) commits a claim once rows are *pushed* into the channel.
        // A subscriber that dies with rows still queued takes them to the
        // grave — the pool cursor has already passed them.
        let b = basket();
        let reader = b.register_reader(true);
        let (tx, rx) = crossbeam::channel::bounded::<Vec<Value>>(4);
        let dying =
            Emitter::spawn_shared("dying", Arc::clone(&b), reader, RowSink::new(tx)).unwrap();
        for i in 0..4 {
            b.append_rows(&[vec![Value::Int(i)]]).unwrap();
        }
        // All four pushed into the channel and committed from the pool.
        assert!(wait_until(2000, || dying.tuples_delivered() == 4));
        // The subscriber drains two rows, then dies with two queued.
        assert_eq!(rx.recv().unwrap(), vec![Value::Int(0)]);
        assert_eq!(rx.recv().unwrap(), vec![Value::Int(1)]);
        drop(rx);
        dying.stop();
        // A surviving pool member picks up the stream.
        let sink = CollectSink::new();
        let live = Emitter::spawn_shared("live", Arc::clone(&b), reader, sink.clone()).unwrap();
        for i in 4..6 {
            b.append_rows(&[vec![Value::Int(i)]]).unwrap();
        }
        assert!(wait_until(2000, || sink.len() == 2), "got {}", sink.len());
        live.stop();
        let survivor: Vec<i64> = sink.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        // Rows 2 and 3 are gone: committed from the pool, never drained.
        assert_eq!(survivor, vec![4, 5], "old path silently loses rows 2..4");
        b.unregister_reader(reader);
    }

    #[test]
    fn acked_shared_pool_fails_over_exactly_once() {
        // The fix: with per-range ack tracking the pool cursor only passes
        // rows the subscriber drained. Kill the subscriber mid-drain and
        // every undrained row is redelivered by the survivor exactly once.
        let b = basket();
        let reader = b.register_reader(true);
        let ledger = AckLedger::new();
        let (tx, rx) = crossbeam::channel::bounded::<Vec<Value>>(4);
        let sink = RowSink::new(tx).with_ledger(Arc::clone(&ledger));
        let dying =
            Emitter::spawn_shared_acked("dying", Arc::clone(&b), reader, sink, Arc::clone(&ledger))
                .unwrap();
        for i in 0..4 {
            b.append_rows(&[vec![Value::Int(i)]]).unwrap();
        }
        // All four pushed — but the claim stays uncommitted (no acks yet).
        assert!(wait_until(2000, || ledger.pushed() == 4));
        assert_eq!(dying.tuples_delivered(), 4);
        // The subscriber drains (and acks) two rows, then dies mid-drain
        // with two rows still queued.
        assert_eq!(rx.recv().unwrap(), vec![Value::Int(0)]);
        ledger.ack();
        assert_eq!(rx.recv().unwrap(), vec![Value::Int(1)]);
        ledger.ack();
        drop(rx);
        // Exit settlement: [0,2) drained → committed; [2,4) undrained →
        // rewound to the pool.
        dying.stop();
        let sink = CollectSink::new();
        let live = Emitter::spawn_shared("live", Arc::clone(&b), reader, sink.clone()).unwrap();
        for i in 4..6 {
            b.append_rows(&[vec![Value::Int(i)]]).unwrap();
        }
        assert!(wait_until(2000, || sink.len() == 4), "got {}", sink.len());
        live.stop();
        let survivor: Vec<i64> = sink.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        // Zero loss, zero duplicates: the survivor redelivers exactly the
        // rows the dead subscriber left behind, in order.
        assert_eq!(survivor, vec![2, 3, 4, 5]);
        b.unregister_reader(reader);
        assert!(wait_until(2000, || b.is_empty()));
    }

    #[test]
    fn acked_shared_pool_settles_when_idle_subscriber_drops() {
        // The dying emitter pushed its whole claim and has nothing left to
        // push, so no failing send reveals the hang-up. Dropping the
        // subscription alone — the emitter keeps running — must hand the
        // undrained rows back to the pool.
        let b = basket();
        let reader = b.register_reader(true);
        let ledger = AckLedger::new();
        let (tx, rx) = unbounded::<Vec<Value>>();
        let sink = RowSink::new(tx).with_ledger(Arc::clone(&ledger));
        let dying =
            Emitter::spawn_shared_acked("dying", Arc::clone(&b), reader, sink, Arc::clone(&ledger))
                .unwrap();
        for i in 0..4 {
            b.append_rows(&[vec![Value::Int(i)]]).unwrap();
        }
        assert!(wait_until(2000, || ledger.pushed() == 4));
        let sub = crate::client::Subscription::<Vec<Value>>::new_acked(
            "q".into(),
            rx,
            Arc::clone(&ledger),
        );
        assert_eq!(sub.try_next().unwrap(), Some(vec![Value::Int(0)]));
        drop(sub);
        let sink = CollectSink::new();
        let live = Emitter::spawn_shared("live", Arc::clone(&b), reader, sink.clone()).unwrap();
        assert!(wait_until(2000, || sink.len() == 3), "got {}", sink.len());
        let survivor: Vec<i64> = sink.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(
            survivor,
            vec![1, 2, 3],
            "drained row committed, the rest redelivered"
        );
        live.stop();
        dying.stop();
        b.unregister_reader(reader);
        assert!(wait_until(2000, || b.is_empty()));
    }

    #[test]
    fn acked_shared_pool_commits_as_subscriber_drains() {
        // Steady-state: acks arriving while the emitter runs let it commit
        // ranges incrementally — the basket drains without any emitter
        // exiting.
        let b = basket();
        let reader = b.register_reader(true);
        let ledger = AckLedger::new();
        let (tx, rx) = unbounded::<Vec<Value>>();
        let sink = RowSink::new(tx).with_ledger(Arc::clone(&ledger));
        let e = Emitter::spawn_shared_acked("e", Arc::clone(&b), reader, sink, Arc::clone(&ledger))
            .unwrap();
        for i in 0..30 {
            b.append_rows(&[vec![Value::Int(i)]]).unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 30 {
            let row = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            ledger.ack();
            got.push(row[0].as_int().unwrap());
        }
        assert_eq!(got, (0..30).collect::<Vec<_>>());
        // Fully acked: the running emitter commits and the basket trims.
        assert!(wait_until(2000, || b.is_empty()), "resident: {}", b.len());
        e.stop();
        b.unregister_reader(reader);
    }

    #[test]
    fn claims_are_atomic_no_duplicates() {
        let b = basket();
        let sink = CollectSink::new();
        let e = Emitter::spawn("e", Arc::clone(&b), sink.clone()).unwrap();
        // Hammer appends from two threads while the emitter drains.
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        b.append_rows(&[vec![Value::Int(w * 1000 + i)]]).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert!(
            wait_until(3000, || sink.len() == 1000),
            "got {}",
            sink.len()
        );
        e.stop();
        let mut values: Vec<i64> = sink
            .rows()
            .into_iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 1000, "no duplicates, no losses");
    }
}
