//! [`NetSink`]: one `SUBSCRIBE` connection's delivery, on the engine side.
//!
//! The network-facing twin of an in-process
//! [`Subscription`](datacell::Subscription): a [`Sink`] that the
//! subscription's engine-side emitter thread drives directly
//! ([`DataCell::subscribe_sink`](datacell::DataCell::subscribe_sink)).
//! Each claimed chunk is rendered from its column slices
//! ([`ChunkRenderer`]) into one reused buffer, in pieces of at most
//! 64 KiB, and written to the socket — no channel in between, no
//! row or string built per tuple.
//!
//! **Backpressure.** A slow client is the whole point of this design: its
//! kernel socket buffer fills, the write blocks, and the emitter parks
//! holding its basket claim — so the slow TCP client stalls exactly its
//! own emitter while the query's output basket fills and the factory
//! defers or sheds under its [`OverflowPolicy`](datacell::OverflowPolicy).
//! The write waits in slices of a few milliseconds, re-checking the
//! emitter's stop flag, so stopping the session never hangs on a client that
//! stopped reading.
//!
//! **Disconnects.** A failed write fails the delivery: the emitter rewinds
//! its claim and exits, deregistering its reader — no tuple is lost.
//! Under [`SubscriptionMode::Shared`] a piece counts as delivered — and
//! the pool cursor moves past its rows — only once it is written *and* a
//! read-side probe shows the peer has not closed: a write into a
//! half-closed socket succeeds at the OS level, and a dead member's rows
//! must rewind to the pool for a surviving member instead. A failure
//! reports the pieces delivered before it ([`PartialDelivery`]), so only
//! the failing piece goes back: a surviving member re-receives at most
//! one piece the dead one may already have read. A peer dying between the
//! probe and its own read stays invisible — the documented racing-failure
//! window of the shared mode.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use datacell::emitter::{DeliveryMeter, PartialDelivery, Sink};
use datacell::text::ChunkRenderer;
use datacell::{Chunk, DataCellError, Result, SubscriptionMode};

use crate::receptor::timed_out;
use crate::server::ConnStats;

/// Most bytes rendered ahead of one socket write (a single longer row is
/// written whole).
const PIECE_BYTES: usize = 64 << 10;

/// How long one blocked write waits before re-checking the stop flag.
const WRITE_POLL: Duration = Duration::from_millis(10);

/// The socket sink of one `SUBSCRIBE` connection (see module docs).
/// Created by the [`NetServer`](crate::NetServer) after a successful
/// `SUBSCRIBE` handshake.
pub struct NetSink {
    stream: TcpStream,
    /// User columns of the query output (its trailing `ts` is not sent).
    width: usize,
    shared: bool,
    /// The `OK SUBSCRIBE` reply, sent by [`Sink::open`] so no result row
    /// can overtake it.
    greeting: String,
    buf: Vec<u8>,
    stats: Arc<ConnStats>,
    cancel: Option<Arc<AtomicBool>>,
    meter: DeliveryMeter,
}

impl NetSink {
    pub(crate) fn new(
        stream: TcpStream,
        width: usize,
        mode: SubscriptionMode,
        greeting: String,
        stats: Arc<ConnStats>,
    ) -> std::io::Result<Self> {
        stream.set_write_timeout(Some(WRITE_POLL))?;
        Ok(NetSink {
            stream,
            width,
            shared: mode == SubscriptionMode::Shared,
            greeting,
            buf: Vec::new(),
            stats,
            cancel: None,
            meter: DeliveryMeter::default(),
        })
    }

    /// Write all of `buf`, waiting out a full socket in [`WRITE_POLL`]
    /// slices until the emitter is stopped. Any failure means the
    /// subscriber is gone.
    fn write_all(&self, buf: &[u8]) -> Result<()> {
        let mut at = 0;
        while at < buf.len() {
            match (&self.stream).write(&buf[at..]) {
                Ok(0) => return Err(DataCellError::Disconnected),
                Ok(n) => at += n,
                Err(e) if timed_out(&e) => {
                    if self
                        .cancel
                        .as_ref()
                        .is_some_and(|c| c.load(Ordering::Relaxed))
                    {
                        return Err(DataCellError::Disconnected);
                    }
                }
                Err(_) => return Err(DataCellError::Disconnected),
            }
        }
        Ok(())
    }
}

impl Sink for NetSink {
    fn open(&mut self) -> Result<()> {
        self.write_all(self.greeting.as_bytes())
    }

    fn deliver(&mut self, chunk: &Chunk) -> std::result::Result<(), PartialDelivery> {
        let rows = ChunkRenderer::new(chunk, self.width);
        let mut buf = std::mem::take(&mut self.buf);
        let mut done = 0;
        let mut written = Ok(());
        while done < rows.len() {
            buf.clear();
            let next = rows.render_until(done, PIECE_BYTES, &mut buf);
            written = self.write_all(&buf).and_then(|()| {
                if self.shared && !peer_alive(&self.stream) {
                    return Err(DataCellError::Disconnected);
                }
                Ok(())
            });
            if written.is_err() {
                break;
            }
            done = next;
        }
        self.buf = buf;
        self.stats.tuples.fetch_add(done as u64, Ordering::Relaxed);
        self.meter.record(chunk, done);
        written.map_err(|error| PartialDelivery {
            delivered: done,
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

/// One non-blocking peek at the read side: `false` once the peer has
/// closed (or reset) the connection. The socket is non-blocking for the
/// peek only — its read timeout is the connection thread's poll interval,
/// far too long to wait here; that thread treats the would-block it may
/// meet meanwhile as an ordinary timeout.
fn peer_alive(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let alive = match stream.peek(&mut [0u8; 1]) {
        Ok(n) => n > 0,
        Err(e) => timed_out(&e),
    };
    stream.set_nonblocking(false).is_ok() && alive
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::time::Instant;

    use datacell::{DataCell, Value};

    #[test]
    fn failed_later_piece_rewinds_only_that_piece() {
        // One shared claim far larger than the loopback socket buffers: the
        // member reads a few pieces, then hangs up with unread data (a
        // reset), so a later piece — not the first — fails.
        let cell = DataCell::new();
        cell.execute("create basket b (i int, pad varchar)")
            .unwrap();
        cell.execute("create continuous query q as select s.i, s.pad from [select * from b] as s")
            .unwrap();
        // Results land straight in the query's output basket: the test
        // exercises delivery, not the query.
        let pad = "x".repeat(1000);
        let total: i64 = 32_000;
        let rows: Vec<Vec<Value>> = (0..total)
            .map(|i| vec![Value::Int(i), Value::Str(pad.clone())])
            .collect();
        cell.query_output("q").unwrap().append_rows(&rows).unwrap();
        // The surviving pool member: it claims only when polled, so the
        // dying member's sink takes the whole backlog in one claim first.
        let survivor = cell
            .subscribe_with::<(i64, String)>("q", SubscriptionMode::Shared)
            .unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let stats = Arc::new(ConnStats::new(0, "test".into()));
        let sink = NetSink::new(
            server_side,
            2,
            SubscriptionMode::Shared,
            "OK SUBSCRIBE out\n".into(),
            Arc::clone(&stats),
        )
        .unwrap();
        let dying = cell
            .subscribe_sink("q", SubscriptionMode::Shared, sink)
            .unwrap();

        // Read at least four pieces' worth, then close with data unread.
        let mut got = Vec::new();
        let mut buf = vec![0u8; 16 << 10];
        while got.len() < 4 * PIECE_BYTES + 100 {
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0, "sink closed early");
            got.extend_from_slice(&buf[..n]);
        }
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !dying.is_finished() {
            assert!(
                Instant::now() < deadline,
                "the failed write was not noticed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        dying.stop();

        // Rows the member received (whole lines after the greeting).
        let lines = got.iter().filter(|&&b| b == b'\n').count() - 1;
        let read = lines as i64;
        // What the surviving member receives next: the rewound tail.
        let ids: Vec<i64> = survivor
            .drain()
            .unwrap()
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        let first = ids[0];
        assert_eq!(ids, (first..total).collect::<Vec<_>>());
        assert_eq!(stats.tuples.load(Ordering::Relaxed), first as u64);
        assert!(first > 0, "the pieces delivered before the failure commit");
        // Rows of one piece: a 1 KiB line each, 64 per 64 KiB.
        let per_piece = (PIECE_BYTES / (pad.len() + 8)) as i64 + 1;
        let twice = read.saturating_sub(first);
        assert!(
            twice <= per_piece,
            "{twice} rows re-delivered (read {read}, rewound from {first})"
        );
    }
}
