//! [`NetServer`]: the TCP listener tying receptors and emitters to a
//! [`DataCell`] session.
//!
//! One blocking accept loop, one thread per connection. Each connection is
//! greeted with `OK datacell 1`, sends a handshake line
//! ([`crate::protocol::Handshake`]), and becomes either a [`NetReceptor`]
//! (`STREAM`) or the read side of a [`NetSink`] (`SUBSCRIBE`). The server
//! registers itself as the session's [`NetMetricsSource`], so
//! [`DataCell::metrics`] reports accepted/active connections and
//! per-connection tuple counters alongside the engine's own accounts.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use datacell::error::{DataCellError, Result};
use datacell::metrics::{
    NetConnectionKind, NetConnectionMetrics, NetMetricsSnapshot, NetMetricsSource,
};
use datacell::{CellResult, DataCell, EventKind, SubscriptionMode};
use datacell_sql::ColumnDef;
use parking_lot::Mutex;

use crate::emitter::NetSink;
use crate::protocol::{self, Handshake};
use crate::receptor::{timed_out, LineReader, NetReceptor, ReadStep};

/// Rows a network ingest connection buffers before a bulk append — the
/// batch-processing advantage of the paper's ingest path, applied to the
/// socket.
const INGEST_BATCH: usize = 512;

/// How long blocking reads wait before re-checking the stop flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Traffic counters of one connection, shared between the connection
/// thread and the server's registry.
pub(crate) struct ConnStats {
    pub(crate) id: u64,
    pub(crate) peer: String,
    /// What the connection is doing and for which basket/query; set once
    /// after the handshake.
    pub(crate) desc: Mutex<(NetConnectionKind, String)>,
    pub(crate) tuples: AtomicU64,
    pub(crate) rejected: AtomicU64,
}

impl ConnStats {
    pub(crate) fn new(id: u64, peer: String) -> Self {
        ConnStats {
            id,
            peer,
            desc: Mutex::new((NetConnectionKind::Handshaking, String::new())),
            tuples: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> NetConnectionMetrics {
        let (kind, target) = self.desc.lock().clone();
        NetConnectionMetrics {
            id: self.id,
            peer: self.peer.clone(),
            kind,
            target,
            tuples: self.tuples.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

/// One registry entry: counters plus the handles the server needs to shut
/// the connection down (socket clone to unblock I/O, thread to join).
struct Conn {
    stats: Arc<ConnStats>,
    stream: TcpStream,
    done: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Shared server state: the session, the stop flag, and the connection
/// registry with its monotone retired totals.
struct ServerState {
    cell: Arc<DataCell>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accepted: AtomicU64,
    conns: Mutex<Vec<Conn>>,
    /// Totals folded out of closed connections so the aggregate counters
    /// stay monotone as the registry is reaped.
    retired_in: AtomicU64,
    retired_out: AtomicU64,
    retired_rejected: AtomicU64,
}

impl ServerState {
    /// Fold finished connections into the retired totals and drop them
    /// from the registry.
    fn reap(&self) {
        let mut conns = self.conns.lock();
        let mut keep = Vec::with_capacity(conns.len());
        for mut c in conns.drain(..) {
            if c.done.load(Ordering::Acquire) {
                self.retire(&c.stats);
                if let Some(h) = c.handle.take() {
                    let _ = h.join();
                }
            } else {
                keep.push(c);
            }
        }
        *conns = keep;
    }

    fn retire(&self, stats: &ConnStats) {
        let tuples = stats.tuples.load(Ordering::Relaxed);
        match stats.desc.lock().0 {
            NetConnectionKind::Ingest => {
                self.retired_in.fetch_add(tuples, Ordering::Relaxed);
            }
            NetConnectionKind::Subscribe => {
                self.retired_out.fetch_add(tuples, Ordering::Relaxed);
            }
            NetConnectionKind::Handshaking => {}
        }
        self.retired_rejected
            .fetch_add(stats.rejected.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl NetMetricsSource for ServerState {
    fn net_metrics(&self) -> NetMetricsSnapshot {
        self.reap();
        let conns = self.conns.lock();
        let mut snap = NetMetricsSnapshot {
            local_addr: self.local_addr.to_string(),
            connections_accepted: self.accepted.load(Ordering::Relaxed),
            connections_active: conns.len() as u64,
            tuples_in: self.retired_in.load(Ordering::Relaxed),
            tuples_out: self.retired_out.load(Ordering::Relaxed),
            lines_rejected: self.retired_rejected.load(Ordering::Relaxed),
            per_connection: Vec::with_capacity(conns.len()),
        };
        for c in conns.iter() {
            let m = c.stats.snapshot();
            match m.kind {
                NetConnectionKind::Ingest => snap.tuples_in += m.tuples,
                NetConnectionKind::Subscribe => snap.tuples_out += m.tuples,
                NetConnectionKind::Handshaking => {}
            }
            snap.lines_rejected += m.rejected;
            snap.per_connection.push(m);
        }
        snap
    }
}

/// The TCP front door (see module docs). Stops — joining the accept loop
/// and every connection thread — on [`NetServer::stop`] or drop.
pub struct NetServer {
    state: Arc<ServerState>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
}

impl NetServer {
    /// Bind the address configured through
    /// [`DataCellBuilder::listen`](datacell::DataCellBuilder::listen);
    /// `Ok(None)` when the session has no listen address.
    pub fn start(cell: &Arc<DataCell>) -> Result<Option<NetServer>> {
        match cell.listen_addr().map(str::to_string) {
            Some(addr) => Self::bind(Arc::clone(cell), &addr).map(Some),
            None => Ok(None),
        }
    }

    /// Bind an explicit address (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) and start accepting wire-protocol connections for `cell`.
    pub fn bind(cell: Arc<DataCell>, addr: &str) -> Result<NetServer> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| DataCellError::Runtime(format!("net: bind {addr}: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| DataCellError::Runtime(format!("net: local_addr: {e}")))?;
        let state = Arc::new(ServerState {
            cell,
            local_addr,
            stop: Arc::new(AtomicBool::new(false)),
            accepted: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            retired_in: AtomicU64::new(0),
            retired_out: AtomicU64::new(0),
            retired_rejected: AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&state);
        state
            .cell
            .register_net_metrics(weak as std::sync::Weak<dyn NetMetricsSource>);
        let accept_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name(format!("datacell-net-{local_addr}"))
            .spawn(move || accept_loop(accept_state, listener))
            .map_err(|e| DataCellError::Runtime(format!("net: spawn accept loop: {e}")))?;
        Ok(NetServer {
            state,
            accept_handle: Mutex::new(Some(handle)),
        })
    }

    /// The bound address (resolves port `0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Current transport counters (the same snapshot
    /// [`DataCell::metrics`] embeds as
    /// [`MetricsSnapshot::net`](datacell::metrics::MetricsSnapshot)).
    pub fn metrics(&self) -> NetMetricsSnapshot {
        self.state.net_metrics()
    }

    /// Stop accepting, shut every connection's socket, and join all
    /// threads. In-flight ingest buffers are flushed best-effort on the
    /// way out: rows that cannot land because their basket is full and
    /// stays full (the pipeline is stalled or stopping too) are dropped
    /// rather than holding the shutdown hostage.
    pub fn stop(self) {
        self.stop_impl();
    }

    fn stop_impl(&self) {
        self.state.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_handle.lock().take() {
            // The accept loop blocks in `accept`: wake it with a connection
            // of our own. Should even that fail, leave the thread detached
            // rather than hang in `join` — it exits on the next connection.
            let wake = wake_addr(self.state.local_addr);
            if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
                let _ = h.join();
            }
        }
        let conns: Vec<Conn> = self.state.conns.lock().drain(..).collect();
        for c in &conns {
            // Unblocks reads parked in a poll slice and writes parked on a
            // slow client's full socket buffer.
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        for mut c in conns {
            if let Some(h) = c.handle.take() {
                let _ = h.join();
            }
            self.state.retire(&c.stats);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

/// The address [`NetServer::stop`] connects to: the bound one, with a
/// wildcard IP replaced by loopback.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

/// Accept until stopped; each connection gets its own thread. `accept`
/// blocks, so a connection is taken up the moment it arrives;
/// [`NetServer::stop`] wakes the loop with a connection of its own.
fn accept_loop(state: Arc<ServerState>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, peer)) => spawn_conn(&state, stream, peer),
            // E.g. out of file descriptors: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn spawn_conn(state: &Arc<ServerState>, stream: TcpStream, peer: SocketAddr) {
    let id = state.accepted.fetch_add(1, Ordering::Relaxed) + 1;
    let stats = Arc::new(ConnStats::new(id, peer.to_string()));
    let done = Arc::new(AtomicBool::new(false));
    let Ok(registry_stream) = stream.try_clone() else {
        return;
    };
    state
        .cell
        .record_event(EventKind::ConnOpen, format!("conn {id} from {peer}"));
    let thread_state = Arc::clone(state);
    let thread_stats = Arc::clone(&stats);
    let thread_done = Arc::clone(&done);
    let thread_shutdown = registry_stream.try_clone().ok();
    let handle = std::thread::Builder::new()
        .name(format!("datacell-net-conn-{id}"))
        .spawn(move || {
            handle_connection(&thread_state, stream, Arc::clone(&thread_stats));
            let m = thread_stats.snapshot();
            thread_state.cell.record_event(
                EventKind::ConnClose,
                format!(
                    "conn {id} from {} ({:?} {}, {} tuples)",
                    m.peer, m.kind, m.target, m.tuples
                ),
            );
            // Dropping the thread's own handles does not close the socket
            // while the registry still holds its clone; shut it down
            // explicitly so the peer sees the close as soon as the
            // conversation ends, not when the entry is reaped.
            if let Some(s) = thread_shutdown {
                let _ = s.shutdown(Shutdown::Both);
            }
            thread_done.store(true, Ordering::Release);
        });
    match handle {
        Ok(handle) => state.conns.lock().push(Conn {
            stats,
            stream: registry_stream,
            done,
            handle: Some(handle),
        }),
        Err(_) => {
            let _ = registry_stream.shutdown(Shutdown::Both);
        }
    }
}

/// Greet, read the handshake (PINGs, HELLOs and EXECs may repeat), then
/// hand the socket to a receptor or emitter until it closes.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream, stats: Arc<ConnStats>) {
    let _ = stream.set_nodelay(true);
    // Bounded read timeouts keep the thread stop-responsive.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut replies = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    if writeln!(replies, "{}", protocol::GREETING).is_err() {
        return;
    }
    let mut lines = LineReader::new(stream);
    // With no configured token every connection starts authenticated;
    // with one, only PING/QUIT/HELLO are allowed until HELLO succeeds.
    let mut authed = state.cell.auth_token().is_none();
    loop {
        if state.stop.load(Ordering::Relaxed) {
            return;
        }
        let (line, at_eof) = match lines.next_line() {
            ReadStep::Line(l) => (String::from_utf8_lossy(l).trim().to_string(), false),
            ReadStep::Eof(l) => (String::from_utf8_lossy(l).trim().to_string(), true),
            ReadStep::Again => continue,
            ReadStep::TooLong => {
                let _ = writeln!(
                    replies,
                    "{}",
                    protocol::err_line("proto", "line exceeds the 1 MiB frame limit")
                );
                return;
            }
            ReadStep::Broken => return,
        };
        if line.is_empty() {
            if at_eof {
                return;
            }
            continue; // blank line between handshakes: ignore
        }
        match protocol::parse_handshake(&line) {
            Ok(Handshake::Ping) => {
                if writeln!(replies, "OK PONG").is_err() || at_eof {
                    return;
                }
            }
            Ok(Handshake::Quit) => {
                let _ = writeln!(replies, "OK BYE");
                return;
            }
            Ok(Handshake::Hello { token }) => {
                match state.cell.auth_token() {
                    Some(expected) if expected != token => {
                        let _ = writeln!(replies, "{}", protocol::err_line("auth", "bad token"));
                        return;
                    }
                    _ => authed = true,
                }
                if writeln!(replies, "OK HELLO").is_err() || at_eof {
                    return;
                }
            }
            Ok(Handshake::Stream { .. })
            | Ok(Handshake::Subscribe { .. })
            | Ok(Handshake::Exec { .. })
                if !authed =>
            {
                let _ = writeln!(
                    replies,
                    "{}",
                    protocol::err_line("auth", "authentication required: HELLO <token>")
                );
                return;
            }
            Ok(Handshake::Stream { basket }) => {
                serve_stream(state, lines, replies, stats, &basket);
                return;
            }
            Ok(Handshake::Subscribe { query, mode }) => {
                serve_subscribe(state, lines, replies, stats, &query, mode);
                return;
            }
            Ok(Handshake::Exec { sql }) => {
                if exec_reply(&mut replies, state.cell.execute(&sql)).is_err() || at_eof {
                    return;
                }
            }
            Err(msg) => {
                let _ = writeln!(replies, "{}", protocol::err_line("proto", &msg));
                return;
            }
        }
    }
}

/// Set up a [`NetReceptor`] for `STREAM <basket>` and pump it.
fn serve_stream(
    state: &Arc<ServerState>,
    lines: LineReader,
    mut replies: TcpStream,
    stats: Arc<ConnStats>,
    basket: &str,
) {
    // The receptor flushes its writer itself, a batch at a time.
    let writer = match state.cell.writer_with(basket, usize::MAX) {
        Ok(w) => w,
        Err(e) => {
            let _ = writeln!(
                replies,
                "{}",
                protocol::err_line("unknown-basket", &e.to_string())
            );
            return;
        }
    };
    let schema = render_cols(&writer.schema().columns);
    if writeln!(replies, "OK STREAM {basket} {schema}").is_err() {
        return;
    }
    *stats.desc.lock() = (NetConnectionKind::Ingest, basket.to_string());
    // A `Block`/`Reject` basket takes a batch larger than its capacity
    // only once empty, which would stall ingest until every reader has
    // drained it; smaller batches keep the socket flowing meanwhile.
    let batch = state
        .cell
        .basket(basket)
        .ok()
        .and_then(|b| b.append_room())
        .map_or(INGEST_BATCH, |room| room.capacity.min(INGEST_BATCH));
    let stop = Arc::clone(&state.stop);
    NetReceptor::new(lines, replies, writer, batch, stats, stop).run();
}

/// Attach a [`NetSink`] for `SUBSCRIBE <query>` to the query's output,
/// then watch the read side until the subscriber goes: the engine-side
/// emitter does all the writing. Client input is ignored per protocol;
/// EOF means the client hung up, so its emitter is stopped at once — an
/// idle subscriber's reader is released without waiting for a delivery
/// to fail.
fn serve_subscribe(
    state: &Arc<ServerState>,
    lines: LineReader,
    mut replies: TcpStream,
    stats: Arc<ConnStats>,
    query: &str,
    mode: SubscriptionMode,
) {
    let unknown = |replies: &mut TcpStream, e: &DataCellError| {
        let _ = writeln!(
            replies,
            "{}",
            protocol::err_line("unknown-query", &e.to_string())
        );
    };
    let out = match state.cell.query_output(query) {
        Ok(out) => out,
        Err(e) => return unknown(&mut replies, &e),
    };
    let width = out.user_width();
    let greeting = format!(
        "OK SUBSCRIBE {query} {}\n",
        render_cols(&out.schema().columns[..width])
    );
    let Ok(sink) = replies
        .try_clone()
        .and_then(|s| NetSink::new(s, width, mode, greeting, Arc::clone(&stats)))
    else {
        return;
    };
    let control = match state.cell.subscribe_sink(query, mode, sink) {
        Ok(control) => control,
        Err(e) => return unknown(&mut replies, &e),
    };
    *stats.desc.lock() = (NetConnectionKind::Subscribe, query.to_string());
    let mut reader = lines.into_inner();
    let mut scratch = [0u8; 512];
    while !state.stop.load(Ordering::Relaxed) && !control.is_finished() {
        match reader.read(&mut scratch) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if timed_out(&e) => {}
            Err(_) => break,
        }
    }
    control.stop();
}

/// Render an `EXEC` outcome onto the socket. The first line tells the
/// client what follows:
///
/// ```text
/// OK EXEC ack <message>                      ← DDL acknowledged, no body
/// OK EXEC affected <n>                       ← INSERT/DELETE, no body
/// OK EXEC rows <n> <col:type,...>            ← n tuple lines follow
/// OK EXEC plan <n>                           ← n plan-text lines follow
/// ERR sql <message>                          ← statement failed
/// ```
fn exec_reply(replies: &mut TcpStream, result: Result<CellResult>) -> std::io::Result<()> {
    match result {
        Ok(CellResult::Ack(msg)) => {
            writeln!(replies, "{}", one_frame(&format!("OK EXEC ack {msg}")))
        }
        Ok(CellResult::Affected(n)) => writeln!(replies, "OK EXEC affected {n}"),
        Ok(CellResult::Plan(text)) => {
            let lines: Vec<&str> = text.lines().collect();
            writeln!(replies, "OK EXEC plan {}", lines.len())?;
            for l in lines {
                writeln!(replies, "{l}")?;
            }
            Ok(())
        }
        Ok(CellResult::Rows(chunk)) => {
            let schema = render_cols(&chunk.schema.columns);
            let mut out = format!("OK EXEC rows {} {schema}\n", chunk.len()).into_bytes();
            datacell::text::render_chunk_into(&chunk, chunk.schema.len(), &mut out);
            replies.write_all(&out)
        }
        Err(e) => writeln!(replies, "{}", protocol::err_line("sql", &e.to_string())),
    }
}

/// Flatten newlines so a reply stays one frame.
fn one_frame(s: &str) -> String {
    s.chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect()
}

/// Render columns as the compact `col:type,col:type` reply argument (no
/// spaces, so clients can split the reply on whitespace).
fn render_cols(cols: &[ColumnDef]) -> String {
    cols.iter()
        .map(|c| format!("{}:{}", c.name, c.ty))
        .collect::<Vec<_>>()
        .join(",")
}
