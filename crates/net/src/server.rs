//! [`NetServer`]: the TCP listener tying receptors and emitters to a
//! [`DataCell`] session.
//!
//! One blocking accept loop, one thread per connection. Each connection is
//! greeted with `OK datacell 1`, sends a handshake line
//! ([`crate::protocol::Handshake`]), and becomes either a [`NetReceptor`]
//! (`STREAM`) or an emitter (`SUBSCRIBE`): a
//! [`Subscription`](datacell::Subscription) whose chunks the connection
//! thread writes to its socket.
//!
//! **Backpressure.** A subscriber that stops reading fills its kernel
//! socket buffer; the write blocks and its thread parks holding its
//! basket claim, so the slow client stalls exactly its own reader while
//! the query's output basket fills and the factory defers or sheds under
//! its [`OverflowPolicy`](datacell::OverflowPolicy). The write waits in
//! slices of a few milliseconds, giving up when the server stops or the
//! query's output closes (`DROP CONTINUOUS QUERY`, [`DataCell::stop`]).
//!
//! **Disconnects.** Between claims, and on each idle wake-up, the thread
//! probes the read side; a hang-up, or a failed write, ends the
//! connection and its subscription, whose reader deregisters — no tuple
//! is lost. The server
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
use datacell::text::ChunkRenderer;
use datacell::{CellResult, DataCell, EventKind, SubscriptionMode, Value};
use datacell_sql::ColumnDef;
use parking_lot::Mutex;

use crate::protocol::{self, Handshake};
use crate::receptor::{timed_out, LineReader, NetReceptor, ReadStep};

/// How long blocking reads wait before re-checking the stop flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long a subscriber's thread waits — for results, or for room in a
/// full socket — before re-checking that the subscriber is still wanted.
const WAIT_POLL: Duration = Duration::from_millis(10);

/// Most bytes rendered ahead of one socket write (a single longer row is
/// written whole).
const PIECE_BYTES: usize = 64 << 10;

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
    /// Basket appends an ingest connection made.
    pub(crate) appends: AtomicU64,
}

impl ConnStats {
    pub(crate) fn new(id: u64, peer: String) -> Self {
        ConnStats {
            id,
            peer,
            desc: Mutex::new((NetConnectionKind::Handshaking, String::new())),
            tuples: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            appends: AtomicU64::new(0),
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
            appends: self.appends.load(Ordering::Relaxed),
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
    retired_appends: AtomicU64,
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
                self.retired_appends
                    .fetch_add(stats.appends.load(Ordering::Relaxed), Ordering::Relaxed);
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
            ingest_appends: self.retired_appends.load(Ordering::Relaxed),
            per_connection: Vec::with_capacity(conns.len()),
        };
        for c in conns.iter() {
            let m = c.stats.snapshot();
            match m.kind {
                NetConnectionKind::Ingest => {
                    snap.tuples_in += m.tuples;
                    snap.ingest_appends += m.appends;
                }
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
    acceptor: AcceptLoop,
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
            retired_appends: AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&state);
        state
            .cell
            .register_net_metrics(weak as std::sync::Weak<dyn NetMetricsSource>);
        let accept_state = Arc::clone(&state);
        let acceptor = AcceptLoop::spawn(
            format!("datacell-net-{local_addr}"),
            listener,
            Arc::clone(&state.stop),
            move |stream, peer| spawn_conn(&accept_state, stream, peer),
        )
        .map_err(|e| DataCellError::Runtime(format!("net: spawn accept loop: {e}")))?;
        Ok(NetServer { state, acceptor })
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
        // Sets the stop flag the connection threads read too.
        self.acceptor.stop();
        let conns: Vec<Conn> = self.state.conns.lock().drain(..).collect();
        for c in &conns {
            // Unblocks reads parked in a poll slice and writes parked on a
            // slow client's full socket buffer.
            let _ = c.stream.shutdown(Shutdown::Both);
            // A subscriber waiting for results waits on its query's output
            // basket, not on the socket: wake it too.
            let (kind, target) = c.stats.desc.lock().clone();
            if kind == NetConnectionKind::Subscribe {
                if let Ok(out) = self.state.cell.query_output(&target) {
                    out.signal().notify();
                }
            }
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

/// The one accept loop both front doors run: a thread blocked in
/// `accept`, so a connection is taken up the moment it arrives and an
/// idle listener never wakes. Stopping sets a flag and wakes the loop
/// with a connection of its own.
pub(crate) struct AcceptLoop {
    stop: Arc<AtomicBool>,
    local_addr: SocketAddr,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl AcceptLoop {
    /// Start thread `name`, handing each connection `listener` accepts to
    /// `serve` until `stop` is set.
    pub(crate) fn spawn(
        name: String,
        listener: TcpListener,
        stop: Arc<AtomicBool>,
        mut serve: impl FnMut(TcpStream, SocketAddr) + Send + 'static,
    ) -> std::io::Result<AcceptLoop> {
        let local_addr = listener.local_addr()?;
        let stopped = Arc::clone(&stop);
        let handle = std::thread::Builder::new().name(name).spawn(move || loop {
            let accepted = listener.accept();
            if stopped.load(Ordering::Acquire) {
                return;
            }
            match accepted {
                Ok((stream, peer)) => serve(stream, peer),
                // E.g. out of file descriptors: back off instead of spinning.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        })?;
        Ok(AcceptLoop {
            stop,
            local_addr,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// Set the stop flag, wake the loop and join it. Should even the wake
    /// connection fail, the thread is left detached rather than hanging
    /// `join`: it exits on the next connection. Idempotent.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.lock().take() {
            let wake = wake_addr(self.local_addr);
            if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
                let _ = h.join();
            }
        }
    }
}

/// The address the wake connection goes to: the bound one, with a
/// wildcard IP replaced by loopback.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
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
                serve_subscribe(state, replies, stats, &query, mode);
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
    // The receptor flushes its writer itself, a socket read at a time.
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
    let stop = Arc::clone(&state.stop);
    NetReceptor::new(lines, replies, writer, stats, stop).run();
}

/// Serve `SUBSCRIBE <query>`: this connection's thread is the query's
/// emitter (see the module docs). It subscribes — registering its reader
/// before the `OK SUBSCRIBE` reply, so the client sees every tuple after
/// it — and then, until the client hangs up, the server stops or the
/// query's output closes, claims each chunk the output basket signals,
/// renders it from its column slices ([`ChunkRenderer`]) in pieces of at
/// most [`PIECE_BYTES`] into one reused buffer, and writes them. Client
/// input is ignored per protocol: the read-side probe discards it.
///
/// Each claim commits the rows written (under `MODE shared`, written
/// *and* followed by a probe showing the peer still there: a write into
/// a half-closed socket succeeds at the OS level) and gives the rest back
/// to its reader — so a shared member's failure returns at most the
/// failing piece to the pool, and a broadcast member's reader goes with
/// its subscription. `tuples` counts the rows written.
fn serve_subscribe(
    state: &Arc<ServerState>,
    mut replies: TcpStream,
    stats: Arc<ConnStats>,
    query: &str,
    mode: SubscriptionMode,
) {
    let subscribed = state.cell.query_output(query).and_then(|out| {
        let sub = state.cell.subscribe_with::<Vec<Value>>(query, mode)?;
        Ok((out, sub))
    });
    let (out, sub) = match subscribed {
        Ok(s) => s,
        Err(e) => {
            let _ = writeln!(
                replies,
                "{}",
                protocol::err_line("unknown-query", &e.to_string())
            );
            return;
        }
    };
    let width = out.user_width();
    // One write, so the reply leaves in one segment.
    let reply = format!(
        "OK SUBSCRIBE {query} {}\n",
        render_cols(&out.schema().columns[..width])
    );
    if replies.write_all(reply.as_bytes()).is_err()
        || replies.set_write_timeout(Some(WAIT_POLL)).is_err()
    {
        return;
    }
    *stats.desc.lock() = (NetConnectionKind::Subscribe, query.to_string());
    let shared = mode == SubscriptionMode::Shared;
    let wanted = || !state.stop.load(Ordering::Relaxed) && !sub.is_closed();
    let mut buf = Vec::new();
    while wanted() && peer_alive(&replies) {
        let mut claim = match sub.claim_chunk(WAIT_POLL) {
            Ok(Some(claim)) => claim,
            Ok(None) => continue,
            Err(_) => return,
        };
        let rows = ChunkRenderer::new(claim.chunk(), width);
        let mut done = 0;
        while done < rows.len() {
            buf.clear();
            let next = rows.render_until(done, PIECE_BYTES, &mut buf);
            if !write_all(&replies, &buf, wanted) || (shared && !peer_alive(&replies)) {
                break;
            }
            done = next;
        }
        stats.tuples.fetch_add(done as u64, Ordering::Relaxed);
        claim.delivered(done);
        if done < claim.chunk().len() {
            return; // dropping the claim gives the rest back
        }
    }
}

/// Write all of `buf`, waiting out a full socket in [`WAIT_POLL`] slices
/// while the subscriber is still `wanted`; `false` once the write fails
/// or is given up.
fn write_all(mut socket: &TcpStream, buf: &[u8], wanted: impl Fn() -> bool) -> bool {
    let mut at = 0;
    while at < buf.len() {
        match socket.write(&buf[at..]) {
            Ok(0) => return false,
            Ok(n) => at += n,
            Err(e) if timed_out(&e) && wanted() => {}
            Err(_) => return false,
        }
    }
    true
}

/// One non-blocking read of the read side: discards what the client sent
/// (at most one read's worth, so a client that keeps sending cannot hold
/// the thread here) and returns `false` once it has hung up. The socket
/// is non-blocking for the probe only, so writes keep their timeout.
fn peer_alive(mut socket: &TcpStream) -> bool {
    if socket.set_nonblocking(true).is_err() {
        return false;
    }
    let alive = match socket.read(&mut [0u8; 4096]) {
        Ok(n) => n > 0,
        Err(e) => timed_out(&e),
    };
    socket.set_nonblocking(false).is_ok() && alive
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
