//! Network integration tier: the TCP wire protocol end-to-end over
//! loopback.
//!
//! Every test drives a real [`NetServer`] with real `std::net` sockets —
//! exactly what an external (non-Rust) client would speak:
//!
//! * multi-client ingest + broadcast/shared subscribe with exact tuple
//!   counts and order per client;
//! * slow-reader TCP backpressure: a subscriber that stops reading stalls
//!   its own connection thread while the engine's memory stays bounded (defer/
//!   overflow/shed counters visible in `DataCell::metrics()`);
//! * abrupt-disconnect rewind: a killed shared-pool subscriber loses no
//!   tuples — survivors re-claim its rewound ranges (duplicates only per
//!   the documented `SubscriptionMode::Shared` at-least-once corner);
//! * the parser as trust boundary: malformed lines get `ERR decode`
//!   replies and counters, never a dropped connection or a panic.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::metrics::NetConnectionKind;
use datacell::{DataCell, OverflowPolicy, SubscriptionMode, Value};
use datacell_net::NetServer;

/// A minimal blocking wire-protocol client (what `nc` would be).
struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    /// Partial line carried across read timeouts.
    buf: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        let mut c = Client {
            reader,
            stream,
            buf: String::new(),
        };
        assert_eq!(c.read_line().as_deref(), Some("OK datacell 1"), "greeting");
        c
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").expect("send");
    }

    /// Send tolerating a connection the server may tear down mid-write
    /// (frame-cap tests).
    fn send_best_effort(&mut self, line: &str) {
        let _ = writeln!(self.stream, "{line}");
    }

    /// One bounded read attempt; `None` on timeout (no complete line yet).
    fn try_read_line(&mut self) -> Option<String> {
        loop {
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        None
                    } else {
                        Some(std::mem::take(&mut self.buf))
                    }
                }
                Ok(_) if self.buf.ends_with('\n') => {
                    let line = std::mem::take(&mut self.buf);
                    return Some(line.trim_end().to_string());
                }
                Ok(_) => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    return None
                }
                Err(_) => return None,
            }
        }
    }

    /// Read one line, waiting up to 10 s.
    fn read_line(&mut self) -> Option<String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(l) = self.try_read_line() {
                return Some(l);
            }
        }
        None
    }

    /// True once the server has closed this connection (EOF on read).
    fn server_closed(&mut self) -> bool {
        use std::io::Read;
        let mut b = [0u8; 64];
        loop {
            match self.reader.get_mut().read(&mut b) {
                Ok(0) => return true,
                Ok(_) => continue, // drain leftovers
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    return false
                }
                Err(_) => return true,
            }
        }
    }

    /// Collect integer first-fields until `n` lines arrived or `within`
    /// elapsed.
    fn collect_ints(&mut self, n: usize, within: Duration) -> Vec<i64> {
        let deadline = Instant::now() + within;
        let mut out = Vec::with_capacity(n);
        while out.len() < n && Instant::now() < deadline {
            if let Some(l) = self.try_read_line() {
                let first = l.split(',').next().unwrap();
                out.push(first.trim().parse().expect("int line"));
            }
        }
        out
    }
}

fn serve(cell: DataCell) -> (Arc<DataCell>, NetServer, SocketAddr) {
    let cell = Arc::new(cell);
    let server = NetServer::start(&cell)
        .expect("bind")
        .expect("listen configured");
    let addr = server.local_addr();
    (cell, server, addr)
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn end_to_end_ingest_and_subscribe_exact_order() {
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .metrics(true)
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    cell.execute("create continuous query q as select s.x from [select * from b] as s")
        .unwrap();
    let (cell, server, addr) = serve(cell);

    let mut sub = Client::connect(addr);
    sub.send("SUBSCRIBE q");
    assert_eq!(sub.read_line().as_deref(), Some("OK SUBSCRIBE q x:int"));

    let mut ingest = Client::connect(addr);
    ingest.send("STREAM b");
    assert_eq!(ingest.read_line().as_deref(), Some("OK STREAM b x:int"));
    for i in 0..100 {
        ingest.send(&format!("{i}"));
    }
    ingest.send("SYNC");
    assert_eq!(ingest.read_line().as_deref(), Some("OK SYNC 100 0"));

    // Each connection is a transition of the session's Petri net: the
    // STREAM connection a receptor (its writer) into `b`, the SUBSCRIBE
    // connection an emitter draining `q`'s output.
    let net = cell.petri_net();
    assert!(
        net.outputs
            .iter()
            .any(|(t, p)| t.starts_with("writer-b") && p == "b"),
        "{:?}",
        net.outputs
    );
    assert!(
        net.inputs
            .iter()
            .any(|(p, t)| p == "q_out" && t.starts_with("sub-q")),
        "{:?}",
        net.inputs
    );

    let got = sub.collect_ints(100, Duration::from_secs(10));
    assert_eq!(
        got,
        (0..100).collect::<Vec<i64>>(),
        "exact tuples, in order"
    );

    // Per-connection counters are visible through the session facade.
    // `tuples_out` is counted only *after* the delivering flush succeeds,
    // so the client can observe all rows an instant before the server
    // thread ticks the counter — poll briefly instead of asserting the
    // instantaneous value.
    assert!(
        wait_until(Duration::from_secs(2), || cell
            .metrics()
            .net
            .is_some_and(|n| n.tuples_out >= 100)),
        "tuples_out reaches 100"
    );
    let m = cell.metrics();
    let net = m.net.expect("listener attached");
    assert_eq!(net.tuples_in, 100);
    assert!(net.tuples_out >= 100);
    assert_eq!(net.lines_rejected, 0);
    assert!(net.connections_accepted >= 2);
    let ingest_conn = net
        .per_connection
        .iter()
        .find(|c| c.kind == NetConnectionKind::Ingest)
        .expect("ingest connection listed");
    assert_eq!(ingest_conn.target, "b");
    assert_eq!(ingest_conn.tuples, 100);
    let sub_conn = net
        .per_connection
        .iter()
        .find(|c| c.kind == NetConnectionKind::Subscribe)
        .expect("subscribe connection listed");
    assert_eq!(sub_conn.target, "q");

    server.stop();
    cell.stop();
}

#[test]
fn multi_client_broadcast_and_shared_fanout() {
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    cell.execute("create continuous query q as select s.x from [select * from b] as s")
        .unwrap();
    let (cell, server, addr) = serve(cell);

    let mut bc1 = Client::connect(addr);
    bc1.send("SUBSCRIBE q");
    assert!(bc1.read_line().unwrap().starts_with("OK SUBSCRIBE q"));
    let mut bc2 = Client::connect(addr);
    bc2.send("SUBSCRIBE q MODE broadcast");
    assert!(bc2.read_line().unwrap().starts_with("OK SUBSCRIBE q"));
    let mut sh1 = Client::connect(addr);
    sh1.send("SUBSCRIBE q MODE shared");
    assert!(sh1.read_line().unwrap().starts_with("OK SUBSCRIBE q"));
    let mut sh2 = Client::connect(addr);
    sh2.send("SUBSCRIBE q MODE shared");
    assert!(sh2.read_line().unwrap().starts_with("OK SUBSCRIBE q"));

    let mut ingest = Client::connect(addr);
    ingest.send("STREAM b");
    assert!(ingest.read_line().unwrap().starts_with("OK STREAM b"));
    const N: i64 = 60;
    for i in 0..N {
        ingest.send(&format!("{i}"));
    }
    ingest.send("QUIT");
    assert_eq!(ingest.read_line().as_deref(), Some("OK BYE"));

    // Broadcast: every subscriber sees every tuple, in order.
    let want: Vec<i64> = (0..N).collect();
    assert_eq!(bc1.collect_ints(N as usize, Duration::from_secs(10)), want);
    assert_eq!(bc2.collect_ints(N as usize, Duration::from_secs(10)), want);

    // Shared: the pool partitions the stream — disjoint, nothing missing.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut got1, mut got2) = (Vec::new(), Vec::new());
    while got1.len() + got2.len() < N as usize && Instant::now() < deadline {
        got1.extend(sh1.collect_ints(N as usize, Duration::from_millis(50)));
        got2.extend(sh2.collect_ints(N as usize, Duration::from_millis(50)));
    }
    let mut union: Vec<i64> = got1.iter().chain(got2.iter()).copied().collect();
    union.sort_unstable();
    union.dedup();
    assert_eq!(union, want, "shared pool covers the stream exactly once");
    assert_eq!(got1.len() + got2.len(), N as usize, "no duplicates");

    server.stop();
    cell.stop();
}

#[test]
fn slow_tcp_subscriber_bounds_engine_and_disconnect_releases() {
    // Bounded output (Reject): a subscriber that stops reading fills its
    // socket and stalls its connection thread; the factory defers instead
    // of growing memory; the fast subscriber still gets everything — and
    // when the slow client dies abruptly, its reader deregisters and the
    // pipeline drains completely.
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .basket_capacity(64)
        .overflow_policy(OverflowPolicy::Reject)
        .metrics(true)
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int, pad varchar(256))")
        .unwrap();
    cell.execute("create continuous query q as select s.x, s.pad from [select * from b] as s")
        .unwrap();
    let (cell, server, addr) = serve(cell);

    // The slow subscriber completes the handshake, then never reads again.
    let mut slow = Client::connect(addr);
    slow.send("SUBSCRIBE q");
    assert!(slow.read_line().unwrap().starts_with("OK SUBSCRIBE q"));

    let mut fast = Client::connect(addr);
    fast.send("SUBSCRIBE q");
    assert!(fast.read_line().unwrap().starts_with("OK SUBSCRIBE q"));

    // Kernel socket buffers can absorb megabytes on loopback, so a fixed
    // load may never stall the slow subscriber. Keep offering batches of
    // wide rows until the stall shows as deferred factory steps and a
    // full basket; a batch offered once the pipeline is stalled completes
    // only after the slow client is gone.
    let stalled = |cell: &DataCell| {
        let m = cell.metrics();
        m.factory_deferrals > 0 && m.overflow_events > 0
    };
    const BATCH: usize = 2000;
    let ingest_cell = Arc::clone(&cell);
    let ingest = std::thread::spawn(move || {
        let pad = "p".repeat(120);
        let mut c = Client::connect(addr);
        c.send("STREAM b");
        assert!(c.read_line().unwrap().starts_with("OK STREAM b"));
        let mut total = 0;
        for _ in 0..200 {
            if stalled(&ingest_cell) {
                break;
            }
            for i in total..total + BATCH {
                c.send(&format!("{i}, {pad}"));
            }
            total += BATCH;
            c.send("SYNC");
            assert_eq!(
                c.read_line().as_deref(),
                Some(format!("OK SYNC {total} 0").as_str()),
                "every line accepted, none lost"
            );
        }
        total
    });

    // Drain the fast subscriber from a thread so its socket never stalls,
    // until it has every row the ingest sent (known once ingest ends).
    let sent = Arc::new(AtomicUsize::new(usize::MAX));
    let fast_sent = Arc::clone(&sent);
    let fast_handle = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut got = Vec::new();
        while got.len() < fast_sent.load(Ordering::Acquire) && Instant::now() < deadline {
            got.extend(fast.collect_ints(BATCH, Duration::from_millis(100)));
        }
        got
    });

    // The stall is certain; it must become observable, with the engine's
    // memory bounded.
    assert!(
        wait_until(Duration::from_secs(60), || stalled(&cell)),
        "slow subscriber stalls the pipeline into visible deferrals"
    );
    let out_len = cell.query_output("q").unwrap().len();
    assert!(
        out_len <= 1024,
        "engine memory stays bounded while stalled (output resident: {out_len})"
    );

    // Kill the slow client abruptly: its connection's write fails or its
    // probe sees the hang-up, the claim rewinds, the reader deregisters,
    // and the stream drains to the fast subscriber — every tuple, in
    // order.
    drop(slow);
    let total = ingest.join().unwrap();
    sent.store(total, Ordering::Release);
    let got = fast_handle.join().unwrap();
    assert_eq!(got, (0..total as i64).collect::<Vec<i64>>());

    server.stop();
    cell.stop();
}

#[test]
fn shed_policy_keeps_ingest_flowing_under_slow_subscriber() {
    // A network subscriber's connection thread writes to the socket, whose
    // buffer is the only queue between the engine and a remote peer.
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .basket_capacity(256)
        .overflow_policy(OverflowPolicy::ShedOldest)
        .metrics(true)
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int, pad varchar(256))")
        .unwrap();
    cell.execute("create continuous query q as select s.x, s.pad from [select * from b] as s")
        .unwrap();
    let (cell, server, addr) = serve(cell);

    let mut slow = Client::connect(addr);
    slow.send("SUBSCRIBE q");
    assert!(slow.read_line().unwrap().starts_with("OK SUBSCRIBE q"));

    const N: usize = 12000;
    let pad = "p".repeat(120);
    let mut ingest = Client::connect(addr);
    ingest.send("STREAM b");
    assert!(ingest.read_line().unwrap().starts_with("OK STREAM b"));
    for i in 0..N {
        ingest.send(&format!("{i}, {pad}"));
    }
    ingest.send("SYNC");
    // ShedOldest never stalls ingest: the SYNC lands promptly even though
    // the subscriber reads nothing.
    assert_eq!(
        ingest.read_line().as_deref(),
        Some(format!("OK SYNC {N} 0").as_str())
    );

    // Kernel socket buffers can absorb megabytes on loopback, so a fixed
    // offered load is sometimes swallowed end-to-end without a single
    // shed. Keep offering batches until the finite buffering (baskets +
    // socket buffers) is full and the engine visibly
    // sheds — ShedOldest keeps acking `SYNC` promptly throughout, which
    // is the property under test.
    let mut total = N;
    for _ in 0..40 {
        if cell.metrics().tuples_shed > 0 {
            break;
        }
        for i in 0..4000 {
            ingest.send(&format!("{}, {pad}", total + i));
        }
        total += 4000;
        ingest.send("SYNC");
        assert_eq!(
            ingest.read_line().as_deref(),
            Some(format!("OK SYNC {total} 0").as_str()),
            "ingest never stalls under ShedOldest"
        );
    }
    assert!(
        cell.metrics().tuples_shed > 0,
        "load shedding is visible in the session metrics"
    );
    assert!(cell.basket("b").unwrap().len() <= 256, "input bounded");
    assert!(
        cell.query_output("q").unwrap().len() <= 256,
        "output bounded"
    );

    // The engine is alive and still speaking protocol.
    let mut ping = Client::connect(addr);
    ping.send("PING");
    assert_eq!(ping.read_line().as_deref(), Some("OK PONG"));

    server.stop();
    cell.stop();
}

#[test]
fn abrupt_shared_disconnect_rewinds_without_loss() {
    // A shared claim delivered toward a dead client fails (the write, or
    // the read-side probe after it). Its rows fit in one written piece, so
    // it rewinds whole — the survivor re-claims it all. (A claim of several
    // pieces keeps those delivered before the failing one:
    // `failed_later_piece_rewinds_only_that_piece` covers that.)
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    cell.execute("create continuous query q as select s.x from [select * from b] as s")
        .unwrap();
    let (cell, server, addr) = serve(cell);

    // Backlog lands in the output in one bulk firing while paused.
    cell.pause_query("q").unwrap();

    let mut dead = Client::connect(addr);
    dead.send("SUBSCRIBE q MODE shared");
    assert!(dead.read_line().unwrap().starts_with("OK SUBSCRIBE q"));
    let mut live = Client::connect(addr);
    live.send("SUBSCRIBE q MODE shared");
    assert!(live.read_line().unwrap().starts_with("OK SUBSCRIBE q"));

    const N: i64 = 200;
    let mut ingest = Client::connect(addr);
    ingest.send("STREAM b");
    assert!(ingest.read_line().unwrap().starts_with("OK STREAM b"));
    for i in 0..N {
        ingest.send(&format!("{i}"));
    }
    ingest.send("SYNC");
    assert_eq!(ingest.read_line().as_deref(), Some("OK SYNC 200 0"));

    // Kill one pool member abruptly (unread replies ⇒ hard RST), then
    // release the backlog.
    drop(dead);
    cell.resume_query("q").unwrap();

    let mut got = live.collect_ints(N as usize, Duration::from_secs(20));
    got.sort_unstable();
    got.dedup();
    assert_eq!(
        got,
        (0..N).collect::<Vec<i64>>(),
        "survivor re-claims the dead consumer's rewound ranges: no loss"
    );

    server.stop();
    cell.stop();
}

/// Bytes a subscriber's connection renders ahead of one socket write.
const PIECE_BYTES: usize = 64 << 10;

/// Read `client`'s raw result bytes until `stop` says enough or the server
/// closes the connection (EOF), for at most 10 s.
fn read_raw(client: &mut Client, mut stop: impl FnMut(&[u8]) -> bool) -> (Vec<u8>, bool) {
    use std::io::Read;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = Vec::new();
    let mut buf = vec![0u8; 16 << 10];
    while !stop(&got) && Instant::now() < deadline {
        match client.reader.read(&mut buf) {
            Ok(0) => return (got, true),
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return (got, true),
            Err(_) => {}
        }
    }
    (got, false)
}

/// The first field of every complete line in `bytes`.
fn first_fields(bytes: &[u8]) -> Vec<i64> {
    let text = String::from_utf8_lossy(bytes);
    let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
    complete
        .lines()
        .map(|l| l.split(',').next().unwrap().trim().parse().unwrap())
        .collect()
}

#[test]
fn failed_later_piece_rewinds_only_that_piece() {
    // One shared claim far larger than the loopback socket buffers: the
    // member reads a few pieces, then hangs up with unread data (a reset),
    // so a later piece — not the first — fails. The pieces written before
    // it stay committed; the surviving member re-receives at most the one
    // that failed.
    let cell = DataCell::builder().listen("127.0.0.1:0").build();
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
    // The surviving pool member claims only when polled, so the TCP
    // member takes the whole backlog in one claim first.
    let survivor = cell
        .subscribe_with::<(i64, String)>("q", SubscriptionMode::Shared)
        .unwrap();
    let (cell, server, addr) = serve(cell);

    let mut dying = Client::connect(addr);
    dying.send("SUBSCRIBE q MODE shared");
    assert!(dying.read_line().unwrap().starts_with("OK SUBSCRIBE q"));
    // Read at least four pieces' worth, then close with data unread.
    let (got, closed) = read_raw(&mut dying, |got| got.len() > 4 * PIECE_BYTES + 100);
    assert!(!closed, "the connection closed early");
    drop(dying);
    assert!(
        wait_until(Duration::from_secs(10), || server
            .metrics()
            .connections_active
            == 0),
        "the failed write was noticed"
    );

    let read = first_fields(&got).len() as i64;
    // What the surviving member receives next: the rewound tail.
    let ids: Vec<i64> = survivor
        .drain()
        .unwrap()
        .into_iter()
        .map(|(i, _)| i)
        .collect();
    let first = ids[0];
    assert_eq!(ids, (first..total).collect::<Vec<_>>());
    assert_eq!(server.metrics().tuples_out, first as u64, "rows written");
    assert!(first > 0, "the pieces delivered before the failure commit");
    // Rows of one piece: a 1 KiB line each, 64 per 64 KiB.
    let per_piece = (PIECE_BYTES / (pad.len() + 8)) as i64 + 1;
    let twice = read.saturating_sub(first);
    assert!(
        twice <= per_piece,
        "{twice} rows re-delivered (read {read}, rewound from {first})"
    );

    server.stop();
    cell.stop();
}

#[test]
fn drop_query_closes_live_network_subscribers() {
    // Dropping a query ends its network subscribers without waiting on
    // them: an idle one, and one stalled on a full socket because it
    // stopped reading. Each sees the server close after an in-order
    // prefix, and neither leaves a reader on the dropped basket.
    let cell = DataCell::builder().listen("127.0.0.1:0").build();
    cell.execute("create basket b (i int, pad varchar)")
        .unwrap();
    cell.execute("create continuous query q as select s.i, s.pad from [select * from b] as s")
        .unwrap();
    let (cell, server, addr) = serve(cell);
    let out = cell.query_output("q").unwrap();

    let mut stalled = Client::connect(addr);
    stalled.send("SUBSCRIBE q");
    assert!(stalled.read_line().unwrap().starts_with("OK SUBSCRIBE q"));
    let mut idle = Client::connect(addr);
    idle.send("SUBSCRIBE q");
    assert!(idle.read_line().unwrap().starts_with("OK SUBSCRIBE q"));

    // Offer 1 KiB rows, each batch read in full by the idle subscriber,
    // until the stalled one's connection lags by 8 MiB — more than the
    // socket buffers of a peer that never reads can hold (its receive
    // buffer grows only as it reads), so its thread is parked on a full
    // socket.
    let pad = "x".repeat(1000);
    let mut sent = 0i64;
    let mut idle_got = Vec::new();
    for _ in 0..64 {
        let rows: Vec<Vec<Value>> = (sent..sent + 1000)
            .map(|i| vec![Value::Int(i), Value::Str(pad.clone())])
            .collect();
        out.append_rows(&rows).unwrap();
        sent += 1000;
        let want = (sent as usize) - idle_got.len();
        let (mut lines, mut scanned) = (0, 0);
        let (got, closed) = read_raw(&mut idle, |got| {
            lines += got[scanned..].iter().filter(|&&b| b == b'\n').count();
            scanned = got.len();
            lines >= want
        });
        assert!(!closed);
        idle_got.extend(first_fields(&got));
        let written: u64 = server
            .metrics()
            .per_connection
            .iter()
            .map(|c| c.tuples)
            .min()
            .unwrap();
        if written + 8000 <= sent as u64 {
            break;
        }
    }
    assert_eq!(idle_got, (0..sent).collect::<Vec<_>>());

    let started = Instant::now();
    cell.execute("drop continuous query q").unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "drop returned in {:?}",
        started.elapsed()
    );
    let (rest, closed) = read_raw(&mut idle, |_| false);
    assert!(closed && rest.is_empty(), "idle subscriber closed");
    let (got, closed) = read_raw(&mut stalled, |_| false);
    assert!(closed, "stalled subscriber closed");
    let prefix = first_fields(&got);
    assert!(prefix.len() < sent as usize, "it had stalled");
    assert_eq!(prefix, (0..prefix.len() as i64).collect::<Vec<_>>());
    assert!(
        wait_until(Duration::from_secs(10), || server
            .metrics()
            .connections_active
            == 0),
        "both connections end"
    );
    assert_eq!(
        out.reader_count(),
        0,
        "no reader left on the dropped basket"
    );

    server.stop();
    cell.stop();
}

#[test]
fn malformed_lines_get_err_replies_and_counters() {
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .metrics(true)
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int, s varchar(20))")
        .unwrap();
    let (cell, server, addr) = serve(cell);

    let mut c = Client::connect(addr);
    c.send("STREAM b");
    assert_eq!(c.read_line().as_deref(), Some("OK STREAM b x:int,s:str"));
    c.send("1, ok");
    c.send("too, many, fields");
    let err1 = c.read_line().expect("reply for bad arity");
    assert!(err1.starts_with("ERR decode "), "{err1}");
    c.send("nope, text");
    let err2 = c.read_line().expect("reply for bad int");
    assert!(err2.starts_with("ERR decode "), "{err2}");
    c.send("2, \"quoted, comma\"");
    c.send("SYNC");
    assert_eq!(
        c.read_line().as_deref(),
        Some("OK SYNC 2 2"),
        "accepted and rejected counted cumulatively"
    );

    let net = cell.metrics().net.expect("listener attached");
    assert_eq!(net.tuples_in, 2);
    assert_eq!(net.lines_rejected, 2);
    assert_eq!(cell.basket("b").unwrap().len(), 2, "good tuples landed");

    server.stop();
    cell.stop();
}

#[test]
fn handshake_protocol_errors_and_ping() {
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    let (cell, server, addr) = serve(cell);

    // PING leaves the connection in the handshake state.
    let mut c = Client::connect(addr);
    c.send("PING");
    assert_eq!(c.read_line().as_deref(), Some("OK PONG"));
    c.send("STREAM b");
    assert!(c.read_line().unwrap().starts_with("OK STREAM b"));

    let mut bad = Client::connect(addr);
    bad.send("FETCH everything");
    let reply = bad.read_line().expect("proto error reply");
    assert!(reply.starts_with("ERR proto "), "{reply}");

    let mut unknown = Client::connect(addr);
    unknown.send("STREAM nope");
    let reply = unknown.read_line().expect("unknown basket reply");
    assert!(reply.starts_with("ERR unknown-basket "), "{reply}");

    let mut unknown_q = Client::connect(addr);
    unknown_q.send("SUBSCRIBE nope");
    let reply = unknown_q.read_line().expect("unknown query reply");
    assert!(reply.starts_with("ERR unknown-query "), "{reply}");

    let mut quit = Client::connect(addr);
    quit.send("QUIT");
    assert_eq!(quit.read_line().as_deref(), Some("OK BYE"));

    server.stop();
    cell.stop();
}

#[test]
fn blank_lines_are_ignored_and_frames_are_capped() {
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    let (cell, server, addr) = serve(cell);

    // Blank lines between tuples (trailing newlines, interactive use) are
    // not tuples and are not rejected.
    let mut c = Client::connect(addr);
    c.send("STREAM b");
    assert!(c.read_line().unwrap().starts_with("OK STREAM b"));
    c.send("1");
    c.send("");
    c.send("   ");
    c.send("2");
    c.send("SYNC");
    assert_eq!(c.read_line().as_deref(), Some("OK SYNC 2 0"));

    // A frame over the 1 MiB cap earns an `ERR … frame limit` reply and a
    // hang-up — the server never buffers an unbounded line. (The reply
    // itself can be torn away by the RST when the client still had
    // unconsumed bytes in flight, so the hard assertions are the ones
    // that matter: the connection closes and the frame never lands.)
    let mut big = Client::connect(addr);
    big.send("STREAM b");
    assert!(big.read_line().unwrap().starts_with("OK STREAM b"));
    let huge = "9".repeat(2 * 1024 * 1024);
    big.send_best_effort(&huge);
    assert!(
        wait_until(Duration::from_secs(10), || big.server_closed()),
        "capped connection hangs up"
    );
    assert_eq!(
        cell.basket("b").unwrap().len(),
        2,
        "the oversized frame never landed as a tuple"
    );

    server.stop();
    cell.stop();
}

#[test]
fn idle_subscriber_disconnect_is_reaped() {
    // A subscriber that hangs up while no results are flowing must not
    // leak its connection thread, basket reader, or registry entry: the
    // thread's idle read-side probe notices the EOF.
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    cell.execute("create continuous query q as select s.x from [select * from b] as s")
        .unwrap();
    let (cell, server, addr) = serve(cell);

    let mut sub = Client::connect(addr);
    sub.send("SUBSCRIBE q");
    assert!(sub.read_line().unwrap().starts_with("OK SUBSCRIBE q"));
    assert_eq!(server.metrics().connections_active, 1);
    let readers_with_sub = cell.query_output("q").unwrap().reader_count();
    assert!(readers_with_sub >= 1);

    // Hang up with the stream idle: nothing is ever written to this
    // socket, so no failed write can notice. The connection thread sees
    // the EOF, and the connection and its registry entry are released
    // promptly.
    drop(sub);
    assert!(
        wait_until(Duration::from_secs(10), || {
            server.metrics().connections_active == 0
        }),
        "idle disconnected subscriber reaped"
    );
    // On that EOF the connection thread dropped its subscription, so its
    // reader is gone without any further delivery.
    assert!(
        wait_until(Duration::from_secs(10), || {
            cell.query_output("q").unwrap().reader_count() < readers_with_sub
        }),
        "its basket reader deregistered without a further insert"
    );
    cell.execute("insert into b values (1)").unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            cell.query_output("q").unwrap().reader_count() < readers_with_sub
        }),
        "its basket reader deregistered on the next delivery"
    );

    server.stop();
    cell.stop();
}

#[test]
fn every_hung_up_subscriber_releases_its_connection_and_reader() {
    // Fan-out to 1, 2 and 4 subscribers: each receives every tuple, and
    // once all have hung up only the ingest connection stays and no
    // reader is left on the query's output.
    const N: i64 = 200;
    for subscribers in [1, 2, 4] {
        let cell = DataCell::builder()
            .listen("127.0.0.1:0")
            .auto_start(true)
            .build();
        cell.execute("create basket s (v int)").unwrap();
        cell.execute("create continuous query q as select s2.v from [select * from s] as s2")
            .unwrap();
        let (cell, server, addr) = serve(cell);
        let mut subs: Vec<Client> = (0..subscribers).map(|_| Client::connect(addr)).collect();
        for sub in &mut subs {
            sub.send("SUBSCRIBE q");
            assert!(sub.read_line().unwrap().starts_with("OK SUBSCRIBE q"));
        }
        let mut ingest = Client::connect(addr);
        ingest.send("STREAM s");
        assert!(ingest.read_line().unwrap().starts_with("OK"));
        for v in 0..N {
            ingest.send(&v.to_string());
        }
        ingest.send("SYNC");
        assert!(ingest.read_line().unwrap().starts_with("OK SYNC"));
        for sub in &mut subs {
            let got = sub.collect_ints(N as usize, Duration::from_secs(10));
            assert_eq!(got, (0..N).collect::<Vec<_>>(), "{subscribers} subscribers");
        }
        drop(subs);
        let out = cell.query_output("q").unwrap();
        let released = || server.metrics().connections_active == 1 && out.reader_count() == 0;
        assert!(
            wait_until(Duration::from_secs(10), released),
            "{subscribers} subscribers: connections {}, readers {}",
            server.metrics().connections_active,
            out.reader_count()
        );
        server.stop();
        cell.stop();
    }
}

#[test]
fn server_start_respects_builder_configuration() {
    // No listen address → no server.
    let plain = Arc::new(DataCell::builder().build());
    assert!(NetServer::start(&plain).unwrap().is_none());
    assert!(plain.metrics().net.is_none());

    // Explicit bind works without builder configuration too.
    let cell = Arc::new(DataCell::builder().auto_start(true).build());
    cell.execute("create basket b (x int)").unwrap();
    let server = NetServer::bind(Arc::clone(&cell), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    assert_ne!(addr.port(), 0, "ephemeral port resolved");
    let mut c = Client::connect(addr);
    c.send("PING");
    assert_eq!(c.read_line().as_deref(), Some("OK PONG"));

    // The session snapshot carries the listener's counters.
    let net = cell.metrics().net.expect("registered on bind");
    assert_eq!(net.local_addr, addr.to_string());
    assert!(net.connections_accepted >= 1);

    // A bound address that cannot be parsed fails loudly.
    assert!(NetServer::bind(cell, "not-an-address").is_err());

    server.stop();
}

/// Send `bytes` in writes of at most `piece` bytes.
fn send_in_pieces(stream: &mut TcpStream, bytes: &[u8], piece: usize) {
    for part in bytes.chunks(piece) {
        stream.write_all(part).expect("send piece");
    }
}

/// One mixed ingest script: valid lines (quoted, escaped, non-ASCII, not
/// UTF-8 at all, an empty string), malformed lines, blank and CRLF lines,
/// and `SYNC`s — long enough that 65 537-byte writes straddle the
/// receptor's 64 KiB read buffer several times.
struct Script {
    bytes: Vec<u8>,
    syncs: usize,
    accepted: usize,
    rejected: usize,
}

fn mixed_input() -> Script {
    let mut s = Script {
        bytes: Vec::new(),
        syncs: 0,
        accepted: 0,
        rejected: 0,
    };
    for i in 0..6000 {
        let b = &mut s.bytes;
        match i % 11 {
            0 => {
                b.extend_from_slice(format!("oops{i}, malformed\n").as_bytes());
                s.rejected += 1;
            }
            1 => b.extend_from_slice(b"\n"),
            2 => b.extend_from_slice(b"   \r\n"),
            3 => {
                b.extend_from_slice(format!("{i}, \"quoted, {i} \"\"x\"\"\\n\"\r\n").as_bytes());
                s.accepted += 1;
            }
            4 => {
                b.extend_from_slice(format!("  {i} ,\t é→ {i}  \n").as_bytes());
                s.accepted += 1;
            }
            5 => {
                b.extend_from_slice(format!("{i}, bad").as_bytes());
                b.extend_from_slice(b"\xff\xc3 utf8\n");
                s.accepted += 1;
            }
            6 => {
                b.extend_from_slice(format!("{i}, NIL\n").as_bytes());
                s.accepted += 1;
            }
            7 => {
                b.extend_from_slice(format!("{i},\n").as_bytes());
                s.accepted += 1;
            }
            _ => {
                b.extend_from_slice(format!("{i}, plain-{i:06}-{}\n", "p".repeat(32)).as_bytes());
                s.accepted += 1;
            }
        }
        if i % 500 == 499 {
            s.bytes.extend_from_slice(b"SYNC\n");
            s.syncs += 1;
        }
    }
    s.bytes.extend_from_slice(b"SYNC\n");
    s.syncs += 1;
    s
}

/// Stream `input` in writes of `piece` bytes through a fresh server whose
/// basket `b` has `columns` (SQL column definitions and the wire
/// description `SUBSCRIBE` must reply with) and whose query `q` passes
/// them through; return the replies the ingest connection got (up to its
/// last `OK SYNC`) and the result lines a subscriber received.
fn ingest_in_pieces(
    (columns, described): (&str, &str),
    input: &[u8],
    syncs: usize,
    piece: usize,
) -> (Vec<String>, Vec<String>) {
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .auto_start(true)
        .build();
    cell.execute(&format!("create basket b ({columns})"))
        .unwrap();
    let names: Vec<String> = columns
        .split(',')
        .map(|c| format!("t.{}", c.split_whitespace().next().unwrap()))
        .collect();
    cell.execute(&format!(
        "create continuous query q as select {} from [select * from b] as t",
        names.join(", ")
    ))
    .unwrap();
    let (cell, server, addr) = serve(cell);
    let mut sub = Client::connect(addr);
    sub.send("SUBSCRIBE q");
    assert_eq!(sub.read_line(), Some(format!("OK SUBSCRIBE q {described}")));

    let mut ingest = Client::connect(addr);
    ingest.send("STREAM b");
    assert!(ingest.read_line().unwrap().starts_with("OK STREAM b"));
    let mut stream = ingest.stream.try_clone().unwrap();
    let bytes = input.to_vec();
    let writer = std::thread::spawn(move || send_in_pieces(&mut stream, &bytes, piece));

    let mut replies = Vec::new();
    let mut seen_syncs = 0;
    while seen_syncs < syncs {
        let line = ingest.read_line().expect("reply");
        seen_syncs += usize::from(line.starts_with("OK SYNC"));
        replies.push(line);
    }
    writer.join().unwrap();
    let accepted: usize = replies
        .last()
        .and_then(|l| l.split_whitespace().nth(2))
        .and_then(|n| n.parse().ok())
        .expect("final OK SYNC");
    let mut results = Vec::with_capacity(accepted);
    let deadline = Instant::now() + Duration::from_secs(30);
    while results.len() < accepted && Instant::now() < deadline {
        if let Some(l) = sub.try_read_line() {
            results.push(l);
        }
    }
    server.stop();
    cell.stop();
    (replies, results)
}

#[test]
fn split_writes_decode_identically() {
    // Where the client's writes (and so the server's reads) cut the byte
    // stream must not matter: byte-at-a-time, 7-byte and 65 537-byte
    // writes give the same replies, in the same order, the same SYNC
    // counts, and the same results.
    let script = mixed_input();
    assert!(
        script.bytes.len() > 2 * 65_537,
        "input straddles the read buffer"
    );
    let (replies, results) = ingest_in_pieces(STR_COLUMNS, &script.bytes, script.syncs, 65_537);
    let errors = replies
        .iter()
        .filter(|l| l.starts_with("ERR decode"))
        .count();
    assert_eq!(errors, script.rejected, "one ERR per malformed line");
    assert_eq!(
        replies.last().unwrap(),
        &format!("OK SYNC {} {}", script.accepted, script.rejected),
        "blank lines are neither accepted nor rejected"
    );
    assert_eq!(results.len(), script.accepted);
    for want in [
        "3,\"quoted, 3 \"\"x\"\"\\n\"",
        "4,é→ 4",
        "5,bad\u{fffd}\u{fffd} utf8",
        "6,nil",
        "7,\"\"",
        "8,plain-000008-pppppppppppppppppppppppppppppppp",
    ] {
        assert!(
            results.iter().any(|r| r == want),
            "{want:?} in {:?}",
            &results[..8]
        );
    }
    for piece in [7, 1] {
        let (r, out) = ingest_in_pieces(STR_COLUMNS, &script.bytes, script.syncs, piece);
        assert_eq!(r, replies, "replies with {piece}-byte writes");
        assert_eq!(out, results, "results with {piece}-byte writes");
    }
}

/// The basket of [`mixed_input`], and its wire description.
const STR_COLUMNS: (&str, &str) = ("x int, s varchar(64)", "x:int,s:str");

/// The basket of [`int_input`] (the shape the wire workloads send), and
/// its wire description.
const INT_COLUMNS: (&str, &str) = ("k int, v int, sent_us int", "k:int,v:int,sent_us:int");

/// An ingest script on [`INT_COLUMNS`]: mostly plain lines, which the
/// receptor decodes a read at a time, interleaved with every kind of line
/// that one-pass decoding must stop at and hand to the per-line rules —
/// blank and whitespace-only lines, commands, non-ASCII bytes, malformed
/// lines — and with plain-looking corners it decodes itself.
fn int_input() -> Script {
    let mut s = Script {
        bytes: Vec::new(),
        syncs: 0,
        accepted: 0,
        rejected: 0,
    };
    for i in 0..12_000u64 {
        // Which counter each line moves: accepted, rejected, or syncs.
        let (line, counter) = match i % 23 {
            0 => (b"\n".to_vec(), None),
            1 => (b" \t \r\n".to_vec(), None),
            2 => (
                format!("\x0B{i},\x0C 2\x0B, 3\x0C\n").into_bytes(),
                Some(&mut s.accepted),
            ),
            3 => (
                format!("{i}, nil ,NULL\r\n").into_bytes(),
                Some(&mut s.accepted),
            ),
            4 => (format!("+{i},-0,+7\n").into_bytes(), Some(&mut s.accepted)),
            5 => (
                format!("{i},1234567890123456789,-9223372036854775807\n").into_bytes(),
                Some(&mut s.accepted),
            ),
            6 => (
                format!("{i},12345678901234567890,1\n").into_bytes(),
                Some(&mut s.rejected),
            ),
            7 => (format!("{i},4é2,1\n").into_bytes(), Some(&mut s.rejected)),
            8 => (format!("{i},2\n").into_bytes(), Some(&mut s.rejected)),
            9 => (format!("{i},2,3,4\n").into_bytes(), Some(&mut s.rejected)),
            10 => (b"SYNC\n".to_vec(), Some(&mut s.syncs)),
            11 => (b" sync \r\n".to_vec(), Some(&mut s.syncs)),
            12 => (b"\x0B \x0C\r\n".to_vec(), None),
            13 => (b"\x0BQuIt\x0C,\n".to_vec(), Some(&mut s.rejected)),
            14 => (b"\x0BSync\x0C\n".to_vec(), Some(&mut s.syncs)),
            _ => (
                format!("{},{},{}\n", i % 1024, i * 7919 % 1000, 1_700_000_000 + i).into_bytes(),
                Some(&mut s.accepted),
            ),
        };
        if let Some(n) = counter {
            *n += 1;
        }
        s.bytes.extend_from_slice(&line);
    }
    s.bytes.extend_from_slice(b"SYNC\n");
    s.syncs += 1;
    s
}

#[test]
fn split_writes_decode_int_reads_identically() {
    // The sibling of `split_writes_decode_identically` on the all-int shape
    // the receptor decodes a read at a time: wherever the writes cut the
    // stream, the lines the one-pass decoder stops at get the same
    // replies, in the same order, with the same SYNC counts and results.
    let script = int_input();
    assert!(
        script.bytes.len() > 2 * 65_537,
        "input straddles the read buffer"
    );
    let (replies, results) = ingest_in_pieces(INT_COLUMNS, &script.bytes, script.syncs, 65_537);
    let errors: Vec<&String> = replies
        .iter()
        .filter(|l| l.starts_with("ERR decode"))
        .collect();
    assert_eq!(errors.len(), script.rejected, "one ERR per malformed line");
    for want in [
        "ERR decode cannot parse \"12345678901234567890\" as int",
        "ERR decode cannot parse \"4é2\" as int",
        "ERR decode tuple has 2 fields, schema k:int, v:int, sent_us:int wants 3",
        "ERR decode tuple has 4 fields, schema k:int, v:int, sent_us:int wants 3",
    ] {
        assert!(
            errors.iter().any(|e| *e == want),
            "{want:?} in {:?}",
            &errors[..4]
        );
    }
    assert_eq!(
        replies.last().unwrap(),
        &format!("OK SYNC {} {}", script.accepted, script.rejected),
        "blank lines and commands are neither accepted nor rejected"
    );
    assert_eq!(results.len(), script.accepted);
    for want in [
        "2,2,3",
        "3,nil,nil",
        "4,0,7",
        "5,1234567890123456789,-9223372036854775807",
        "15,785,1700000015",
    ] {
        assert!(
            results.iter().any(|r| r == want),
            "{want:?} in {:?}",
            &results[..8]
        );
    }
    for piece in [7, 1] {
        let (r, out) = ingest_in_pieces(INT_COLUMNS, &script.bytes, script.syncs, piece);
        assert_eq!(r, replies, "replies with {piece}-byte writes");
        assert_eq!(out, results, "results with {piece}-byte writes");
    }
}

#[test]
fn frame_cap_is_exact_for_lines_straddling_the_read_buffer() {
    // The 1 MiB cap counts the whole frame, its `\n` included, across the
    // receptor's read-buffer edges: a frame of exactly 1 MiB is a tuple,
    // one byte more loses the framing and the connection.
    const MAX_FRAME: usize = 1 << 20;
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    let (cell, server, addr) = serve(cell);

    let mut c = Client::connect(addr);
    c.send("STREAM b");
    assert!(c.read_line().unwrap().starts_with("OK STREAM b"));
    // Start mid-buffer, so the long frame straddles a buffer edge.
    let mut frame = b"1\n".to_vec();
    frame.extend(std::iter::repeat_n(b' ', MAX_FRAME - 2));
    frame.extend_from_slice(b"7\n");
    assert_eq!(frame.len() - 2, MAX_FRAME);
    c.stream.write_all(&frame).unwrap();
    c.send("SYNC");
    assert_eq!(c.read_line().as_deref(), Some("OK SYNC 2 0"));

    let mut over = vec![b' '; MAX_FRAME - 1];
    over.extend_from_slice(b"8\n");
    let _ = c.stream.write_all(&over);
    assert!(
        wait_until(Duration::from_secs(10), || c.server_closed()),
        "an oversized frame hangs up"
    );
    assert_eq!(
        cell.basket("b").unwrap().len(),
        2,
        "the oversized frame never landed"
    );

    server.stop();
    cell.stop();
}

#[test]
fn lone_stream_line_lands_without_sync() {
    // A receptor appends what one socket read delivered: a single line,
    // with no `SYNC`, `QUIT` or hang-up after it, reaches a subscriber.
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    cell.execute("create continuous query q as select s.x from [select * from b] as s")
        .unwrap();
    let (cell, server, addr) = serve(cell);
    let sub = cell.subscribe::<(i64,)>("q").unwrap();

    let mut ingest = Client::connect(addr);
    ingest.send("STREAM b");
    assert_eq!(ingest.read_line().as_deref(), Some("OK STREAM b x:int"));
    ingest.send("42");
    assert_eq!(
        sub.next_timeout(Duration::from_secs(2)).unwrap(),
        Some((42,)),
        "the line lands while the connection idles"
    );

    // The append shows in the connection's and the listener's counters.
    assert!(
        wait_until(Duration::from_secs(2), || server.metrics().ingest_appends
            == 1),
        "one append counted"
    );
    let net = server.metrics();
    let conn = net
        .per_connection
        .iter()
        .find(|c| c.kind == NetConnectionKind::Ingest)
        .expect("ingest connection listed");
    assert_eq!((conn.tuples, conn.appends), (1, 1));

    drop(ingest);
    server.stop();
    cell.stop();
}

#[test]
fn receptor_follows_a_lowered_capacity() {
    // A `Block` basket's capacity lowered while a `STREAM` connection runs
    // sizes every later batch: no append exceeds the new capacity, so no
    // batch waits for an empty basket and no claim holds more than it.
    const N: usize = 1000;
    const CAPACITY: usize = 8;
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int) capacity 512 overflow block")
        .unwrap();
    let (cell, server, addr) = serve(cell);
    let basket = cell.basket("b").unwrap();
    let reader = basket.register_reader(true);

    let mut ingest = Client::connect(addr);
    ingest.send("STREAM b");
    assert_eq!(ingest.read_line().as_deref(), Some("OK STREAM b x:int"));
    // One round trip first, so the receptor is pumping before the change.
    ingest.send("0");
    ingest.send("SYNC");
    assert_eq!(ingest.read_line().as_deref(), Some("OK SYNC 1 0"));
    basket.set_capacity(Some(CAPACITY), OverflowPolicy::Block);

    let drained = Arc::clone(&basket);
    let drain = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(10);
        let (mut seen, mut largest) = (0, 0);
        while seen < N + 1 && Instant::now() < deadline {
            let (chunk, start, end) = drained.claim_for_reader(reader, usize::MAX);
            if chunk.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            largest = largest.max(chunk.len());
            seen += chunk.len();
            drained.commit_claim(reader, start, end);
        }
        (seen, largest)
    });

    // One write, so a single socket read can deliver every line.
    let mut lines: String = (0..N).map(|i| format!("{i}\n")).collect();
    lines.push_str("SYNC\n");
    ingest.stream.write_all(lines.as_bytes()).unwrap();
    assert_eq!(
        ingest.read_line().as_deref(),
        Some(format!("OK SYNC {} 0", N + 1).as_str())
    );
    let (seen, largest) = drain.join().unwrap();
    assert_eq!(seen, N + 1);
    assert!(
        largest <= CAPACITY,
        "a claim held {largest} rows under capacity {CAPACITY}"
    );

    drop(ingest);
    server.stop();
    cell.stop();
}

/// Stream `lines` into persistent basket `b` one socket read at a time:
/// each line is sent only once the previous one has landed.
fn stream_read_by_read(
    ingest: &mut Client,
    basket: &datacell::Basket,
    lines: std::ops::Range<i64>,
) {
    for i in lines {
        let before = basket.stats().appended;
        ingest.send(&i.to_string());
        assert!(
            wait_until(Duration::from_secs(5), || basket.stats().appended
                == before + 1),
            "line {i} lands without a SYNC"
        );
    }
}

#[test]
fn wire_durability_acknowledged_rows_survive_a_power_loss() {
    // `OK SYNC` promises that every row it counts is on disk. A power loss
    // may keep no more of the WAL than its last completed sync covered:
    // cut a copy of the log there, recover it in a fresh cell, and every
    // acknowledged row must come back, in order.
    use datacell_storage::testutil::TempDir;
    let dir = TempDir::new("wire-power-loss");
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .data_dir(dir.path())
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int) persistent").unwrap();
    let (cell, server, addr) = serve(cell);
    let basket = cell.basket("b").unwrap();

    let mut ingest = Client::connect(addr);
    ingest.send("STREAM b");
    assert_eq!(ingest.read_line().as_deref(), Some("OK STREAM b x:int"));
    let mut acked: Vec<i64> = Vec::new();
    for (round, singles, burst) in [(0, 0..40, 40..90), (1, 90..120, 120..170)] {
        stream_read_by_read(&mut ingest, &basket, singles.clone());
        // A whole burst in one write, so the receptor can land it in a
        // single socket read.
        let lines: String = burst.clone().map(|i| format!("{i}\n")).collect();
        ingest.stream.write_all(lines.as_bytes()).unwrap();
        acked.extend(singles.chain(burst));
        ingest.send("SYNC");
        assert_eq!(
            ingest.read_line(),
            Some(format!("OK SYNC {} 0", acked.len())),
            "round {round}"
        );
        let durable = basket.durable_wal_len().expect("persistent basket") as usize;

        let copy = TempDir::new("wire-power-loss-copy");
        let (from, to) = (dir.path().join("b"), copy.path().join("b"));
        std::fs::create_dir(&to).unwrap();
        std::fs::copy(from.join("manifest.txt"), to.join("manifest.txt")).unwrap();
        let wal = std::fs::read(from.join("wal.log")).unwrap();
        assert!(durable <= wal.len());
        std::fs::write(to.join("wal.log"), &wal[..durable]).unwrap();
        let back = DataCell::builder().data_dir(copy.path()).build();
        back.recover().unwrap();
        let got = back.basket("b").unwrap().snapshot();
        assert_eq!(
            got.columns[0].as_ints().unwrap(),
            &acked[..],
            "round {round}"
        );
    }

    ingest.send("QUIT");
    assert_eq!(ingest.read_line().as_deref(), Some("OK BYE"));
    server.stop();
    cell.stop();
}

#[test]
fn wire_durability_one_sync_per_acknowledgement() {
    // Socket reads land without waiting for the disk; the acknowledgement
    // pays one group-commit sync for all of them.
    use datacell_storage::testutil::TempDir;
    const READS: i64 = 12;
    let dir = TempDir::new("wire-one-sync");
    let cell = DataCell::builder()
        .listen("127.0.0.1:0")
        .data_dir(dir.path())
        .auto_start(true)
        .build();
    cell.execute("create basket b (x int) persistent").unwrap();
    let (cell, server, addr) = serve(cell);
    let basket = cell.basket("b").unwrap();
    // No live checkpoint may sync the log behind the receptor's back.
    basket.set_wal_checkpoint_bytes(u64::MAX);
    let syncs = || cell.metrics().storage.expect("data dir").wal_syncs;

    let mut ingest = Client::connect(addr);
    ingest.send("STREAM b");
    assert_eq!(ingest.read_line().as_deref(), Some("OK STREAM b x:int"));
    let before = syncs();
    stream_read_by_read(&mut ingest, &basket, 0..READS);
    assert_eq!(syncs(), before, "no read waited for the disk");
    ingest.send("SYNC");
    assert_eq!(
        ingest.read_line(),
        Some(format!("OK SYNC {READS} 0")),
        "acknowledged"
    );
    assert_eq!(syncs(), before + 1, "{READS} reads, one sync");
    let wal = std::fs::metadata(dir.path().join("b").join("wal.log")).unwrap();
    assert_eq!(
        basket.durable_wal_len(),
        Some(wal.len()),
        "the sync covered the log"
    );

    // A SYNC with nothing new landed costs nothing more.
    ingest.send("SYNC");
    assert_eq!(ingest.read_line(), Some(format!("OK SYNC {READS} 0")));
    assert_eq!(syncs(), before + 1);

    ingest.send("QUIT");
    assert_eq!(ingest.read_line().as_deref(), Some("OK BYE"));
    server.stop();
    cell.stop();
}
