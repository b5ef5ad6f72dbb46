//! Observability tier: SQL introspection, the HTTP front door, the TCP
//! `HELLO`/`EXEC` verbs, and metrics-counter invariants.
//!
//! * `SHOW QUERIES` / `SHOW METRICS [FOR q]` / `EXPLAIN ANALYZE` through
//!   the session facade, with row counts cross-checked against a real
//!   subscriber;
//! * counters stay monotone across pause/resume/drop and under a
//!   4-worker parallel scheduler;
//! * a real `/metrics` scrape under load parses as Prometheus text and
//!   brackets the in-process snapshot;
//! * `HELLO <token>` gates the TCP front door, `Authorization: Bearer`
//!   gates HTTP (with `/healthz` exempt).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::{CellResult, DataCell, Value};
use datacell_net::{HttpServer, NetServer};

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

/// Fetch one path over plain HTTP/1.1; returns (status, headers, body).
fn http_get(addr: SocketAddr, path: &str, bearer: Option<&str>) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let auth = bearer
        .map(|t| format!("Authorization: Bearer {t}\r\n"))
        .unwrap_or_default();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\n{auth}Connection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .expect("status line");
    (status, head.to_string(), body.to_string())
}

/// Pull a `name value` (no labels) sample out of a Prometheus exposition.
fn prom_value(body: &str, name: &str) -> Option<f64> {
    body.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.parse().ok())?
    })
}

fn rows(result: CellResult) -> datacell::Chunk {
    match result {
        CellResult::Rows(c) => c,
        other => panic!("expected rows, got {other:?}"),
    }
}

fn plan(result: CellResult) -> String {
    match result {
        CellResult::Plan(p) => p,
        other => panic!("expected plan, got {other:?}"),
    }
}

/// Column index by name (panics when absent — schema drift is a failure).
fn col(chunk: &datacell::Chunk, name: &str) -> usize {
    chunk
        .schema
        .columns
        .iter()
        .position(|c| c.name == name)
        .unwrap_or_else(|| panic!("column {name} in {:?}", chunk.schema))
}

fn str_at(chunk: &datacell::Chunk, row: usize, name: &str) -> String {
    match chunk.columns[col(chunk, name)].get(row) {
        Ok(Value::Str(s)) => s,
        other => panic!("expected string at {name}[{row}], got {other:?}"),
    }
}

#[test]
fn show_queries_reports_state_and_output() {
    let cell = DataCell::builder().auto_start(true).build();
    cell.execute("create basket b (x int)").unwrap();
    cell.execute("create continuous query q1 as select s.x from [select * from b] as s")
        .unwrap();
    cell.execute("create continuous query q2 as select s.x from [select * from b] as s")
        .unwrap();
    cell.pause_query("q2").unwrap();

    let c = rows(cell.execute("show queries").unwrap());
    assert_eq!(c.len(), 2, "one row per continuous query");
    // Ordered by name: q1 then q2.
    assert_eq!(str_at(&c, 0, "query"), "q1");
    assert_eq!(str_at(&c, 0, "state"), "running");
    assert_eq!(str_at(&c, 1, "query"), "q2");
    assert_eq!(str_at(&c, 1, "state"), "paused");
    assert!(
        !str_at(&c, 0, "output").is_empty(),
        "output basket is reported"
    );

    cell.drop_query("q2").unwrap();
    let c = rows(cell.execute("show queries").unwrap());
    assert_eq!(c.len(), 1, "dropped query disappears");
    assert_eq!(str_at(&c, 0, "query"), "q1");
    cell.stop();
}

#[test]
fn show_metrics_session_wide_and_per_query() {
    let cell = DataCell::builder().metrics(true).auto_start(true).build();
    cell.execute("create basket b (x int)").unwrap();
    cell.execute("create continuous query q as select s.x from [select * from b] as s")
        .unwrap();
    let sub = cell.subscribe::<(i64,)>("q").unwrap();
    let mut w = cell.writer("b").unwrap();
    for i in 0..50i64 {
        w.append((i,)).unwrap();
    }
    w.flush().unwrap();
    assert_eq!(
        sub.collect_n(50, Duration::from_secs(10)).unwrap().len(),
        50
    );
    // The firing counter ticks just *after* the step's output is
    // deliverable, so a subscriber can observe the rows an instant before
    // the count: let it settle.
    assert!(
        wait_until(Duration::from_secs(5), || cell.metrics().factory_firings
            >= 1),
        "firing counted"
    );

    let c = rows(cell.execute("show metrics").unwrap());
    let metric_col = col(&c, "metric");
    let value_col = col(&c, "value");
    let find = |name: &str| -> f64 {
        (0..c.len())
            .find_map(
                |i| match (c.columns[metric_col].get(i), c.columns[value_col].get(i)) {
                    (Ok(Value::Str(n)), Ok(Value::Float(v))) if n == name => Some(v),
                    _ => None,
                },
            )
            .unwrap_or_else(|| panic!("metric {name} present"))
    };
    assert_eq!(find("tuples_ingested"), 50.0);
    assert!(find("tuples_delivered") >= 50.0);
    assert!(find("factory_firings") >= 1.0);
    assert!(find("uptime_micros") > 0.0);

    // FOR <query> narrows to that query's scheduler account and its
    // delivery-latency histogram.
    let c = rows(cell.execute("show metrics for q").unwrap());
    let metric_col = col(&c, "metric");
    let names: Vec<String> = (0..c.len())
        .filter_map(|i| match c.columns[metric_col].get(i) {
            Ok(Value::Str(s)) => Some(s),
            _ => None,
        })
        .collect();
    assert!(names.iter().any(|n| n == "firings"), "{names:?}");
    assert!(names.iter().any(|n| n == "tuples_in"), "{names:?}");
    assert!(
        names.iter().any(|n| n == "latency_p99_micros"),
        "per-query latency attributed at delivery: {names:?}"
    );

    let err = cell.execute("show metrics for nope").unwrap_err();
    assert!(
        err.to_string().contains("unknown continuous query"),
        "{err}"
    );
    cell.stop();
}

#[test]
fn undelivered_gauge_shows_a_subscriber_that_stopped_polling() {
    // A subscription that does not poll holds its reader's watermark: its
    // lag is the query's output backlog, per query in `metrics()` and on
    // `/metrics`, and it falls to 0 once the subscriber catches up.
    let cell = Arc::new(DataCell::builder().metrics_listen("127.0.0.1:0").build());
    cell.execute("create basket b (x int)").unwrap();
    cell.execute("create continuous query q as select s.x from [select * from b] as s")
        .unwrap();
    let slow = cell.subscribe::<(i64,)>("q").unwrap();
    let fast = cell.subscribe::<(i64,)>("q").unwrap();
    cell.execute("insert into b values (1), (2), (3)").unwrap();
    cell.run_until_quiescent(10);
    assert_eq!(fast.drain().unwrap().len(), 3);
    let undelivered = || {
        let m = cell.metrics();
        m.per_query
            .iter()
            .find(|q| q.name == "q")
            .unwrap()
            .undelivered
    };
    assert_eq!(undelivered(), 3, "the furthest-behind subscriber's lag");
    let server = HttpServer::start(&cell)
        .unwrap()
        .expect("metrics_listen configured");
    let (_, _, body) = http_get(server.local_addr(), "/metrics", None);
    assert!(
        body.contains("datacell_query_undelivered{query=\"q\"} 3\n"),
        "{body}"
    );
    assert_eq!(slow.drain().unwrap().len(), 3);
    assert_eq!(undelivered(), 0, "caught up");
    server.stop();
}

#[test]
fn explain_analyze_row_counts_match_a_real_subscriber() {
    let cell = DataCell::builder().auto_start(true).build();

    // One-time table path: per-operator rows_out is exact.
    cell.execute("create table t (a int)").unwrap();
    cell.execute("insert into t values (1), (2), (3), (4), (5), (6)")
        .unwrap();
    let p = plan(
        cell.execute("explain analyze select a from t where a > 2")
            .unwrap(),
    );
    assert!(p.contains("ScanTable"), "{p}");
    assert!(
        p.contains("rows_in=") && p.contains("rows_out=") && p.contains("time="),
        "{p}"
    );
    let scan_line = p.lines().find(|l| l.contains("ScanTable")).unwrap();
    assert!(
        scan_line.contains("rows_out=4"),
        "filter pushed into scan: {scan_line}"
    );

    // Streaming path: the same statement a continuous query runs,
    // cross-checked against what a subscriber actually received.
    cell.execute("create basket b (x int)").unwrap();
    cell.execute(
        "create continuous query q as select s.x from [select * from b] as s where s.x > 10",
    )
    .unwrap();
    let sub = cell.subscribe::<(i64,)>("q").unwrap();
    let mut w = cell.writer("b").unwrap();
    for i in 0..40i64 {
        w.append((i,)).unwrap();
    }
    w.flush().unwrap();
    let delivered = sub.collect_n(29, Duration::from_secs(10)).unwrap();
    assert_eq!(delivered.len(), 29, "29 of 40 pass x > 10");

    // Refill and run the query body one-shot under EXPLAIN ANALYZE: the
    // root operator must report exactly the subscriber's differential
    // count for the same input. Pause first: a live factory would drain
    // the refill before the one-shot run could see it. (The wait only
    // covers a last firing still consuming its own, earlier snapshot.)
    cell.pause_query("q").unwrap();
    for i in 0..40i64 {
        w.append((i,)).unwrap();
    }
    w.flush().unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || cell.basket("b").unwrap().len()
            == 40),
        "refill resident before the one-shot run"
    );
    let p = plan(
        cell.execute("explain analyze select s.x from [select * from b] as s where s.x > 10")
            .unwrap(),
    );
    let root = p.lines().next().unwrap();
    assert!(
        root.contains("rows_out=29"),
        "analyzed root row count equals the subscriber's differential count: {p}"
    );
    // The consuming scan consumed: the basket drained.
    assert_eq!(cell.basket("b").unwrap().len(), 0, "one-shot run consumed");
    cell.stop();
}

#[test]
fn explain_analyze_counts_selected_rows_not_borrowed_ones() {
    // The interpreter passes a borrowed chunk plus a candidate list between
    // operators and copies rows late; `rows_out` must still be what each
    // operator *selected*: 1 000 rows in, half of them pass, ten groups.
    let cell = DataCell::builder().auto_start(true).build();
    let values: Vec<String> = (0..1000).map(|i| format!("({}, {i})", i % 10)).collect();
    let analyzed_line = |p: &str, op: &str| -> String {
        p.lines()
            .find(|l| l.contains(op))
            .unwrap_or_else(|| panic!("no {op} in {p}"))
            .to_string()
    };

    // Stored table: the predicate is fused into the scan.
    cell.execute("create table t (k int, v int)").unwrap();
    cell.execute(&format!("insert into t values {}", values.join(", ")))
        .unwrap();
    let p = plan(
        cell.execute("explain analyze select k, count(*) from t where v < 500 group by k")
            .unwrap(),
    );
    let scan = analyzed_line(&p, "ScanTable");
    assert!(scan.contains("rows_out=500"), "scan selects half: {p}");
    let agg = analyzed_line(&p, "HashAggregate");
    assert!(
        agg.contains("rows_in=500") && agg.contains("rows_out=10"),
        "aggregate reads the selected rows and emits the groups: {p}"
    );

    // Basket expression: the predicate sits in a Filter above a full scan.
    // No continuous query reads `b`, so nothing races the one-shot run.
    cell.execute("create basket b (k int, v int)").unwrap();
    cell.execute(&format!("insert into b values {}", values.join(", ")))
        .unwrap();
    let p = plan(
        cell.execute(
            "explain analyze select s.k, count(*) from [select * from b] as s \
             where s.v < 500 group by s.k",
        )
        .unwrap(),
    );
    let scan = analyzed_line(&p, "ScanTable");
    assert!(scan.contains("rows_out=1000"), "scan selects all: {p}");
    let filter = analyzed_line(&p, "Filter");
    assert!(
        filter.contains("rows_in=1000") && filter.contains("rows_out=500"),
        "filter narrows the candidates: {p}"
    );
    let agg = analyzed_line(&p, "HashAggregate");
    assert!(
        agg.contains("rows_in=500") && agg.contains("rows_out=10"),
        "{p}"
    );
    assert_eq!(cell.basket("b").unwrap().len(), 0, "one-shot run consumed");
    cell.stop();
}

#[test]
fn counters_stay_monotone_across_lifecycle_and_parallel_load() {
    for workers in [1usize, 4] {
        let cell = DataCell::builder()
            .metrics(true)
            .workers(workers)
            .auto_start(true)
            .build();
        cell.execute("create basket b (x int)").unwrap();
        cell.execute("create continuous query q1 as select s.x from [select * from b] as s")
            .unwrap();
        cell.execute(
            "create continuous query q2 as select s.x from [select * from b] as s where s.x % 2 = 0",
        )
        .unwrap();
        let s1 = cell.subscribe::<(i64,)>("q1").unwrap();
        let mut w = cell.writer("b").unwrap();
        for i in 0..200i64 {
            w.append((i,)).unwrap();
        }
        w.flush().unwrap();
        assert_eq!(
            s1.collect_n(200, Duration::from_secs(10)).unwrap().len(),
            200
        );

        let before = cell.metrics();
        cell.pause_query("q1").unwrap();
        cell.resume_query("q1").unwrap();
        let mid = cell.metrics();
        cell.drop_query("q2").unwrap();
        for i in 0..100i64 {
            w.append((i,)).unwrap();
        }
        w.flush().unwrap();
        assert_eq!(
            s1.collect_n(100, Duration::from_secs(10)).unwrap().len(),
            100
        );
        let after = cell.metrics();

        for (label, a, b, c) in [
            (
                "tuples_ingested",
                before.tuples_ingested,
                mid.tuples_ingested,
                after.tuples_ingested,
            ),
            (
                "tuples_delivered",
                before.tuples_delivered,
                mid.tuples_delivered,
                after.tuples_delivered,
            ),
            (
                "factory_firings",
                before.factory_firings,
                mid.factory_firings,
                after.factory_firings,
            ),
            (
                "scheduler_passes",
                before.scheduler_passes,
                mid.scheduler_passes,
                after.scheduler_passes,
            ),
        ] {
            assert!(
                a <= b && b <= c,
                "{label} monotone under workers={workers}: {a} {b} {c}"
            );
        }
        assert!(after.tuples_ingested == 300, "exact ingest count");
        if workers > 1 {
            assert_eq!(after.workers, workers);
        }
        // Latency attribution survived the churn: q1 has a histogram with
        // every delivered tuple accounted.
        let (_, h) = after
            .per_query_latency
            .iter()
            .find(|(n, _)| n == "q1")
            .expect("per-query latency recorded");
        assert!(h.count >= 300, "histogram covers deliveries: {}", h.count);
        assert!(
            h.quantile_micros(0.99) <= h.max_micros,
            "quantile clamped to observed max"
        );
        // Dropping q2 retired its histogram.
        assert!(
            !after.per_query_latency.iter().any(|(n, _)| n == "q2"),
            "dropped query's histogram removed"
        );
        cell.stop();
    }
}

#[test]
fn http_metrics_scrape_under_load_parses_and_brackets_snapshot() {
    let cell = Arc::new(
        DataCell::builder()
            .metrics(true)
            .metrics_listen("127.0.0.1:0")
            .auto_start(true)
            .build(),
    );
    cell.execute("create basket b (x int)").unwrap();
    cell.execute("create continuous query q as select s.x from [select * from b] as s")
        .unwrap();
    let server = HttpServer::start(&cell)
        .unwrap()
        .expect("metrics_listen configured");
    let addr = server.local_addr();

    // Load: a writer pushing in the background while we scrape.
    let sub = cell.subscribe::<(i64,)>("q").unwrap();
    let writer_cell = Arc::clone(&cell);
    let load = std::thread::spawn(move || {
        let mut w = writer_cell.writer("b").unwrap();
        for i in 0..2000i64 {
            w.append((i,)).unwrap();
        }
        w.flush().unwrap();
    });

    let before = cell.metrics();
    let (status, head, body) = http_get(addr, "/metrics", None);
    let after = cell.metrics();
    assert_eq!(status, 200);
    assert!(head.contains("text/plain"), "{head}");

    // Every sample line is `name[{labels}] value` with a numeric value.
    let mut samples = 0usize;
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line {line}"));
        assert!(!name.is_empty());
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "numeric sample: {line}"
        );
        samples += 1;
    }
    assert!(samples >= 10, "substantive exposition ({samples} samples)");

    assert!(
        body.contains("datacell_build_info{version="),
        "build info present: {body}"
    );
    assert!(prom_value(&body, "datacell_uptime_seconds").unwrap() > 0.0);

    // A counter scraped mid-load is bracketed by snapshots taken around it.
    let scraped = prom_value(&body, "datacell_tuples_ingested_total").unwrap() as u64;
    assert!(
        before.tuples_ingested <= scraped && scraped <= after.tuples_ingested,
        "scrape brackets snapshots: {} <= {scraped} <= {}",
        before.tuples_ingested,
        after.tuples_ingested
    );

    load.join().unwrap();
    assert_eq!(
        sub.collect_n(2000, Duration::from_secs(20)).unwrap().len(),
        2000
    );

    // After the load drains, a fresh scrape agrees exactly with the
    // in-process snapshot for settled counters.
    let (_, _, body) = http_get(addr, "/metrics", None);
    let snap = cell.metrics();
    assert_eq!(
        prom_value(&body, "datacell_tuples_ingested_total").unwrap() as u64,
        snap.tuples_ingested
    );
    assert!(
        body.contains("datacell_query_latency_seconds_bucket{query=\"q\""),
        "per-query latency histogram exported"
    );
    assert!(body.contains("datacell_query_firings_total{query=\"q\"}"));

    // The other routes answer too.
    let (status, _, health) = http_get(addr, "/healthz", None);
    assert_eq!((status, health.as_str()), (200, "ok\n"));
    let (status, head, queries) = http_get(addr, "/queries", None);
    assert_eq!(status, 200);
    assert!(head.contains("application/json"));
    assert!(queries.contains("\"query\":\"q\""), "{queries}");
    let (status, _, events) = http_get(addr, "/events?n=500", None);
    assert_eq!(status, 200);
    assert!(events.contains("\"kind\":\"query-registered\""), "{events}");
    let (status, _, _) = http_get(addr, "/nope", None);
    assert_eq!(status, 404);

    server.stop();
    Arc::try_unwrap(cell).ok().expect("sole owner").stop();
}

#[test]
fn http_auth_gates_everything_but_health() {
    let cell = Arc::new(
        DataCell::builder()
            .metrics(true)
            .auth_token("s3cret")
            .auto_start(true)
            .build(),
    );
    let server = HttpServer::bind(Arc::clone(&cell), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let (status, head, _) = http_get(addr, "/metrics", None);
    assert_eq!(status, 401);
    assert!(head.contains("WWW-Authenticate"), "{head}");
    let (status, _, _) = http_get(addr, "/metrics", Some("wrong"));
    assert_eq!(status, 401);
    let (status, _, _) = http_get(addr, "/metrics", Some("s3cret"));
    assert_eq!(status, 200);
    // Liveness probes stay open: orchestrators don't hold secrets.
    let (status, _, _) = http_get(addr, "/healthz", None);
    assert_eq!(status, 200);

    server.stop();
    Arc::try_unwrap(cell).ok().expect("sole owner").stop();
}

#[test]
fn http_stop_joins_in_flight_requests() {
    let cell = Arc::new(DataCell::builder().auto_start(true).build());
    let server = HttpServer::bind(Arc::clone(&cell), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    // An idle client that never sends its request: its request thread
    // sits in the read, holding the session.
    let idle = TcpStream::connect(addr).expect("connect idle");
    // Connections are accepted in order, so a completed request on a
    // second one proves the idle one was accepted and its thread spawned.
    let (status, _, _) = http_get(addr, "/healthz", None);
    assert_eq!(status, 200);
    server.stop();
    assert_eq!(
        Arc::strong_count(&cell),
        1,
        "stop joined the idle request's thread"
    );
    drop(idle);
    Arc::try_unwrap(cell).ok().expect("sole owner").stop();
}

/// Minimal TCP wire client (same shape as tests/net_integration.rs).
struct WireClient {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl WireClient {
    fn connect(addr: SocketAddr) -> WireClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        let mut c = WireClient { reader, stream };
        assert_eq!(c.read_line().as_deref(), Some("OK datacell 1"));
        c
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").expect("send");
    }

    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(_) => None,
        }
    }
}

#[test]
fn tcp_hello_auth_and_exec_introspection() {
    let cell = Arc::new(
        DataCell::builder()
            .listen("127.0.0.1:0")
            .auth_token("s3cret")
            .auto_start(true)
            .build(),
    );
    cell.execute("create basket b (x int)").unwrap();
    cell.execute("create continuous query q as select s.x from [select * from b] as s")
        .unwrap();
    let server = NetServer::start(&cell).unwrap().expect("listen configured");
    let addr = server.local_addr();

    // Unauthenticated STREAM/SUBSCRIBE/EXEC are refused; PING is fine.
    let mut c = WireClient::connect(addr);
    c.send("PING");
    assert_eq!(c.read_line().as_deref(), Some("OK PONG"));
    c.send("STREAM b");
    assert!(
        c.read_line().unwrap().starts_with("ERR auth "),
        "stream gated"
    );

    let mut c = WireClient::connect(addr);
    c.send("EXEC show queries");
    assert!(
        c.read_line().unwrap().starts_with("ERR auth "),
        "exec gated"
    );

    // A wrong token is refused and hangs up.
    let mut c = WireClient::connect(addr);
    c.send("HELLO nope");
    assert!(c.read_line().unwrap().starts_with("ERR auth "), "bad token");

    // The right token unlocks the connection for everything.
    let mut c = WireClient::connect(addr);
    c.send("HELLO s3cret");
    assert_eq!(c.read_line().as_deref(), Some("OK HELLO"));
    c.send("EXEC show queries");
    let reply = c.read_line().unwrap();
    assert!(reply.starts_with("OK EXEC rows 1 "), "{reply}");
    let row = c.read_line().unwrap();
    assert!(row.starts_with("q,"), "query row over the wire: {row}");

    // EXEC stays in the handshake state: introspect again, then commit
    // the socket to a STREAM session.
    c.send("EXEC explain analyze select s.x from [select * from b] as s");
    let reply = c.read_line().unwrap();
    assert!(reply.starts_with("OK EXEC plan "), "{reply}");
    let n: usize = reply.split_whitespace().nth(3).unwrap().parse().unwrap();
    let mut analyzed = String::new();
    for _ in 0..n {
        analyzed.push_str(&c.read_line().unwrap());
        analyzed.push('\n');
    }
    assert!(analyzed.contains("rows_out="), "{analyzed}");
    c.send("EXEC not sql at all");
    assert!(
        c.read_line().unwrap().starts_with("ERR sql "),
        "sql errors stay inline"
    );
    c.send("STREAM b");
    assert!(c.read_line().unwrap().starts_with("OK STREAM b"));

    // Without a configured token, HELLO is an accepted no-op and EXEC
    // needs no auth.
    server.stop();
    Arc::try_unwrap(cell).ok().expect("sole owner").stop();

    let open = Arc::new(
        DataCell::builder()
            .listen("127.0.0.1:0")
            .auto_start(true)
            .build(),
    );
    open.execute("create basket b (x int)").unwrap();
    let server = NetServer::start(&open).unwrap().unwrap();
    let mut c = WireClient::connect(server.local_addr());
    c.send("HELLO anything");
    assert_eq!(c.read_line().as_deref(), Some("OK HELLO"));
    c.send("EXEC show metrics");
    assert!(
        c.read_line().unwrap().starts_with("OK EXEC rows "),
        "open session execs"
    );
    server.stop();
    Arc::try_unwrap(open).ok().expect("sole owner").stop();
}
