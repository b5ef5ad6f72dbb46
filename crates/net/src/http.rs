//! [`HttpServer`]: the observability front door — a minimal HTTP/1.1
//! responder serving Prometheus metrics, health, and introspection JSON.
//!
//! This is deliberately not a web framework: the server answers exactly
//! four `GET` routes, closes the connection after every response, and is
//! built on `std::net` alone so the crate stays dependency-free:
//!
//! * `GET /metrics` — the whole [`DataCell::metrics`] snapshot in the
//!   Prometheus text exposition format, including per-query latency and
//!   firing-duration histograms;
//! * `GET /healthz` — `200 ok` while the scheduler thread is alive (and,
//!   when the session has a `data_dir`, the directory is writable),
//!   `503` otherwise;
//! * `GET /queries` — `SHOW QUERIES` as a JSON array;
//! * `GET /events?n=100` — the engine event ring as a JSON array.
//!
//! When the session was built with an
//! [`auth_token`](datacell::DataCellBuilder::auth_token), every route
//! except `/healthz` requires `Authorization: Bearer <token>` — the same
//! credential the TCP front door takes via `HELLO`. Health stays open so
//! orchestrators can probe liveness without holding secrets.
//!
//! Scrapes are intentionally **not** recorded into the engine event ring:
//! a 10 Hz scraper would evict every interesting event within seconds.
//! The scrape count is itself exported (`datacell_http_scrapes_total`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use datacell::error::{DataCellError, Result};
use datacell::metrics::MetricsSnapshot;
use datacell::{CellResult, DataCell, HistogramSnapshot, Value};
use parking_lot::Mutex;

use crate::server::AcceptLoop;

/// How long a request read may stall before the connection is dropped —
/// scrapers are fast; anything slower is a stuck peer holding a thread.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Upper bound on request head size (request line + headers).
const MAX_HEAD: u64 = 16 * 1024;

/// Default and maximum `?n=` for `/events`.
const EVENTS_DEFAULT: usize = 256;

struct HttpState {
    cell: Arc<DataCell>,
    local_addr: SocketAddr,
    scrapes: AtomicU64,
}

/// Requests being answered: each one's socket (so a stop can cut a
/// stalled read short) and its thread. Finished ones are reaped as new
/// ones arrive.
type Requests = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// The HTTP observability listener (see module docs). Stops on
/// [`HttpServer::stop`] or drop.
pub struct HttpServer {
    state: Arc<HttpState>,
    acceptor: AcceptLoop,
    requests: Requests,
}

impl HttpServer {
    /// Bind the address configured through
    /// [`DataCellBuilder::metrics_listen`](datacell::DataCellBuilder::metrics_listen);
    /// `Ok(None)` when the session has no metrics address.
    pub fn start(cell: &Arc<DataCell>) -> Result<Option<HttpServer>> {
        match cell.metrics_listen_addr().map(str::to_string) {
            Some(addr) => Self::bind(Arc::clone(cell), &addr).map(Some),
            None => Ok(None),
        }
    }

    /// Bind an explicit address (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) and start answering observability requests for `cell`.
    pub fn bind(cell: Arc<DataCell>, addr: &str) -> Result<HttpServer> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| DataCellError::Runtime(format!("http: bind {addr}: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| DataCellError::Runtime(format!("http: local_addr: {e}")))?;
        let state = Arc::new(HttpState {
            cell,
            local_addr,
            scrapes: AtomicU64::new(0),
        });
        let accept_state = Arc::clone(&state);
        let requests = Requests::default();
        let accept_requests = Arc::clone(&requests);
        let acceptor = AcceptLoop::spawn(
            format!("datacell-http-{local_addr}"),
            listener,
            Arc::new(AtomicBool::new(false)),
            move |stream, _peer| {
                let Ok(socket) = stream.try_clone() else {
                    return;
                };
                let conn_state = Arc::clone(&accept_state);
                let spawned = std::thread::Builder::new()
                    .name("datacell-http-conn".into())
                    .spawn(move || {
                        handle_request(&conn_state, &stream);
                        // The registry's clone keeps the socket open: close
                        // it explicitly so the client sees the response end.
                        let _ = stream.shutdown(Shutdown::Both);
                    });
                if let Ok(handle) = spawned {
                    let mut requests = accept_requests.lock();
                    requests.retain(|(_, h)| !h.is_finished());
                    requests.push((socket, handle));
                }
            },
        )
        .map_err(|e| DataCellError::Runtime(format!("http: spawn accept loop: {e}")))?;
        Ok(HttpServer {
            state,
            acceptor,
            requests,
        })
    }

    /// The bound address (resolves port `0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// `/metrics` responses served so far.
    pub fn scrapes(&self) -> u64 {
        self.state.scrapes.load(Ordering::Relaxed)
    }

    /// Stop accepting, shut every in-flight request's socket and join
    /// all threads: once it returns, no thread of the server holds the
    /// session. Dropping the server does the same.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.acceptor.stop();
        let requests: Vec<_> = self.requests.lock().drain(..).collect();
        for (socket, _) in &requests {
            // Unblocks a read waiting on a silent client.
            let _ = socket.shutdown(Shutdown::Both);
        }
        for (_, handle) in requests {
            let _ = handle.join();
        }
    }
}

/// Read one request head, route it, write one response, close.
fn handle_request(state: &Arc<HttpState>, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = stream;
    let mut reader = BufReader::new(stream.take(MAX_HEAD));
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() || request_line.trim().is_empty() {
        return;
    }
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        let _ = respond(writer, 400, "text/plain", "bad request\n");
        return;
    };
    let method = method.to_string();
    let target = target.to_string();
    // Drain headers, keeping the one we care about.
    let mut bearer: Option<String> = None;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim().is_empty() => break,
            Ok(_) => {
                if let Some((name, value)) = line.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("authorization") {
                        let v = value.trim();
                        if let Some(tok) = v
                            .strip_prefix("Bearer ")
                            .or_else(|| v.strip_prefix("bearer "))
                        {
                            bearer = Some(tok.trim().to_string());
                        }
                    }
                }
            }
            Err(_) => return,
        }
    }
    if method != "GET" {
        let _ = respond(writer, 405, "text/plain", "method not allowed\n");
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target.as_str(), None),
    };
    // /healthz stays open (liveness probes don't hold secrets); everything
    // else honors the session token when one is configured.
    if path != "/healthz" {
        if let Some(expected) = state.cell.auth_token() {
            if bearer.as_deref() != Some(expected) {
                let _ = writer.write_all(
                    concat!(
                        "HTTP/1.1 401 Unauthorized\r\n",
                        "WWW-Authenticate: Bearer\r\n",
                        "Content-Type: text/plain\r\n",
                        "Content-Length: 13\r\n",
                        "Connection: close\r\n\r\n",
                        "unauthorized\n"
                    )
                    .as_bytes(),
                );
                return;
            }
        }
    }
    match path {
        "/metrics" => {
            state.scrapes.fetch_add(1, Ordering::Relaxed);
            let body =
                render_prometheus(&state.cell.metrics(), state.scrapes.load(Ordering::Relaxed));
            let _ = respond(writer, 200, "text/plain; version=0.0.4", &body);
        }
        "/healthz" => {
            let (code, body) = healthz(&state.cell);
            let _ = respond(writer, code, "text/plain", &body);
        }
        "/queries" => {
            let body = match state.cell.execute("show queries") {
                Ok(CellResult::Rows(chunk)) => chunk_to_json(&chunk),
                Ok(_) | Err(_) => "[]".to_string(),
            };
            let _ = respond(writer, 200, "application/json", &body);
        }
        "/events" => {
            let n = query
                .and_then(|q| {
                    q.split('&')
                        .find_map(|kv| kv.strip_prefix("n="))
                        .and_then(|v| v.parse::<usize>().ok())
                })
                .unwrap_or(EVENTS_DEFAULT);
            let mut body = String::from("[");
            for (i, e) in state.cell.recent_events_n(n).iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    "{{\"seq\":{},\"at_micros\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
                    e.seq,
                    e.at_micros,
                    e.kind.label(),
                    json_escape(&e.detail)
                ));
            }
            body.push(']');
            let _ = respond(writer, 200, "application/json", &body);
        }
        _ => {
            let _ = respond(writer, 404, "text/plain", "not found\n");
        }
    }
}

/// Liveness: the scheduler thread must be running and, when the session
/// persists anything, the data directory must accept writes.
fn healthz(cell: &DataCell) -> (u16, String) {
    if !cell.is_running() {
        return (503, "scheduler stopped\n".into());
    }
    if let Some(dir) = cell.data_dir() {
        let probe = dir.join(".healthz.probe");
        match std::fs::write(&probe, b"ok") {
            Ok(()) => {
                let _ = std::fs::remove_file(&probe);
            }
            Err(e) => return (503, format!("data_dir unwritable: {e}\n")),
        }
    }
    (200, "ok\n".into())
}

fn respond(mut w: &TcpStream, code: u16, content_type: &str, body: &str) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    write!(
        w,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    w.write_all(body.as_bytes())
}

/// Render the full metrics snapshot in the Prometheus text format.
fn render_prometheus(snap: &MetricsSnapshot, scrapes: u64) -> String {
    let mut out = String::with_capacity(4096);
    let m = &mut out;
    push_meta(
        m,
        "datacell_build_info",
        "gauge",
        "Build metadata; value is always 1.",
    );
    m.push_str(&format!(
        "datacell_build_info{{version=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION")
    ));
    push_gauge_f(
        m,
        "datacell_uptime_seconds",
        "Seconds since the session was built.",
        snap.uptime_micros as f64 / 1e6,
    );
    push_counter(
        m,
        "datacell_tuples_ingested_total",
        "Tuples accepted by stream writers.",
        snap.tuples_ingested,
    );
    push_counter(
        m,
        "datacell_tuples_delivered_total",
        "Tuples delivered to subscriptions.",
        snap.tuples_delivered,
    );
    push_counter(
        m,
        "datacell_tuples_shed_total",
        "Tuples dropped by shed-oldest baskets.",
        snap.tuples_shed,
    );
    push_counter(
        m,
        "datacell_overflow_events_total",
        "Appends that hit a full bounded basket.",
        snap.overflow_events,
    );
    push_counter(
        m,
        "datacell_scheduler_passes_total",
        "Scheduler passes executed.",
        snap.scheduler_passes,
    );
    push_counter(
        m,
        "datacell_factory_firings_total",
        "Factory firings.",
        snap.factory_firings,
    );
    push_counter(
        m,
        "datacell_factory_errors_total",
        "Factory step errors.",
        snap.factory_errors,
    );
    push_counter(
        m,
        "datacell_factory_deferrals_total",
        "Factory steps deferred by backpressure.",
        snap.factory_deferrals,
    );
    push_counter(
        m,
        "datacell_firings_parallel_total",
        "Firings dispatched to the worker pool.",
        snap.firings_parallel,
    );
    push_counter(
        m,
        "datacell_worker_steals_total",
        "Firings stolen between pool workers.",
        snap.steals,
    );
    push_gauge_f(
        m,
        "datacell_scheduler_workers",
        "Configured scheduler worker threads.",
        snap.workers as f64,
    );
    push_gauge_f(
        m,
        "datacell_shared_subplans",
        "Active shared subplan nodes (plan sharing).",
        snap.shared_subplans as f64,
    );
    push_counter(
        m,
        "datacell_http_scrapes_total",
        "Responses served from /metrics.",
        scrapes,
    );
    if snap.latency.count > 0 {
        push_meta(
            m,
            "datacell_delivery_latency_seconds",
            "histogram",
            "Output-basket entry to delivery latency, all queries (input-basket entry for a query that projects ts).",
        );
        render_histogram(m, "datacell_delivery_latency_seconds", "", &snap.latency);
    }
    for (query, h) in &snap.per_query_latency {
        let label = format!("query=\"{}\",", label_escape(query));
        push_meta(
            m,
            "datacell_query_latency_seconds",
            "histogram",
            "Output-basket entry to delivery latency per continuous query (input-basket entry when it projects ts).",
        );
        render_histogram(m, "datacell_query_latency_seconds", &label, h);
    }
    for q in &snap.per_query {
        let label = label_escape(&q.name);
        m.push_str(&format!(
            "datacell_query_firings_total{{query=\"{label}\"}} {}\n",
            q.firings
        ));
        m.push_str(&format!(
            "datacell_query_tuples_in_total{{query=\"{label}\"}} {}\n",
            q.tuples_in
        ));
        m.push_str(&format!(
            "datacell_query_busy_seconds_total{{query=\"{label}\"}} {}\n",
            q.busy_micros as f64 / 1e6
        ));
        m.push_str(&format!(
            "datacell_query_deferrals_total{{query=\"{label}\"}} {}\n",
            q.deferrals
        ));
        m.push_str(&format!(
            "datacell_query_weight{{query=\"{label}\"}} {}\n",
            q.weight
        ));
        m.push_str(&format!(
            "datacell_query_undelivered{{query=\"{label}\"}} {}\n",
            q.undelivered
        ));
        if q.firing_micros.count > 0 {
            render_histogram(
                m,
                "datacell_firing_duration_seconds",
                &format!("query=\"{label}\","),
                &q.firing_micros,
            );
        }
    }
    if let Some(net) = &snap.net {
        push_counter(
            m,
            "datacell_net_connections_accepted_total",
            "TCP connections accepted.",
            net.connections_accepted,
        );
        push_gauge_f(
            m,
            "datacell_net_connections_active",
            "TCP connections currently open.",
            net.connections_active as f64,
        );
        push_counter(
            m,
            "datacell_net_tuples_in_total",
            "Tuples ingested over STREAM connections.",
            net.tuples_in,
        );
        push_counter(
            m,
            "datacell_net_tuples_out_total",
            "Tuples delivered over SUBSCRIBE connections.",
            net.tuples_out,
        );
        push_counter(
            m,
            "datacell_net_lines_rejected_total",
            "Malformed ingest lines refused.",
            net.lines_rejected,
        );
        push_counter(
            m,
            "datacell_net_ingest_appends_total",
            "Basket appends by STREAM connections (tuples_in / appends = batch size).",
            net.ingest_appends,
        );
    }
    if let Some(s) = &snap.storage {
        push_counter(
            m,
            "datacell_storage_tuples_spilled_total",
            "Tuples written into spill segments.",
            s.tuples_spilled,
        );
        push_counter(
            m,
            "datacell_storage_segments_written_total",
            "Segments sealed to disk.",
            s.segments_written,
        );
        push_counter(
            m,
            "datacell_storage_segments_read_total",
            "Segment files decoded back.",
            s.segments_read,
        );
        push_counter(
            m,
            "datacell_storage_segments_deleted_total",
            "Segment files deleted.",
            s.segments_deleted,
        );
        push_gauge_f(
            m,
            "datacell_storage_bytes_on_disk",
            "Live bytes across segment files.",
            s.bytes_on_disk as f64,
        );
        push_counter(
            m,
            "datacell_storage_tuples_recovered_total",
            "Tuples restored by WAL recovery.",
            s.tuples_recovered,
        );
        push_counter(
            m,
            "datacell_storage_wal_syncs_total",
            "WAL fdatasync calls (one group commit can cover many appends).",
            s.wal_syncs,
        );
    }
    out
}

fn push_meta(out: &mut String, name: &str, kind: &str, help: &str) {
    // Repeated TYPE lines for the same family (per-query histograms) are
    // tolerated by Prometheus parsers but ugly; emit each family's header
    // only once.
    let header = format!("# TYPE {name} {kind}\n");
    if !out.contains(&header) {
        out.push_str(&format!("# HELP {name} {help}\n"));
        out.push_str(&header);
    }
}

fn push_counter(out: &mut String, name: &str, help: &str, v: u64) {
    push_meta(out, name, "counter", help);
    out.push_str(&format!("{name} {v}\n"));
}

fn push_gauge_f(out: &mut String, name: &str, help: &str, v: f64) {
    push_meta(out, name, "gauge", help);
    out.push_str(&format!("{name} {v}\n"));
}

/// Render one histogram family instance. `labels` is either empty or a
/// `key="value",`-style prefix (trailing comma included) merged before the
/// `le` label. Bounds are converted from microseconds to seconds.
fn render_histogram(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let last = h
        .buckets
        .iter()
        .rposition(|(_, c)| *c > 0)
        .map_or(0, |i| i + 1);
    let mut cum = 0u64;
    for (bound, count) in h.buckets.iter().take(last) {
        cum += count;
        out.push_str(&format!(
            "{name}_bucket{{{labels}le=\"{}\"}} {cum}\n",
            *bound as f64 / 1e6
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{{{labels}le=\"+Inf\"}} {}\n",
        h.count
    ));
    let bare = labels.trim_end_matches(',');
    if bare.is_empty() {
        out.push_str(&format!("{name}_sum {}\n", h.sum_micros as f64 / 1e6));
        out.push_str(&format!("{name}_count {}\n", h.count));
    } else {
        out.push_str(&format!(
            "{name}_sum{{{bare}}} {}\n",
            h.sum_micros as f64 / 1e6
        ));
        out.push_str(&format!("{name}_count{{{bare}}} {}\n", h.count));
    }
}

/// Render a result chunk as a JSON array of objects keyed by column name.
fn chunk_to_json(chunk: &datacell::Chunk) -> String {
    let mut out = String::from("[");
    for i in 0..chunk.len() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        for (j, cd) in chunk.schema.columns.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", json_escape(&cd.name)));
            match chunk.columns[j].get(i).unwrap_or(Value::Nil) {
                Value::Nil => out.push_str("null"),
                Value::Int(v) => out.push_str(&v.to_string()),
                Value::Float(v) if v.is_finite() => out.push_str(&v.to_string()),
                Value::Float(_) => out.push_str("null"),
                Value::Bool(v) => out.push_str(if v { "true" } else { "false" }),
                Value::Str(s) => out.push_str(&format!("\"{}\"", json_escape(&s))),
                Value::Timestamp(v) => out.push_str(&v.to_string()),
            }
        }
        out.push('}');
    }
    out.push(']');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Escape a Prometheus label value (quote, backslash, newline).
fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell::metrics::NetMetricsSnapshot;

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let h = HistogramSnapshot {
            buckets: vec![(2, 1), (4, 2), (8, 0), (16, 3)],
            count: 6,
            sum_micros: 40,
            max_micros: 12,
        };
        let mut out = String::new();
        render_histogram(&mut out, "x_seconds", "", &h);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "x_seconds_bucket{le=\"0.000002\"} 1");
        assert_eq!(lines[1], "x_seconds_bucket{le=\"0.000004\"} 3");
        assert_eq!(lines[2], "x_seconds_bucket{le=\"0.000008\"} 3");
        assert_eq!(lines[3], "x_seconds_bucket{le=\"0.000016\"} 6");
        assert_eq!(lines[4], "x_seconds_bucket{le=\"+Inf\"} 6");
        assert_eq!(lines[5], "x_seconds_sum 0.00004");
        assert_eq!(lines[6], "x_seconds_count 6");
    }

    #[test]
    fn histogram_renders_labels() {
        let h = HistogramSnapshot {
            buckets: vec![(2, 5)],
            count: 5,
            sum_micros: 5,
            max_micros: 1,
        };
        let mut out = String::new();
        render_histogram(&mut out, "y_seconds", "query=\"q1\",", &h);
        assert!(out.contains("y_seconds_bucket{query=\"q1\",le=\"0.000002\"} 5"));
        assert!(out.contains("y_seconds_bucket{query=\"q1\",le=\"+Inf\"} 5"));
        assert!(out.contains("y_seconds_sum{query=\"q1\"} 0.000005"));
        assert!(out.contains("y_seconds_count{query=\"q1\"} 5"));
    }

    #[test]
    fn net_family_exports_ingest_appends() {
        let snap = MetricsSnapshot {
            net: Some(NetMetricsSnapshot {
                tuples_in: 4096,
                ingest_appends: 3,
                ..Default::default()
            }),
            ..Default::default()
        };
        let body = render_prometheus(&snap, 0);
        assert!(
            body.contains("\ndatacell_net_tuples_in_total 4096\n"),
            "{body}"
        );
        assert!(
            body.contains("\ndatacell_net_ingest_appends_total 3\n"),
            "{body}"
        );
    }

    #[test]
    fn escapes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(label_escape("q\"1\\x"), "q\\\"1\\\\x");
    }
}
