//! The one file that touches the engine. Every call into `net`,
//! `datacell::{text,basket,scheduler,factory,window_join,emitter,
//! planshare}`, `exec`, `engine`/`bat`, `sql`, `storage` and `baseline`
//! goes through here, from outside and through public items only, so an
//! API move has one place to follow. The rest of the benchmark sees rows
//! of `i64`, bytes, and plain counters.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::basket::ReaderId;
use datacell::{text, Basket, Chunk, DataCell, StreamWriter, Subscription, Value};
use datacell_baseline::{Query, Selection, Tuple, TupleEngine};
use datacell_bat::aggregate::{grouped_agg, AggFunc};
use datacell_bat::group::group_by;
use datacell_bat::join::hash_join;
use datacell_bat::select::select_range;
use datacell_bat::{Bat, Column, DataType};
use datacell_net::NetServer;
use datacell_sql::Schema;
use datacell_storage::{codec, SegmentStore, Wal};

use crate::oracle::{multi_range, Acc, Digest, Input, FILTER_BOUND, JOIN_WINDOW, QUERIES};
use crate::spec::{Kind, BASKET_CAPACITY, REPLAY_BATCH, SPILL_ROWS};
use crate::trace::{Tracer, ROOT};

// ------------------------------------------------------------ pipelines

/// The SQL of one workload: its baskets, its continuous queries, and how
/// input rows are dealt to the input baskets (row `i` goes to basket
/// `i % inputs.len()`).
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub kind: Kind,
    pub ddl: Vec<String>,
    pub queries: Vec<(String, String)>,
    pub inputs: Vec<&'static str>,
    /// 16 consuming queries over one basket would split its tuples among
    /// them; sharing the scan prefix is how the engine gives every query
    /// every tuple, so the multi-query workload turns plan sharing on.
    pub plan_sharing: bool,
    /// Span name of the transition's busy time inside a scheduler drive.
    pub step_span: &'static str,
}

pub fn pipeline(kind: Kind, durable: bool) -> Pipeline {
    let storage = if durable {
        format!(" overflow spill {SPILL_ROWS} persistent")
    } else {
        String::new()
    };
    let stream = format!("create basket s (k int, v int, sent_us int){storage}");
    match kind {
        Kind::Filter => Pipeline {
            kind,
            ddl: vec![stream],
            queries: vec![(
                "q".into(),
                format!(
                    "select s2.k, s2.v, s2.sent_us from [select * from s] as s2 \
                     where s2.v < {FILTER_BOUND}"
                ),
            )],
            inputs: vec!["s"],
            plan_sharing: false,
            step_span: "factory.step",
        },
        Kind::Multi => Pipeline {
            kind,
            ddl: vec![stream],
            queries: (0..QUERIES)
                .map(|i| {
                    let (lo, hi) = multi_range(i);
                    (
                        format!("q{i}"),
                        format!(
                            "select s2.k, count(*), sum(s2.v), max(s2.sent_us) \
                             from [select * from s] as s2 \
                             where s2.v between {lo} and {hi} group by s2.k"
                        ),
                    )
                })
                .collect(),
            inputs: vec!["s"],
            plan_sharing: true,
            step_span: "factory.step",
        },
        Kind::Join => Pipeline {
            kind,
            ddl: vec![
                "create basket trades (k int, seq int)".into(),
                "create basket quotes (k int, seq int)".into(),
            ],
            queries: vec![(
                "j".into(),
                format!(
                    "select t.k, t.seq, q.seq from trades t [rows {JOIN_WINDOW}], \
                     quotes q [rows {JOIN_WINDOW}] where t.k = q.k"
                ),
            )],
            inputs: vec!["trades", "quotes"],
            plan_sharing: false,
            step_span: "window_join.step",
        },
    }
}

/// Build a cell the way every workload does: builder defaults plus the
/// basket capacity, and only what the workload needs on top.
fn build_cell(p: &Pipeline, listen: bool, data_dir: Option<&Path>) -> DataCell {
    let mut b = DataCell::builder()
        .basket_capacity(BASKET_CAPACITY)
        .plan_sharing(p.plan_sharing);
    if listen {
        b = b.listen("127.0.0.1:0");
    }
    if let Some(dir) = data_dir {
        b = b.data_dir(dir);
    }
    b.try_build().expect("build DataCell")
}

/// Run the DDL and register the queries; returns ms per registered query.
fn declare(cell: &DataCell, p: &Pipeline) -> f64 {
    for ddl in &p.ddl {
        cell.execute(ddl).expect("create basket");
    }
    let t = Instant::now();
    for (name, select) in &p.queries {
        cell.continuous_query(name, select)
            .expect("register continuous query");
    }
    t.elapsed().as_secs_f64() * 1e3 / p.queries.len() as f64
}

fn ints(row: &[i64]) -> Vec<Value> {
    row.iter().map(|&v| Value::Int(v)).collect()
}

// --------------------------------------------------------- wire format

/// Tuples pre-rendered to wire bytes, one `a,b,c\n` line per row.
#[derive(Debug, Default)]
pub struct Lines {
    bytes: Vec<u8>,
    /// End offset of each line (exclusive, past its `\n`).
    ends: Vec<u32>,
}

impl Lines {
    pub fn range(&self, from: usize, to: usize) -> &[u8] {
        let at = |i: usize| if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[at(from)..at(to)]
    }

    fn line(&self, i: usize) -> &str {
        let raw = self.range(i, i + 1);
        std::str::from_utf8(&raw[..raw.len() - 1]).expect("rendered ascii")
    }
}

impl Lines {
    /// Render `input` onto the end.
    fn push_rows(&mut self, input: &Input) {
        for row in input.rows() {
            for (c, v) in row.iter().enumerate() {
                if c > 0 {
                    self.bytes.push(b',');
                }
                write!(self.bytes, "{v}").expect("write to Vec");
            }
            self.bytes.push(b'\n');
            self.ends
                .push(u32::try_from(self.bytes.len()).expect("a phase renders to under 4 GiB"));
        }
    }
}

pub fn render_lines(input: &Input) -> Lines {
    let mut lines = Lines::default();
    lines.push_rows(input);
    lines
}

/// One phase's tuples in the form the producer sends them: typed rows in
/// process, pre-rendered bytes (and no rows) over the wire. One `Feed`
/// serves every phase of a run: it is cleared and refilled, never freed
/// while the engine runs — freeing buffers of this size moves the
/// allocator's mmap and trim thresholds, and with them the engine's speed.
#[derive(Debug)]
pub struct Feed {
    wire: bool,
    rows: Input,
    lines: Lines,
}

impl Feed {
    /// An empty feed with room for `rows` tuples of `width` columns.
    pub fn with_capacity(wire: bool, width: usize, rows: usize) -> Feed {
        let mut feed = Feed {
            wire,
            rows: Input {
                width,
                data: Vec::new(),
            },
            lines: Lines::default(),
        };
        if wire {
            // ~7 bytes a field; a longer phase grows the buffer in place.
            feed.lines.bytes.reserve(rows * width * 8);
            feed.lines.ends.reserve(rows);
        } else {
            feed.rows.data.reserve(rows * width);
        }
        feed
    }

    pub fn clear(&mut self) {
        self.rows.data.clear();
        self.lines.bytes.clear();
        self.lines.ends.clear();
    }

    /// Append the next piece of the phase.
    pub fn push(&mut self, piece: &Input) {
        if self.wire {
            self.lines.push_rows(piece);
        } else {
            self.rows.extend_from(piece, piece.len());
        }
    }

    pub fn len(&self) -> usize {
        if self.wire {
            self.lines.ends.len()
        } else {
            self.rows.len()
        }
    }
}

/// Parse one result line of comma-separated ints into `out`; returns the
/// field count, or `None` for anything else (which the caller counts as a
/// wrong result).
fn parse_int_line(line: &[u8], out: &mut [i64; 4]) -> Option<usize> {
    let mut n = 0;
    for field in line.split(|&b| b == b',') {
        let slot = out.get_mut(n)?;
        *slot = std::str::from_utf8(field).ok()?.trim().parse().ok()?;
        n += 1;
    }
    Some(n)
}

// ------------------------------------------------------------- engine

/// A running engine: cell, scheduler thread, and the TCP front door when
/// the workload is a wire one.
pub struct Engine {
    cell: Arc<DataCell>,
    server: Option<NetServer>,
    inputs: Vec<Arc<Basket>>,
    outputs: Vec<Arc<Basket>>,
    queries: Vec<String>,
    /// ms per continuous query registered during set-up.
    pub register_ms: f64,
}

/// Flattened `DataCell::metrics()`: only what the benchmark reports.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub workers: usize,
    pub passes: u64,
    pub firings: u64,
    pub tuples_in: u64,
    pub busy_us: u64,
    pub sched_delay_us: u64,
    pub deferrals: u64,
    pub firings_parallel: u64,
    pub steals: u64,
    pub worker_busy_mean: f64,
    pub overflow_events: u64,
    pub shared_subplans: u64,
    pub net_in: u64,
    pub net_out: u64,
    pub net_rejected: u64,
    pub spilled: u64,
    pub segments_written: u64,
    pub segments_read: u64,
    pub bytes_on_disk: u64,
}

impl Engine {
    /// Set-up as the issue defines it, minus the client connections:
    /// build the cell, declare baskets and queries, start the scheduler
    /// and the server.
    pub fn open(p: &Pipeline, listen: bool, data_dir: Option<&Path>) -> Engine {
        let cell = Arc::new(build_cell(p, listen, data_dir));
        let register_ms = declare(&cell, p);
        cell.start();
        let server = NetServer::start(&cell).expect("start NetServer");
        assert_eq!(server.is_some(), listen);
        let inputs = p
            .inputs
            .iter()
            .map(|b| cell.basket(b).expect("input basket"))
            .collect();
        let outputs = p
            .queries
            .iter()
            .map(|(q, _)| cell.query_output(q).expect("output basket"))
            .collect();
        Engine {
            cell,
            server,
            inputs,
            outputs,
            queries: p.queries.iter().map(|(q, _)| q.clone()).collect(),
            register_ms,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("wire workload").local_addr()
    }

    /// Connect the two generator ends: one producer, one consumer. Both
    /// sockets are opened before either handshake, so the server's accept
    /// loop (which polls every 2 ms) picks them up in one wake-up; the
    /// consumer subscribes first, so its reader sees every tuple.
    pub fn connect(&self, wire: bool) -> (Producer, Consumer) {
        if wire {
            let open = || TcpStream::connect(self.addr()).expect("connect");
            let (subscribe, stream) = (open(), open());
            let consumer = WireConsumer::handshake(subscribe, &self.queries[0]);
            let producer = WireProducer::handshake(stream, self.inputs[0].name());
            (Producer::Wire(producer), Consumer::Wire(consumer))
        } else {
            let subs = self
                .queries
                .iter()
                .map(|q| self.cell.subscribe::<Vec<Value>>(q).expect("subscribe"))
                .collect();
            let writers = self
                .inputs
                .iter()
                .map(|b| self.cell.writer(b.name()).expect("writer"))
                .collect();
            (
                Producer::Rows {
                    writers,
                    rejected: 0,
                },
                Consumer::Rows { subs },
            )
        }
    }

    /// Tuples waiting in the input baskets / the output baskets.
    pub fn in_backlog(&self) -> usize {
        self.inputs.iter().map(|b| b.len()).sum()
    }

    pub fn out_backlog(&self) -> usize {
        self.outputs.iter().map(|b| b.len()).sum()
    }

    pub fn counters(&self) -> Counters {
        let m = self.cell.metrics();
        let mut c = Counters {
            workers: m.workers,
            passes: m.scheduler_passes,
            firings: m.factory_firings,
            deferrals: m.factory_deferrals,
            firings_parallel: m.firings_parallel,
            steals: m.steals,
            overflow_events: m.overflow_events,
            shared_subplans: m.shared_subplans,
            ..Counters::default()
        };
        if !m.worker_busy.is_empty() {
            c.worker_busy_mean = m.worker_busy.iter().sum::<f64>() / m.worker_busy.len() as f64;
        }
        for q in &m.per_query {
            c.tuples_in += q.tuples_in;
            c.busy_us += q.busy_micros;
            c.sched_delay_us += q.sched_delay_micros;
        }
        if let Some(n) = &m.net {
            c.net_in = n.tuples_in;
            c.net_out = n.tuples_out;
            c.net_rejected = n.lines_rejected;
        }
        if let Some(s) = &m.storage {
            c.spilled = s.tuples_spilled;
            c.segments_written = s.segments_written;
            c.segments_read = s.segments_read;
            c.bytes_on_disk = s.bytes_on_disk;
        }
        c
    }

    /// Stop firing the queries: input acknowledged from here on stays in
    /// the input basket, undelivered.
    pub fn pause_queries(&self) {
        for q in &self.queries {
            self.cell.pause_query(q).expect("pause query");
        }
    }

    /// Stop the server and the scheduler, joining their threads.
    pub fn close(self) {
        if let Some(server) = self.server {
            server.stop();
        }
        self.cell.stop();
    }
}

/// What `recover()` brought back on a fresh cell over `data_dir`.
pub struct Recovered {
    pub seconds: f64,
    /// Rows of the recovered input basket, row-major.
    pub rows: Input,
}

pub fn recover(p: &Pipeline, data_dir: &Path) -> Recovered {
    let cell = build_cell(p, false, Some(data_dir));
    let t = Instant::now();
    cell.recover().expect("recover");
    let seconds = t.elapsed().as_secs_f64();
    let mut rows = Input {
        width: 3,
        data: Vec::new(),
    };
    if let Ok(basket) = cell.basket(p.inputs[0]) {
        let reader = basket.register_reader(true);
        loop {
            let (chunk, start, end) = basket.claim_for_reader(reader, usize::MAX);
            if start == end {
                break;
            }
            append_int_rows(&chunk, basket.user_width(), &mut rows.data);
        }
    }
    cell.stop();
    Recovered { seconds, rows }
}

fn append_int_rows(chunk: &Chunk, width: usize, out: &mut Vec<i64>) {
    let cols: Vec<&[i64]> = chunk.columns[..width]
        .iter()
        .map(|c| c.as_ints().expect("int column"))
        .collect();
    for i in 0..chunk.len() {
        out.extend(cols.iter().map(|c| c[i]));
    }
}

// ----------------------------------------------------- generator ends

fn expect_ok(reader: &mut BufReader<TcpStream>, what: &str) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect(what);
    assert!(line.starts_with("OK "), "{what}: {line:?}");
    line
}

pub struct WireProducer {
    stream: TcpStream,
    replies: BufReader<TcpStream>,
}

impl WireProducer {
    fn handshake(stream: TcpStream, basket: &str) -> Self {
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let mut replies = BufReader::new(stream.try_clone().expect("clone socket"));
        expect_ok(&mut replies, "greeting");
        writeln!(&stream, "STREAM {basket}").expect("send STREAM");
        expect_ok(&mut replies, "stream ack");
        WireProducer { stream, replies }
    }
}

pub struct WireConsumer {
    stream: TcpStream,
    buf: Vec<u8>,
    filled: usize,
}

impl WireConsumer {
    fn handshake(stream: TcpStream, query: &str) -> Self {
        let mut replies = BufReader::new(stream.try_clone().expect("clone socket"));
        expect_ok(&mut replies, "greeting");
        writeln!(&stream, "SUBSCRIBE {query}").expect("send SUBSCRIBE");
        expect_ok(&mut replies, "subscribe ack");
        // Nothing follows the ack until tuples flow, so the BufReader
        // holds no result bytes and can be dropped.
        assert!(replies.buffer().is_empty());
        stream
            .set_read_timeout(Some(POLL_WAIT))
            .expect("read timeout");
        WireConsumer {
            stream,
            buf: vec![0; 1 << 16],
            filled: 0,
        }
    }
}

/// How long one `Consumer::poll` waits for data before returning empty.
const POLL_WAIT: Duration = Duration::from_millis(20);
/// Sleep of the in-process consumer when all 16 subscriptions are empty.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

/// The sending end of the load generator.
pub enum Producer {
    Wire(WireProducer),
    Rows {
        writers: Vec<StreamWriter>,
        rejected: u64,
    },
}

impl Producer {
    /// Send rows `from..to` of the phase: pre-rendered bytes over the
    /// socket, or typed rows dealt to the writers and flushed.
    pub fn send(&mut self, feed: &Feed, from: usize, to: usize) {
        match self {
            Producer::Wire(p) => {
                p.stream
                    .write_all(feed.lines.range(from, to))
                    .expect("write tuples");
            }
            Producer::Rows { writers, rejected } => {
                let n = writers.len();
                for i in from..to {
                    if writers[i % n].append(ints(feed.rows.row(i))).is_err() {
                        *rejected += 1;
                    }
                }
                for w in writers.iter_mut() {
                    w.flush().expect("flush writer");
                }
            }
        }
    }

    /// Make everything sent so far resident in the engine and return the
    /// cumulative `(accepted, rejected)` tuple counts: `SYNC` → `OK SYNC`
    /// over the wire, `flush` + writer counters in process.
    pub fn sync(&mut self) -> (u64, u64) {
        match self {
            Producer::Wire(p) => {
                p.stream.write_all(b"SYNC\n").expect("send SYNC");
                loop {
                    let mut line = String::new();
                    let n = p.replies.read_line(&mut line).expect("read SYNC reply");
                    assert!(n > 0, "server closed the producer connection");
                    // `ERR decode` replies to rejected lines arrive first.
                    if let Some(rest) = line.strip_prefix("OK SYNC ") {
                        let mut it = rest.split_whitespace().map(|f| f.parse::<u64>());
                        match (it.next(), it.next()) {
                            (Some(Ok(a)), Some(Ok(r))) => return (a, r),
                            _ => panic!("malformed SYNC reply {line:?}"),
                        }
                    }
                }
            }
            Producer::Rows { writers, rejected } => {
                let mut accepted = 0;
                for w in writers.iter_mut() {
                    w.flush().expect("flush writer");
                    accepted += w.stats().appended;
                }
                (accepted, *rejected)
            }
        }
    }
}

/// The receiving end of the load generator.
pub enum Consumer {
    Wire(WireConsumer),
    Rows { subs: Vec<Subscription<Vec<Value>>> },
}

/// Outcome of one poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// This many rows were handed to the callback.
    Rows(usize),
    /// The engine closed the result stream.
    Closed,
}

impl Consumer {
    /// Receive what is there (waiting briefly when nothing is) and hand
    /// each result row to `on_row(query, row, received_us)`, where
    /// `received_us` is the time since `clock` at which the row reached
    /// this process. A malformed row is handed over empty.
    pub fn poll(&mut self, clock: Instant, on_row: &mut dyn FnMut(usize, &[i64], u64)) -> Poll {
        match self {
            Consumer::Wire(c) => {
                let n = match c.stream.read(&mut c.buf[c.filled..]) {
                    Ok(0) => return Poll::Closed,
                    Ok(n) => n,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock
                                | std::io::ErrorKind::TimedOut
                                | std::io::ErrorKind::Interrupted
                        ) =>
                    {
                        return Poll::Rows(0)
                    }
                    Err(_) => return Poll::Closed,
                };
                let now = clock.elapsed().as_micros() as u64;
                c.filled += n;
                let mut rows = 0;
                let mut start = 0;
                let mut fields = [0i64; 4];
                while let Some(nl) = c.buf[start..c.filled].iter().position(|&b| b == b'\n') {
                    let line = &c.buf[start..start + nl];
                    let width = parse_int_line(line, &mut fields).unwrap_or(0);
                    on_row(0, &fields[..width], now);
                    rows += 1;
                    start += nl + 1;
                }
                c.buf.copy_within(start..c.filled, 0);
                c.filled -= start;
                Poll::Rows(rows)
            }
            Consumer::Rows { subs } => {
                let mut rows = 0;
                let mut fields = [0i64; 4];
                for (q, sub) in subs.iter().enumerate() {
                    loop {
                        match sub.try_next() {
                            Ok(Some(row)) => {
                                let now = clock.elapsed().as_micros() as u64;
                                let mut width = 0;
                                for (slot, v) in fields.iter_mut().zip(&row) {
                                    match v.as_int() {
                                        Some(i) => *slot = i,
                                        None => break,
                                    }
                                    width += 1;
                                }
                                let ok = width == row.len();
                                on_row(q, &fields[..if ok { width } else { 0 }], now);
                                rows += 1;
                            }
                            Ok(None) => break,
                            Err(_) => return Poll::Closed,
                        }
                    }
                }
                if rows == 0 {
                    std::thread::sleep(IDLE_SLEEP);
                }
                Poll::Rows(rows)
            }
        }
    }
}

// -------------------------------------------------------------- replay

/// What one replay did.
#[derive(Debug, Clone, Copy)]
pub struct Replayed {
    pub tuples: u64,
    pub out_rows: u64,
    pub wall_ns: u64,
    pub digest: Digest,
}

/// Span names of the stages on the path of a tuple, in path order. The
/// text stages of an in-process workload are measured too, on the same
/// rows, but under `direct.*` names that the path sum leaves out.
pub const PATH_STAGES: [&str; 8] = [
    "text.decode",
    "basket.append",
    "scheduler.run",
    "factory.step",
    "window_join.step",
    "basket.claim_commit",
    "emitter.rows",
    "text.encode",
];

/// Replay `input` through `p` single-threaded with the scheduler
/// stopped, the benchmark itself playing receptor and emitter, batch by
/// batch, each public call inside a span:
/// `parse_tuple` → `Basket::append_rows` → `run_until_quiescent` (child:
/// the transitions' busy-time delta) → `claim_for_reader`/`commit_claim`
/// → row materialisation → `render_row`. This is also the job's
/// single-threaded baseline.
pub fn replay(
    p: &Pipeline,
    input: &Input,
    lines: &Lines,
    text_on_path: bool,
    data_dir: Option<&Path>,
    tr: &mut Tracer,
) -> Replayed {
    let cell = build_cell(p, false, data_dir);
    declare(&cell, p);
    let ins: Vec<(Arc<Basket>, Schema)> = p
        .inputs
        .iter()
        .map(|name| {
            let b = cell.basket(name).expect("input basket");
            let user = Schema {
                columns: b.schema().columns[..b.user_width()].to_vec(),
            };
            (b, user)
        })
        .collect();
    let outs: Vec<(Arc<Basket>, ReaderId)> = p
        .queries
        .iter()
        .map(|(q, _)| {
            let b = cell.query_output(q).expect("output basket");
            let r = b.register_reader(true);
            (b, r)
        })
        .collect();
    let busy_us = |cell: &DataCell| -> u64 {
        cell.scheduler()
            .transition_metrics()
            .iter()
            .map(|m| m.busy_micros)
            .sum()
    };
    let (decode, encode) = if text_on_path {
        ("text.decode", "text.encode")
    } else {
        ("direct.text.decode", "direct.text.encode")
    };

    let mut acc = Acc::new(p.kind);
    let mut out_rows = 0u64;
    let n = input.len();
    let wall = Instant::now();
    for (b, from) in (0..n).step_by(REPLAY_BATCH).enumerate() {
        let to = (from + REPLAY_BATCH).min(n);
        let b = b as u32;
        let root = tr.begin("batch", ROOT, b);
        let text_parent = if text_on_path { root } else { ROOT };

        let rows: Vec<Vec<Vec<Value>>> = tr.time(decode, text_parent, b, || {
            let mut rows: Vec<Vec<Vec<Value>>> = vec![Vec::new(); ins.len()];
            for i in from..to {
                let (_, schema) = &ins[i % ins.len()];
                rows[i % ins.len()].push(text::parse_tuple(lines.line(i), schema).expect("parse"));
            }
            rows
        });
        tr.time("basket.append", root, b, || {
            for ((basket, _), rows) in ins.iter().zip(&rows) {
                basket.append_rows(rows).expect("append_rows");
            }
        });

        let busy0 = busy_us(&cell);
        let run = tr.begin("scheduler.run", root, b);
        cell.run_until_quiescent(1_000);
        tr.end(run);
        tr.child_of_duration(p.step_span, run, (busy_us(&cell) - busy0) * 1_000);

        for (q, (basket, reader)) in outs.iter().enumerate() {
            let chunk = tr.time("basket.claim_commit", root, b, || {
                let (chunk, start, end) = basket.claim_for_reader(*reader, usize::MAX);
                basket.commit_claim(*reader, start, end);
                chunk
            });
            let width = basket.user_width();
            let delivered: Vec<Vec<Value>> = tr.time("emitter.rows", root, b, || {
                (0..chunk.len())
                    .map(|i| {
                        let mut row = chunk.row(i).expect("row");
                        row.truncate(width);
                        row
                    })
                    .collect()
            });
            let rendered: Vec<String> = tr.time(encode, text_parent, b, || {
                delivered.iter().map(|r| text::render_row(r)).collect()
            });
            std::hint::black_box(&rendered);
            let mut fields = [0i64; 4];
            for row in &delivered {
                for (slot, v) in fields.iter_mut().zip(row) {
                    *slot = v.as_int().expect("int result");
                }
                acc.absorb(q, &fields[..row.len()]);
            }
            out_rows += delivered.len() as u64;
        }
        tr.end(root);
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    cell.stop();
    Replayed {
        tuples: n as u64,
        out_rows,
        wall_ns,
        digest: acc.digest(),
    }
}

// ------------------------------------------------------- direct calls

/// Direct timed calls on the workload's own columns, one layer at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Direct {
    pub select_range_gb_s: f64,
    pub group_agg_mtuples_s: f64,
    pub hash_join_mtuples_s: f64,
    pub wal_append_ns_per_tuple: f64,
    pub wal_sync_us_per_commit: f64,
    pub wal_bytes_per_tuple: f64,
    pub codec_encode_mb_s: f64,
    pub codec_decode_mb_s: f64,
    pub segment_seal_mb_s: f64,
    pub segment_read_mb_s: f64,
    pub baseline_push_ns_per_tuple: f64,
    pub idle_pass_us: f64,
    pub recover_s: f64,
    /// Rows the direct recovery brought back (all of the input, if right).
    pub recovered_rows: usize,
}

fn column(input: &Input, c: usize) -> Vec<i64> {
    input.rows().map(|r| r[c]).collect()
}

/// The input as basket-shaped chunks (user columns plus `ts`) of `rows`
/// rows each, with the schema they share.
fn chunks(input: &Input, rows: usize) -> (Schema, Vec<Chunk>) {
    let mut cols: Vec<(String, DataType)> = (0..input.width)
        .map(|c| (format!("c{c}"), DataType::Int))
        .collect();
    cols.push(("ts".into(), DataType::Timestamp));
    let schema = Schema::new(cols);
    let n = input.len();
    let chunks = (0..n)
        .step_by(rows)
        .map(|from| {
            let to = (from + rows).min(n);
            let mut columns: Vec<Column> = (0..input.width)
                .map(|c| Column::from_ints((from..to).map(|i| input.row(i)[c]).collect()))
                .collect();
            columns.push(Column::from_timestamps(
                (from..to).map(|i| i as i64).collect(),
            ));
            Chunk::new(schema.clone(), columns).expect("chunk")
        })
        .collect();
    (schema, chunks)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64().max(1e-9)
}

/// `bat` kernels on columns 0 (key) and 1 (value) of `input`.
fn direct_bat(input: &Input, d: &mut Direct) {
    let n = input.len();
    let keys = Bat::from_ints(column(input, 0));
    let vals = Bat::from_ints(column(input, 1));

    const SELECT_REPS: usize = 20;
    let (lo, hi) = (Value::Int(0), Value::Int(FILTER_BOUND - 1));
    let t = Instant::now();
    for _ in 0..SELECT_REPS {
        let c = select_range(&vals, Some(&lo), Some(&hi), true, true, false, None).expect("select");
        std::hint::black_box(c);
    }
    d.select_range_gb_s = (SELECT_REPS * n * 8) as f64 / secs(t) / 1e9;

    const GROUP_REPS: usize = 5;
    let t = Instant::now();
    for _ in 0..GROUP_REPS {
        let g = group_by(&keys, None, None).expect("group_by");
        let sums = grouped_agg(AggFunc::Sum, &vals, &g).expect("grouped_agg");
        std::hint::black_box(sums);
    }
    d.group_agg_mtuples_s = (GROUP_REPS * n) as f64 / secs(t) / 1e6;

    // Window by window like the workload: rows alternate left, right.
    let k = column(input, 0);
    let sides: Vec<(Bat, Bat)> = k
        .chunks_exact(2 * JOIN_WINDOW)
        .map(|w| {
            let left = w.iter().step_by(2).copied().collect();
            let right = w.iter().skip(1).step_by(2).copied().collect();
            (Bat::from_ints(left), Bat::from_ints(right))
        })
        .collect();
    let t = Instant::now();
    for (left, right) in &sides {
        std::hint::black_box(hash_join(left, right, None, None).expect("hash_join"));
    }
    d.hash_join_mtuples_s = (sides.len() * 2 * JOIN_WINDOW) as f64 / secs(t) / 1e6;
}

/// `storage` on the input as basket-shaped chunks, under `scratch`.
fn direct_storage(input: &Input, scratch: &Path, d: &mut Direct) {
    /// Commits made durable one by one (each is an fdatasync).
    const SYNCED_COMMITS: usize = 32;
    let n = input.len() as f64;
    let (schema, batches) = chunks(input, REPLAY_BATCH);

    let wal = Wal::open(&scratch.join("direct-wal.log")).expect("open wal");
    let (mut append_s, mut sync_s) = (0.0, 0.0);
    for (i, chunk) in batches.iter().enumerate() {
        let t = Instant::now();
        let seq = wal.append_rows(chunk).expect("wal append");
        append_s += secs(t);
        if i < SYNCED_COMMITS {
            let t = Instant::now();
            wal.sync_to(seq).expect("wal sync");
            sync_s += secs(t);
        }
    }
    d.wal_append_ns_per_tuple = append_s * 1e9 / n;
    d.wal_sync_us_per_commit = sync_s * 1e6 / SYNCED_COMMITS.min(batches.len()).max(1) as f64;
    d.wal_bytes_per_tuple = wal.bytes_written() as f64 / n;

    let (mut enc_s, mut dec_s, mut bytes) = (0.0, 0.0, 0usize);
    let mut buf = Vec::new();
    for chunk in &batches {
        buf.clear();
        let t = Instant::now();
        codec::encode_chunk_into(&mut buf, chunk).expect("encode");
        enc_s += secs(t);
        let t = Instant::now();
        std::hint::black_box(codec::decode_chunk(&buf, &schema).expect("decode"));
        dec_s += secs(t);
        bytes += buf.len();
    }
    d.codec_encode_mb_s = bytes as f64 / enc_s / 1e6;
    d.codec_decode_mb_s = bytes as f64 / dec_s / 1e6;

    let store = SegmentStore::open(scratch.join("direct-segments")).expect("open store");
    let bs = store.basket("direct").expect("basket store");
    let (schema, runs) = chunks(input, SPILL_ROWS / 2);
    let (mut seal_s, mut read_s, mut bytes) = (0.0, 0.0, 0u64);
    let mut base = 0u64;
    for chunk in &runs {
        let t = Instant::now();
        let meta = bs.seal_segment(base, chunk).expect("seal");
        seal_s += secs(t);
        let t = Instant::now();
        std::hint::black_box(bs.read_segment(&meta, &schema).expect("read"));
        read_s += secs(t);
        bytes += meta.bytes;
        base += chunk.len() as u64;
    }
    d.segment_seal_mb_s = bytes as f64 / seal_s / 1e6;
    d.segment_read_mb_s = bytes as f64 / read_s / 1e6;
}

/// The tuple-at-a-time comparator on the same filter (`v < 500`) over
/// the same rows the filter replay sees.
fn direct_baseline(filter_input: &Input, d: &mut Direct) {
    let tuples: Vec<Tuple> = filter_input
        .rows()
        .map(|r| Tuple::new(ints(r), 0))
        .collect();
    let mut engine = TupleEngine::new();
    engine.add_query(Query::new(
        "q",
        vec![Box::new(Selection {
            column: 1,
            lo: i64::MIN,
            hi: FILTER_BOUND - 1,
        })],
    ));
    let t = Instant::now();
    for (i, tuple) in tuples.iter().enumerate() {
        engine.push(tuple);
        if i % REPLAY_BATCH == REPLAY_BATCH - 1 {
            std::hint::black_box(engine.query_mut(0).drain_results());
        }
    }
    d.baseline_push_ns_per_tuple = secs(t) * 1e9 / tuples.len().max(1) as f64;
}

/// One `Scheduler::pass` over 16 registered transitions with nothing to do.
fn direct_idle_pass(d: &mut Direct) {
    const PASSES: u32 = 2_000;
    let mut p = pipeline(Kind::Multi, false);
    p.plan_sharing = false;
    let cell = build_cell(&p, false, None);
    declare(&cell, &p);
    let t = Instant::now();
    for _ in 0..PASSES {
        std::hint::black_box(cell.scheduler().pass());
    }
    d.idle_pass_us = secs(t) * 1e6 / f64::from(PASSES);
}

/// `recover()` of a persistent basket holding `filter_input`, none of it
/// consumed: the direct counterpart of `durable_wire`'s live recovery.
fn direct_recover(filter_input: &Input, scratch: &Path, d: &mut Direct) {
    let dir = scratch.join("direct-recover");
    let p = pipeline(Kind::Filter, true);
    {
        let cell = build_cell(&p, false, Some(&dir));
        cell.execute(&p.ddl[0]).expect("create basket");
        let basket = cell.basket("s").expect("basket");
        let rows: Vec<Vec<Value>> = filter_input.rows().map(ints).collect();
        for batch in rows.chunks(REPLAY_BATCH) {
            basket.append_rows(batch).expect("append");
        }
        cell.stop();
    }
    let back = recover(&p, &dir);
    d.recover_s = back.seconds;
    d.recovered_rows = back.rows.len();
}

pub fn direct(input: &Input, filter_input: &Input, scratch: &Path) -> Direct {
    let mut d = Direct::default();
    direct_bat(input, &mut d);
    direct_storage(input, scratch, &mut d);
    direct_baseline(filter_input, &mut d);
    direct_idle_pass(&mut d);
    direct_recover(filter_input, scratch, &mut d);
    d
}
