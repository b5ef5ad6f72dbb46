//! `fig:exp10_net` — loopback TCP ingest + fan-out throughput of the wire
//! protocol.
//!
//! A real `NetServer` on an ephemeral loopback port; one TCP ingest client
//! pushes `total` integer tuples through a continuous query while `F`
//! TCP subscribers receive every result line. Measures the two ends
//! separately: ingest throughput (socket bytes → parsed → resident in the
//! basket, timed to the `SYNC` acknowledgement) and fan-out throughput
//! (result lines per second summed over subscribers, timed to the last
//! subscriber's final line).
//!
//! Expected shape: ingest sits within a small factor of the in-process
//! writer path (exp8) — the line parse is the added cost — and fan-out
//! scales with subscriber count until the loopback or the rendering
//! saturates.
//!
//! Emits one machine-readable summary line at the end
//! (`BENCH_net.json: {...}`).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::DataCell;
use datacell_bench::{banner, f, TablePrinter};
use datacell_net::NetServer;

struct Outcome {
    ingest_tps: f64,
    fanout_tps: f64,
    delivered: u64,
}

fn expect_ok(reader: &mut BufReader<TcpStream>, what: &str) {
    let mut line = String::new();
    reader.read_line(&mut line).expect(what);
    assert!(line.starts_with("OK "), "{what}: {line}");
}

fn run(total: u64, subscribers: usize) -> Outcome {
    let cell = Arc::new(
        DataCell::builder()
            .listen("127.0.0.1:0")
            .writer_batch_size(1024)
            .auto_start(true)
            .build(),
    );
    cell.execute("create basket s (v int)").unwrap();
    cell.execute("create continuous query q as select s2.v from [select * from s] as s2")
        .unwrap();
    let server = NetServer::start(&cell).unwrap().expect("listen configured");
    let addr = server.local_addr();

    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let sub_handles: Vec<std::thread::JoinHandle<u64>> = (0..subscribers)
        .map(|_| {
            let ready = ready_tx.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone().unwrap());
                expect_ok(&mut reader, "greeting");
                writeln!(&stream, "SUBSCRIBE q").unwrap();
                expect_ok(&mut reader, "subscribe ack");
                // The ack means this subscriber's basket reader is
                // registered: from here it sees every tuple.
                ready.send(()).unwrap();
                let mut line = String::new();
                let mut count = 0u64;
                while count < total {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) => break,
                        Ok(_) => count += 1,
                        Err(_) => break,
                    }
                }
                count
            })
        })
        .collect();

    // Every subscriber must be registered before the first tuple flows,
    // or an early reader could consume-and-trim past a late one.
    for _ in 0..subscribers {
        ready_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("subscriber handshake");
    }

    let started = Instant::now();
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    expect_ok(&mut reader, "greeting");
    writeln!(&stream, "STREAM s").unwrap();
    expect_ok(&mut reader, "stream ack");
    let mut out = BufWriter::with_capacity(1 << 16, stream.try_clone().unwrap());
    for i in 0..total {
        writeln!(out, "{i}").unwrap();
    }
    out.flush().unwrap();
    writeln!(&stream, "SYNC").unwrap();
    let mut sync = String::new();
    reader.read_line(&mut sync).unwrap();
    assert!(sync.starts_with("OK SYNC"), "{sync}");
    let ingest_elapsed = started.elapsed().as_secs_f64();

    let delivered: u64 = sub_handles.into_iter().map(|h| h.join().unwrap()).sum();
    let fanout_elapsed = started.elapsed().as_secs_f64();
    // Every subscriber has hung up: its connection thread, which was its
    // emitter, ends with it and deregisters its reader, leaving only the
    // ingest connection.
    let out = cell.query_output("q").unwrap();
    let released = || server.metrics().connections_active == 1 && out.reader_count() == 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while !released() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        server.metrics().connections_active,
        1,
        "only the ingest connection stays"
    );
    assert_eq!(out.reader_count(), 0, "no reader left on q's output");
    server.stop();
    cell.stop();
    Outcome {
        ingest_tps: total as f64 / ingest_elapsed,
        fanout_tps: delivered as f64 / fanout_elapsed,
        delivered,
    }
}

fn main() {
    let total: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200_000);
    banner(
        "fig:exp10_net",
        "loopback TCP wire-protocol throughput: one ingest client through a \
         continuous query to F subscribers (newline-delimited datacell::text)",
        "ingest within a small factor of the in-process writer path; fan-out \
         line rate grows with subscriber count until the loopback saturates",
    );
    let table = TablePrinter::new(&[
        "subscribers",
        "tuples",
        "ingest (t/s)",
        "fanout (lines/s)",
        "delivered",
    ]);
    let mut json_rows = Vec::new();
    for subscribers in [1usize, 2, 4] {
        let o = run(total, subscribers);
        assert_eq!(
            o.delivered,
            total * subscribers as u64,
            "every subscriber received every tuple"
        );
        table.row(&[
            subscribers.to_string(),
            total.to_string(),
            f(o.ingest_tps),
            f(o.fanout_tps),
            o.delivered.to_string(),
        ]);
        json_rows.push(format!(
            "{{\"subscribers\":{subscribers},\"tuples\":{total},\"ingest_tps\":{:.0},\
             \"fanout_tps\":{:.0},\"delivered\":{}}}",
            o.ingest_tps, o.fanout_tps, o.delivered
        ));
    }
    println!();
    println!(
        "BENCH_net.json: {{\"experiment\":\"exp10_net\",\"results\":[{}]}}",
        json_rows.join(",")
    );
}
