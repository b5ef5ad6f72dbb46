//! Wire protocol: the TCP front door, exercised by a plain-socket client.
//!
//! ```text
//! tcp ─▶ NetReceptor ─decode─▶ columns ─▶ Basket trades ─▶ Factory(big) ─▶ Basket
//!                                                                           │ claim
//! tcp ◀─write─ bytes ◀─render─ column slices ◀─ connection thread ◀─────────┘
//! ```
//!
//! The engine listens on a loopback port; a "client" thread speaks the
//! protocol with nothing but `std::net::TcpStream` and newline-delimited
//! text — exactly what `netcat`, a Python script, or any non-Rust client
//! would do. The session is transcribed to stdout so you can replay it by
//! hand:
//!
//! ```text
//! $ nc 127.0.0.1 <port>
//! OK datacell 1
//! STREAM trades
//! OK STREAM trades sym:str,px:float
//! ACME, 101.5
//! SYNC
//! OK SYNC 1 0
//! ```
//!
//! Run with: `cargo run --example wire_protocol`

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use datacell::DataCell;
use datacell_net::NetServer;

fn main() {
    // 1. Build the session with a listen address (port 0 = ephemeral) and
    //    bind the wire-protocol server to it.
    let cell = Arc::new(
        DataCell::builder()
            .listen("127.0.0.1:0")
            .metrics(true)
            .auto_start(true)
            .build(),
    );
    cell.execute("create basket trades (sym varchar(8), px float)")
        .unwrap();
    cell.execute(
        "create continuous query big as \
         select t.sym, t.px from [select * from trades] as t where t.px > 100.0",
    )
    .unwrap();
    let server = NetServer::start(&cell).unwrap().expect("listen configured");
    let addr = server.local_addr();
    println!("engine speaking datacell/1 on {addr}\n");

    // 2. A subscriber client: SUBSCRIBE, then read result lines.
    let subscriber = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // greeting
        writeln!(&stream, "SUBSCRIBE big").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        println!("subscriber ◀ {}", line.trim_end());
        let mut got = Vec::new();
        for _ in 0..2 {
            line.clear();
            reader.read_line(&mut line).unwrap();
            println!("subscriber ◀ {}", line.trim_end());
            got.push(line.trim_end().to_string());
        }
        got
    });
    std::thread::sleep(Duration::from_millis(100));

    // 3. An ingest client: STREAM, tuple lines (one malformed on
    //    purpose), SYNC for the accepted/rejected accounting.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    print!("ingest     ◀ {line}");
    println!("ingest     ▶ STREAM trades");
    writeln!(&stream, "STREAM trades").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    print!("ingest     ◀ {line}");
    for tuple in [
        "ACME, 101.5",
        "\"EVIL,INC\", 250.0",
        "not-a-trade",
        "TINY, 3.2",
    ] {
        println!("ingest     ▶ {tuple}");
        writeln!(&stream, "{tuple}").unwrap();
    }
    println!("ingest     ▶ SYNC");
    writeln!(&stream, "SYNC").unwrap();
    // The malformed line earned an ERR reply, then the SYNC accounting.
    for _ in 0..2 {
        line.clear();
        reader.read_line(&mut line).unwrap();
        print!("ingest     ◀ {line}");
    }

    // 4. The two px > 100 trades arrive at the subscriber.
    let got = subscriber.join().unwrap();
    assert_eq!(got, vec!["ACME,101.5", "\"EVIL,INC\",250"]);

    // 5. Per-connection counters in the session metrics.
    let net = cell.metrics().net.expect("listener attached");
    println!(
        "\nnet metrics: {} accepted, {} in / {} out, {} rejected",
        net.connections_accepted, net.tuples_in, net.tuples_out, net.lines_rejected
    );
    server.stop();
    cell.stop();
}
