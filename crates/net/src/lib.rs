//! # datacell-net — the TCP front door of the DataCell periphery
//!
//! The paper's receptors and emitters "use a textual interface for
//! exchanging flat relational tuples" (§2.1); this crate puts that
//! interface on a socket, so any client that can open a TCP connection and
//! write newline-delimited text — `netcat` included — can stream tuples
//! into the engine and subscribe to continuous-query results out of it.
//!
//! ```text
//!   socket read buffer ──decode──▶ column builders ──▶ Basket ──▶ Factory ──▶ Basket
//!   (NetReceptor, STREAM b)        (StreamWriter)                               │
//!                                                                                ▼ claim
//!   socket ◀──write── byte buffer ◀──render── column slices ◀── emitter thread (NetSink, SUBSCRIBE q)
//! ```
//!
//! The edge is columnar from socket to socket: no per-tuple row, string or
//! channel send between a [`NetReceptor`]'s socket read and a
//! [`NetSink`]'s socket write.
//!
//! * framing is exactly [`datacell::text`]: one tuple per line,
//!   comma-separated, CSV-style quoting — the decoder is the network trust
//!   boundary (malformed bytes produce `ERR` replies, never panics);
//! * a [`NetReceptor`] decodes lines in place from its read buffer into
//!   the column builders of a batched writer and appends into the
//!   engine's bounded baskets under each basket's own
//!   [`OverflowPolicy`](datacell::OverflowPolicy), so a full pipeline
//!   stalls the socket (TCP backpressure), sheds or spills, it never
//!   buffers unboundedly;
//! * a [`NetSink`] is the subscription's engine-side emitter writing to
//!   the socket itself: a slow TCP client fills its kernel buffer and the
//!   emitter stalls holding its claim, so the slowness backpressures the
//!   pipeline instead of growing a queue.
//!
//! The entry point is [`NetServer`]: bind it to the address configured
//! through [`DataCellBuilder::listen`](datacell::DataCellBuilder::listen),
//! and read per-connection traffic back from
//! [`DataCell::metrics`](datacell::DataCell::metrics).
//!
//! ```no_run
//! use std::sync::Arc;
//! use datacell::DataCell;
//! use datacell_net::NetServer;
//!
//! let cell = Arc::new(
//!     DataCell::builder()
//!         .listen("127.0.0.1:7878")
//!         .auto_start(true)
//!         .build(),
//! );
//! cell.execute("create basket trades (sym varchar(8), px float)").unwrap();
//! cell.execute(
//!     "create continuous query big as \
//!      select t.sym, t.px from [select * from trades] as t where t.px > 100.0",
//! ).unwrap();
//! let server = NetServer::start(&cell).unwrap().expect("listen configured");
//! println!("speaking datacell/1 on {}", server.local_addr());
//! // $ nc 127.0.0.1 7878     ← STREAM trades / SUBSCRIBE big
//! ```
//!
//! The full frame grammar, handshake, error replies and backpressure
//! semantics are specified in `docs/protocol.md` at the repository root.

pub mod emitter;
pub mod http;
pub mod protocol;
pub mod receptor;
pub mod server;

pub use emitter::NetSink;
pub use http::HttpServer;
pub use protocol::{Handshake, StreamCommand, PROTOCOL_VERSION};
pub use receptor::NetReceptor;
pub use server::NetServer;
