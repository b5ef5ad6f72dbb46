//! [`NetReceptor`]: one `STREAM` connection's ingest pump.
//!
//! A receptor (§2.1) for one socket: it decodes newline-delimited tuple
//! lines in place from its socket read buffer, straight into the typed
//! column builders of a [`StreamWriter`] ([`StreamWriter::append_bytes`],
//! the [`datacell::text`] decoder), and appends them to the basket in
//! batches — 512 lines, or a refusing basket's capacity if smaller — and
//! at `SYNC`, `QUIT` and end of stream. The
//! writer is the engine's one ingest path, so the connection shows in the
//! session's Petri net as a receptor while it streams. Only a line that
//! straddles the edge of the read buffer is ever copied. The decoder is
//! the trust boundary: any malformed line produces an `ERR decode` reply
//! and a counter tick — never a panic, never a dropped connection.
//!
//! **Backpressure.** The receptor only appends; the basket's own
//! [`OverflowPolicy`](datacell::OverflowPolicy) decides what enters. Its
//! appends never wait inside the engine
//! ([`StreamWriter::try_flush`]): a `Block` or `Reject` basket too full
//! for the batch refuses it, and the receptor stops reading the socket
//! until space frees, re-checking the server's stop flag between waits
//! (the client's TCP send buffer fills and the client stalls —
//! backpressure end-to-end over the wire). A `ShedOldest` basket sheds
//! and a `Spill` basket spills, so ingest keeps flowing.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use datacell::{DataCellError, StreamWriter};

use crate::protocol::{self, StreamCommand};
use crate::server::ConnStats;

/// Hard cap on one frame: a client that streams bytes without a newline
/// must not grow server memory without bound (the line buffer is the one
/// allocation the protocol makes on behalf of the peer — everything past
/// it is bounded by baskets and socket buffers).
const MAX_LINE_BYTES: usize = 1 << 20;

/// A connection's socket read buffer. Lines are decoded in place from it,
/// so only a line that straddles its edge is copied (into the carry
/// buffer, where the frame cap is enforced).
const READ_BUFFER_BYTES: usize = 64 << 10;

// A line inside the read buffer is never checked against the cap.
const _: () = assert!(READ_BUFFER_BYTES < MAX_LINE_BYTES);

/// Longest a full basket makes the receptor wait before it re-checks the
/// stop flag.
const BACKPRESSURE_SLICE: Duration = Duration::from_millis(1);

/// True for the errors a read with a timeout returns when nothing arrived.
pub(crate) fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

/// How one [`LineReader::next_line`] ended.
pub(crate) enum ReadStep<'a> {
    /// A complete line, without its terminator.
    Line(&'a [u8]),
    /// The peer closed the stream; the final unterminated line, possibly
    /// empty.
    Eof(&'a [u8]),
    /// Timed out or interrupted; poll the stop flag and keep reading.
    Again,
    /// The frame exceeded [`MAX_LINE_BYTES`] (framing is lost: reply and
    /// close).
    TooLong,
    /// Unrecoverable socket error.
    Broken,
}

/// The one line framer of a connection, shared by the handshake and the
/// receptor. A line ends at `\n`; `\r` before it (CRLF framing) is not
/// data. A line that sits wholly in the socket read buffer is handed out
/// in place and consumed at the next call; only a line that straddles the
/// buffer's edge is copied, into the carry buffer, where the
/// [`MAX_LINE_BYTES`] frame cap (terminator included) is enforced on
/// bounded `fill_buf` slices — an endless unterminated line cannot grow
/// server memory, and a read timeout never loses a partial line. Bytes
/// stay raw: invalid UTF-8 becomes a decode error downstream, not a
/// dropped connection.
pub(crate) struct LineReader {
    reader: BufReader<TcpStream>,
    /// The head of a line straddling the buffer's edge, or the last line
    /// handed out from it (cleared at the next call).
    carry: Vec<u8>,
    /// Buffer bytes the last line handed out in place still occupies.
    held: usize,
}

impl LineReader {
    pub(crate) fn new(stream: TcpStream) -> Self {
        LineReader {
            reader: BufReader::with_capacity(READ_BUFFER_BYTES, stream),
            carry: Vec::new(),
            held: 0,
        }
    }

    /// The next line; the line handed out by the previous call is
    /// released first.
    pub(crate) fn next_line(&mut self) -> ReadStep<'_> {
        self.reader.consume(std::mem::take(&mut self.held));
        if self.carry.last() == Some(&b'\n') {
            self.carry.clear();
        }
        loop {
            let (len, newline) = match self.reader.fill_buf() {
                Ok([]) => return ReadStep::Eof(strip_cr(&self.carry)),
                Ok(buf) => (buf.len(), buf.iter().position(|&b| b == b'\n')),
                Err(e) if timed_out(&e) => return ReadStep::Again,
                Err(_) => return ReadStep::Broken,
            };
            let take = newline.map_or(len, |i| i + 1);
            if let (Some(i), true) = (newline, self.carry.is_empty()) {
                self.held = take;
                return ReadStep::Line(strip_cr(&self.reader.buffer()[..i]));
            }
            self.carry.extend_from_slice(&self.reader.buffer()[..take]);
            self.reader.consume(take);
            if self.carry.len() > MAX_LINE_BYTES {
                return ReadStep::TooLong;
            }
            if newline.is_some() {
                return ReadStep::Line(strip_cr(&self.carry[..self.carry.len() - 1]));
            }
        }
    }

    /// True when the next [`next_line`](LineReader::next_line) must read
    /// the socket: every buffered byte has been handed out.
    pub(crate) fn drained(&self) -> bool {
        self.reader.buffer().len() == self.held
    }

    /// The buffered socket reader, with any unread input (the line framing
    /// is abandoned).
    pub(crate) fn into_inner(mut self) -> BufReader<TcpStream> {
        self.reader.consume(self.held);
        self.reader
    }
}

/// Drop the `\r`s ending a line.
fn strip_cr(mut line: &[u8]) -> &[u8] {
    while let [rest @ .., b'\r'] = line {
        line = rest;
    }
    line
}

/// The ingest pump for one `STREAM` connection (see module docs). Created
/// by the [`NetServer`](crate::NetServer) after a successful `STREAM`
/// handshake and run on the connection's thread.
pub struct NetReceptor {
    lines: LineReader,
    ingest: Ingest,
}

/// Everything of the receptor but its line reader, so a line borrowed
/// from the read buffer is handled in place.
struct Ingest {
    replies: TcpStream,
    writer: StreamWriter,
    /// Lines buffered before a bulk append.
    batch: usize,
    stats: Arc<ConnStats>,
    stop: Arc<AtomicBool>,
    /// Lines accepted and rejected since the connection's counters were
    /// last updated (once per read, and before every reply that reports
    /// counts).
    accepted: u64,
    rejected: u64,
}

/// What one line is.
enum LineKind {
    Blank,
    Command(StreamCommand),
    Tuple,
}

impl NetReceptor {
    pub(crate) fn new(
        lines: LineReader,
        replies: TcpStream,
        writer: StreamWriter,
        batch: usize,
        stats: Arc<ConnStats>,
        stop: Arc<AtomicBool>,
    ) -> Self {
        NetReceptor {
            lines,
            ingest: Ingest {
                replies,
                writer,
                batch,
                stats,
                stop,
                accepted: 0,
                rejected: 0,
            },
        }
    }

    /// Pump lines until the client disconnects, sends `QUIT`, or the
    /// server stops. Whatever was accepted is flushed before returning.
    pub fn run(mut self) {
        while !self.ingest.stop.load(Ordering::Relaxed) {
            match self.lines.next_line() {
                ReadStep::Line(line) => {
                    if self.ingest.line(line) {
                        return;
                    }
                }
                ReadStep::Eof(last) => {
                    // A final line without a trailing newline is still a
                    // tuple (pipes often end this way).
                    self.ingest.line(last);
                    self.ingest.publish();
                    break;
                }
                ReadStep::Again => continue,
                ReadStep::TooLong => {
                    // Framing is lost past the cap: report and hang up.
                    self.ingest.reply(&protocol::err_line(
                        "decode",
                        "line exceeds the 1 MiB frame limit",
                    ));
                    break;
                }
                ReadStep::Broken => break,
            }
            // Counters move once per socket read, not once per line.
            if self.lines.drained() {
                self.ingest.publish();
            }
        }
        // Disconnect: land whatever the writer still buffers.
        self.ingest.flush_blocking();
    }
}

impl Ingest {
    /// Process one line (without its terminator); returns true when the
    /// connection should close (`QUIT`). Blank lines are ignored (trailing
    /// newlines from piped files, interactive `nc` use); an empty
    /// single-string tuple is sent quoted (`""`).
    fn line(&mut self, line: &[u8]) -> bool {
        match classify(line) {
            LineKind::Blank => {}
            LineKind::Command(StreamCommand::Sync) => {
                self.flush_blocking();
                self.publish();
                let s = self.writer.stats();
                self.reply(&format!("OK SYNC {} {}", s.appended, s.rejected));
            }
            LineKind::Command(StreamCommand::Quit) => {
                self.flush_blocking();
                self.publish();
                self.reply("OK BYE");
                return true;
            }
            LineKind::Tuple => match self.writer.append_bytes(line) {
                Ok(()) => {
                    self.accepted += 1;
                    if self.writer.pending() >= self.batch {
                        // Stop reading the socket until the batch lands.
                        self.flush_blocking();
                    }
                }
                Err(DataCellError::Decode(msg)) => {
                    self.rejected += 1;
                    self.reply(&protocol::err_line("decode", &msg));
                }
                Err(e) => {
                    self.reply(&protocol::err_line("internal", &e.to_string()));
                }
            },
        }
        false
    }

    /// Add the lines counted since the last update to the connection's
    /// counters.
    fn publish(&mut self) {
        if self.accepted > 0 {
            self.stats
                .tuples
                .fetch_add(std::mem::take(&mut self.accepted), Ordering::Relaxed);
        }
        if self.rejected > 0 {
            self.stats
                .rejected
                .fetch_add(std::mem::take(&mut self.rejected), Ordering::Relaxed);
        }
    }

    /// Retry [`StreamWriter::try_flush`] until it lands, waiting out
    /// backpressure on the basket's change signal in stop-aware slices —
    /// and retrying only once the basket has room, so a stalled batch
    /// counts as one overflow event. Lossless for `Block`/`Reject` baskets
    /// while the engine runs; `ShedOldest` and `Spill` baskets admit at
    /// once. On server stop the retry gives up (rows that cannot land in a
    /// stalled, stopping pipeline are dropped — the shutdown is never held
    /// hostage).
    fn flush_blocking(&mut self) {
        loop {
            match self.writer.try_flush() {
                Ok(_) => return,
                Err(DataCellError::Backpressure { .. }) => loop {
                    if self.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    if self.writer.wait_for_room(BACKPRESSURE_SLICE) {
                        break;
                    }
                },
                Err(e) => {
                    self.reply(&protocol::err_line("internal", &e.to_string()));
                    return;
                }
            }
        }
    }

    /// Best-effort single-line reply; a failed write means the client is
    /// gone and the read loop will notice.
    fn reply(&mut self, line: &str) {
        let _ = self.replies.write_all(format!("{line}\n").as_bytes());
    }
}

/// Blank, an in-stream command, or a tuple — decided on the text (lossy
/// UTF-8, borrowed when the line is valid), so whitespace means what it
/// means to the tuple decoder.
fn classify(line: &[u8]) -> LineKind {
    let text = String::from_utf8_lossy(line);
    let t = text.trim();
    if t.is_empty() {
        LineKind::Blank
    } else if let Some(c) = protocol::parse_stream_command(t) {
        LineKind::Command(c)
    } else {
        LineKind::Tuple
    }
}
