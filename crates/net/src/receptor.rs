//! [`NetReceptor`]: one `STREAM` connection's ingest pump.
//!
//! A receptor (§2.1) for one socket: it decodes newline-delimited tuple
//! lines in place from its socket read buffer, straight into the typed
//! column builders of a [`StreamWriter`], and appends them to the basket
//! in batches. The writer is the engine's one ingest path, so the
//! connection shows in the session's Petri net as a receptor while it
//! streams.
//!
//! **Decoding follows the read.** The bytes a socket read delivered are
//! decoded in one pass ([`StreamWriter::append_lines`], the
//! [`datacell::text`] decoder core) up to the first line that needs the
//! per-line rules: a blank line, a `SYNC`/`QUIT`, a quoted, non-ASCII or
//! malformed line. That line alone is framed and handled on its own
//! ([`StreamWriter::append_bytes`] for a tuple), then the pass resumes, so
//! replies keep the order of the lines. Only a line that straddles the
//! edge of the read buffer is ever copied. The decoder is the trust
//! boundary: any malformed line produces an `ERR decode` reply and a
//! counter tick — never a panic, never a dropped connection.
//!
//! **Batching follows the socket.** Like the paper's receptor, it hands
//! the kernel whatever has arrived: a batch is what one socket read
//! delivered, appended once the read buffer is drained (the next line
//! needs another read). So a lone line lands at once under light load,
//! and a batch grows with the load. A batch is cut early at 8 192 rows,
//! or at a `Block`/`Reject` basket's capacity, read when the batch starts
//! so a capacity lowered at runtime is respected.
//! `SYNC`, `QUIT` and end of stream land the batch too.
//!
//! **Durability follows the acknowledgement.** A batch lands in the basket
//! without waiting for the disk ([`StreamWriter::try_flush`]); on a
//! persistent basket the connection thread goes on reading while the WAL
//! records wait for a sync. The wire's one durability promise is
//! `OK SYNC`/`OK BYE`, so only those wait: the receptor
//! [syncs](StreamWriter::sync) every row it landed first — one group-commit
//! `fdatasync` for all the batches since the last acknowledgement — and a
//! failed sync answers `ERR storage` instead. End of stream syncs too.
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

use datacell::{text, DataCellError, StreamWriter};

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

/// Most rows one basket append takes, however much a read delivered.
const MAX_BATCH_ROWS: usize = 8192;

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
    /// No complete line yet: a read timed out or was interrupted, or the
    /// buffered bytes ended mid-line and the rest is still on the socket.
    /// Poll the stop flag and call again.
    Again,
    /// The frame exceeded [`MAX_LINE_BYTES`] (framing is lost: reply and
    /// close).
    TooLong,
    /// Unrecoverable socket error.
    Broken,
}

/// The one line framer of a connection, shared by the handshake and the
/// receptor. A line ends at `\n`; `\r` before it (CRLF framing) is not
/// data. Each call reads the socket at most once, and only when every
/// buffered byte is handed out ([`drained`](LineReader::drained)), so the
/// caller sees each read boundary. A line that sits wholly in the socket
/// read buffer is handed out
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
        match newline {
            Some(_) => ReadStep::Line(strip_cr(&self.carry[..self.carry.len() - 1])),
            // The line goes on in bytes not read yet.
            None => ReadStep::Again,
        }
    }

    /// True when the next [`next_line`](LineReader::next_line) must read
    /// the socket: every buffered byte has been handed out.
    pub(crate) fn drained(&self) -> bool {
        self.reader.buffer().len() == self.held
    }

    /// The bytes buffered after the line last handed out, for a caller
    /// that frames several lines at once. None while a line straddles the
    /// buffer's edge: its head went to the carry buffer with every byte
    /// buffered after it.
    pub(crate) fn buffered(&self) -> &[u8] {
        &self.reader.buffer()[self.held..]
    }

    /// Hand out the first `n` bytes of [`buffered`](LineReader::buffered)
    /// as handled; they are released at the next call.
    pub(crate) fn consume(&mut self, n: usize) {
        self.held += n;
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
    /// Rows at which the current batch lands before the read buffer is
    /// drained: [`MAX_BATCH_ROWS`], or a smaller `Block`/`Reject` basket's
    /// capacity (such a basket takes a larger batch only once empty, which
    /// would stall ingest until every reader drained it). Set when the
    /// batch starts.
    cap: usize,
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
        stats: Arc<ConnStats>,
        stop: Arc<AtomicBool>,
    ) -> Self {
        NetReceptor {
            lines,
            ingest: Ingest {
                replies,
                writer,
                cap: MAX_BATCH_ROWS,
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
            if self.lines.drained() {
                // The next line needs a socket read: land what the last one
                // delivered, and move the counters once per read.
                self.ingest.flush_blocking();
                self.ingest.publish();
            }
            // The plain lines at the front of the buffer, in one pass.
            if self.ingest.lines(&mut self.lines) {
                continue;
            }
            // The line the pass stopped at, one straddling the buffer's
            // edge, or a read: one line at a time.
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
                    break;
                }
                ReadStep::Again => {}
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
        }
        // Disconnect: land whatever the writer still buffers, durably.
        self.ingest.land();
        self.ingest.publish();
    }
}

impl Ingest {
    /// Decode the plain tuple lines buffered in `lines` into the batch in
    /// one pass, up to the batch's room, and consume them. True when the
    /// pass is to run again: it took every buffered byte (the batch lands
    /// before the next read) or filled the batch. False when nothing is
    /// buffered or the pass stopped before a line: that line is left for
    /// [`line`](Ingest::line), so the pass never tries it twice.
    fn lines(&mut self, lines: &mut LineReader) -> bool {
        let bytes = lines.buffered();
        if bytes.is_empty() {
            return false;
        }
        self.start_batch();
        let room = self.cap.saturating_sub(self.writer.pending());
        let (used, rows) = self.writer.append_lines(bytes, room);
        let drained = used == bytes.len();
        lines.consume(used);
        self.accepted += rows as u64;
        let full = rows > 0 && self.writer.pending() >= self.cap;
        if full {
            // Stop reading the socket until the batch lands.
            self.flush_blocking();
        }
        drained || full
    }

    /// When a batch starts, cap it by the basket's room now.
    fn start_batch(&mut self) {
        if self.writer.pending() == 0 {
            self.cap = self
                .writer
                .append_room()
                .map_or(MAX_BATCH_ROWS, |room| room.capacity.min(MAX_BATCH_ROWS));
        }
    }

    /// Process one line (without its terminator); returns true when the
    /// connection should close (`QUIT`). Blank lines are ignored (trailing
    /// newlines from piped files, interactive `nc` use); an empty
    /// single-string tuple is sent quoted (`""`).
    fn line(&mut self, line: &[u8]) -> bool {
        match classify(line) {
            LineKind::Blank => {}
            LineKind::Command(StreamCommand::Sync) => {
                let landed = self.land();
                self.publish();
                if landed {
                    let s = self.writer.stats();
                    self.reply(&format!("OK SYNC {} {}", s.appended, s.rejected));
                }
            }
            LineKind::Command(StreamCommand::Quit) => {
                let landed = self.land();
                self.publish();
                if landed {
                    self.reply("OK BYE");
                }
                return true;
            }
            LineKind::Tuple => {
                self.start_batch();
                match self.writer.append_bytes(line) {
                    Ok(()) => {
                        self.accepted += 1;
                        if self.writer.pending() >= self.cap {
                            // Stop reading the socket until the batch lands.
                            self.flush_blocking();
                        }
                    }
                    Err(DataCellError::Decode(msg)) => {
                        self.rejected += 1;
                        self.reply(&protocol::err_line("decode", &msg));
                    }
                    Err(e) => self.reply_err(&e),
                }
            }
        }
        false
    }

    /// Add the lines counted since the last update to the connection's
    /// counters, and bring its append count up to date.
    fn publish(&mut self) {
        self.stats
            .appends
            .store(self.writer.stats().flushes, Ordering::Relaxed);
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
    /// hostage). Any other failure is answered with an `ERR` line and
    /// returned as false.
    fn flush_blocking(&mut self) -> bool {
        loop {
            match self.writer.try_flush() {
                Ok(_) => return true,
                Err(DataCellError::Backpressure { .. }) => loop {
                    if self.stop.load(Ordering::Relaxed) {
                        return true;
                    }
                    if self.writer.wait_for_room(BACKPRESSURE_SLICE) {
                        break;
                    }
                },
                Err(e) => {
                    self.reply_err(&e);
                    return false;
                }
            }
        }
    }

    /// Land the batch and make every row landed so far durable, as an
    /// acknowledgement promises; false (with an `ERR` line sent) when the
    /// append or the sync failed, so no acknowledgement may follow.
    fn land(&mut self) -> bool {
        if !self.flush_blocking() {
            return false;
        }
        match self.writer.sync() {
            Ok(()) => true,
            Err(e) => {
                self.reply_err(&e);
                false
            }
        }
    }

    /// Answer a failed append or sync: `ERR storage` for the disk,
    /// `ERR internal` for anything else.
    fn reply_err(&mut self, e: &DataCellError) {
        let kind = match e {
            DataCellError::Storage(_) => "storage",
            _ => "internal",
        };
        self.reply(&protocol::err_line(kind, &e.to_string()));
    }

    /// Best-effort single-line reply; a failed write means the client is
    /// gone and the read loop will notice.
    fn reply(&mut self, line: &str) {
        let _ = self.replies.write_all(format!("{line}\n").as_bytes());
    }
}

/// Blank, an in-stream command, or a tuple — decided on the text trimmed
/// as `str::trim` trims it, so whitespace means what it means to the tuple
/// decoder: an ASCII line in place ([`text::trim_whitespace`] is
/// `str::trim` there), any other through its lossy UTF-8 text.
fn classify(line: &[u8]) -> LineKind {
    let lossy;
    let t = if line.is_ascii() {
        std::str::from_utf8(text::trim_whitespace(line)).expect("ASCII is UTF-8")
    } else {
        lossy = String::from_utf8_lossy(line);
        lossy.trim()
    };
    if t.is_empty() {
        LineKind::Blank
    } else if let Some(c) = protocol::parse_stream_command(t) {
        LineKind::Command(c)
    } else {
        LineKind::Tuple
    }
}
