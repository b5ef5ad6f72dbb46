//! The textual tuple-exchange format of the periphery (§2.1).
//!
//! "Receptors and emitters use a textual interface for exchanging flat
//! relational tuples": one tuple per line, comma-separated fields. This
//! module is the single definition of that wire format, in both
//! directions and in columns:
//!
//! * **decode** — [`ChunkBuilder::decode_lines`] decodes a buffer of
//!   lines (a socket read) in one pass straight into typed column builders
//!   (the [`StreamWriter`](crate::StreamWriter) buffer, and through it the
//!   network receptor); [`ChunkBuilder::decode_line`] is its one-line case
//!   and [`parse_tuple`] the same decoder aimed at a value row;
//! * **render** — [`ChunkRenderer`] / [`render_chunk_into`] write result
//!   rows straight from column slices into a byte buffer (the network
//!   subscriber, `EXEC … rows`); [`render_row`] is the same field writers
//!   applied to a value row.
//!
//! The rules, which round-trip:
//!
//! * fields may be double-quoted; inside quotes, commas are literal and
//!   `""` is an escaped quote — so strings containing the delimiter
//!   survive the wire;
//! * inside quotes, backslash escapes carry the line terminators the
//!   framing reserves: `\n` is a newline, `\r` a carriage return, `\\` a
//!   literal backslash (an unrecognized escape keeps the backslash
//!   literally — lenient). Rendering escapes these, so **any** string is
//!   wire-representable while a rendered row stays a single line;
//! * whitespace around unquoted fields (including trailing whitespace at
//!   end of line) is ignored; whitespace inside quotes is preserved;
//! * the unquoted tokens `nil` and `null` (any case) denote SQL NULL; the
//!   *quoted* string `"nil"` stays a string;
//! * bytes that are not UTF-8 decode as U+FFFD replacement characters.
//!
//! One decoder core applies these rules to a *plain* line — ASCII, no
//! quote, the schema's arity — where each field is the trimmed span
//! between two commas, parsed straight into its typed column. A field of
//! an integer column (`Int`, `Timestamp`) is parsed as it is scanned: an
//! optional sign and 1 to 18 digits that end at the field's delimiter are
//! its value. Any other field — padded, `nil`, 19 digits or more, or of
//! another type — takes the exact rule: scanned again from its start to
//! the delimiter, trimmed, checked for nil and parsed. Only that field is
//! read twice; the rest of the line keeps the one pass. The core stops at
//! any other line, where the general splitter [`split_fields`] decodes the
//! line or reports its error. [`ChunkBuilder::decode_lines`] also stops at
//! a blank line and at a bare [`StreamCommand`], which a network receptor
//! handles itself.

use std::io::Write as _;
use std::sync::Arc;

use datacell_bat::column::{Column, NIL_BOOL};
use datacell_bat::heap::StrHeap;
use datacell_bat::types::{nil_float, DataType, Value, NIL_INT, NIL_STR_CODE};
use datacell_engine::Chunk;
use datacell_sql::Schema;

use crate::error::{DataCellError, Result};

/// One raw field split out of a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field content with quoting resolved and outer whitespace trimmed
    /// (for unquoted fields).
    pub text: String,
    /// True iff the field was double-quoted in the input.
    pub quoted: bool,
}

/// Split one line into comma-separated fields, honouring double quotes.
///
/// Never fails: an unterminated quote runs to end of line (lenient, like
/// most CSV readers); the caller's type checks catch genuinely bad input.
/// This is the general splitter; the decoder takes a shortcut only for
/// lines on which it provably agrees with it (ASCII, no quote).
pub fn split_fields(line: &str) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut rest = line;
    loop {
        // Leading whitespace is not data.
        rest = rest.trim_start();
        let field = match rest.strip_prefix('"') {
            Some(quoted) => {
                let mut text = String::new();
                let mut chars = quoted.chars();
                while let Some(c) = chars.next() {
                    let next = chars.as_str().chars().next();
                    match (c, next) {
                        ('"', Some('"')) => {
                            text.push('"');
                            chars.next();
                        }
                        ('"', _) => break,
                        // The escapes that make line terminators (and the
                        // escape character itself) wire-representable.
                        ('\\', Some(e @ ('n' | 'r' | '\\'))) => {
                            text.push(match e {
                                'n' => '\n',
                                'r' => '\r',
                                _ => '\\',
                            });
                            chars.next();
                        }
                        // Anything else, an unknown escape's backslash
                        // included (lenient, like an unterminated quote,
                        // which runs to end of line), is literal.
                        (c, _) => text.push(c),
                    }
                }
                // Stray characters after the closing quote are ignored.
                let after = chars.as_str();
                rest = &after[after.find(',').unwrap_or(after.len())..];
                Field { text, quoted: true }
            }
            None => {
                let end = rest.find(',').unwrap_or(rest.len());
                // Trailing whitespace (including end-of-line) is not data.
                let text = rest[..end].trim_end().to_owned();
                rest = &rest[end..];
                Field {
                    text,
                    quoted: false,
                }
            }
        };
        fields.push(field);
        match rest.strip_prefix(',') {
            Some(next) => rest = next,
            None => break,
        }
    }
    fields
}

// ------------------------------------------------------------------ decode

/// Where decoded fields go: column builders or a value row.
trait Target {
    /// True iff column `col` holds `i64`s (an `Int` or a `Timestamp`
    /// column): the columns whose fields the core parses as it scans them.
    fn is_int(&self, col: usize) -> bool;

    /// Append `v` to column `col`, one of the [`is_int`](Target::is_int)
    /// columns.
    fn put_int(&mut self, col: usize, v: i64);

    /// Parse one field (a plain field's trimmed bytes, or a split field's
    /// text) as column `col`'s type and append it; false, appending
    /// nothing, when it is not of that type.
    fn put(&mut self, col: usize, raw: &[u8], quoted: bool) -> bool;

    /// Drop the fields appended for a row that was not completed.
    fn rollback(&mut self);
}

/// A chunk's columns and the rows completed in them.
struct Builders<'a> {
    cols: &'a mut [Column],
    rows: usize,
}

impl<'a> Builders<'a> {
    fn new(cols: &'a mut [Column]) -> Self {
        let rows = cols.first().map_or(0, Column::len);
        Builders { cols, rows }
    }
}

impl Target for Builders<'_> {
    fn is_int(&self, col: usize) -> bool {
        matches!(self.cols[col], Column::Int(_) | Column::Timestamp(_))
    }

    fn put_int(&mut self, col: usize, v: i64) {
        if let Column::Int(c) | Column::Timestamp(c) = &mut self.cols[col] {
            c.push(v);
        }
    }

    fn put(&mut self, col: usize, raw: &[u8], quoted: bool) -> bool {
        let nil = || !quoted && is_nil(raw);
        match &mut self.cols[col] {
            Column::Int(v) | Column::Timestamp(v) => {
                push(v, parse_i64(raw).or_else(|| nil().then_some(NIL_INT)))
            }
            Column::Float(v) => push(v, parse_f64(raw).or_else(|| nil().then(nil_float))),
            Column::Bool(v) => push(
                v,
                parse_bool(raw)
                    .map(i8::from)
                    .or_else(|| nil().then_some(NIL_BOOL)),
            ),
            Column::Str { codes, heap } => {
                codes.push(if nil() {
                    NIL_STR_CODE
                } else {
                    Arc::make_mut(heap).intern(utf8(raw))
                });
                true
            }
        }
    }

    fn rollback(&mut self) {
        for c in self.cols.iter_mut() {
            c.truncate(self.rows);
        }
    }
}

/// Append `x` if it parsed.
fn push<T>(v: &mut Vec<T>, x: Option<T>) -> bool {
    x.map(|x| v.push(x)).is_some()
}

/// A value row of one schema.
struct ValueRow<'s> {
    schema: &'s Schema,
    values: Vec<Value>,
}

impl Target for ValueRow<'_> {
    fn is_int(&self, col: usize) -> bool {
        matches!(
            self.schema.columns[col].ty,
            DataType::Int | DataType::Timestamp
        )
    }

    fn put_int(&mut self, col: usize, v: i64) {
        self.values.push(match self.schema.columns[col].ty {
            DataType::Timestamp => Value::Timestamp(v),
            _ => Value::Int(v),
        });
    }

    fn put(&mut self, col: usize, raw: &[u8], quoted: bool) -> bool {
        let value = if !quoted && is_nil(raw) {
            Some(Value::Nil)
        } else {
            match self.schema.columns[col].ty {
                DataType::Int => parse_i64(raw).map(Value::Int),
                DataType::Timestamp => parse_i64(raw).map(Value::Timestamp),
                DataType::Float => parse_f64(raw).map(Value::Float),
                DataType::Bool => parse_bool(raw).map(Value::Bool),
                DataType::Str => Some(Value::Str(utf8(raw).to_owned())),
            }
        };
        push(&mut self.values, value)
    }

    fn rollback(&mut self) {
        self.values.clear();
    }
}

/// The decoder core: decode the line at the front of `bytes` into `out`
/// if it is plain, and return where it ends (the index of its `\n`, or the
/// end of `bytes`).
///
/// A plain line is ASCII without a quote and has `width` fields, each of
/// its column's type. Each field is the span between two commas with
/// whitespace — `\r` included, so CRLF framing needs no pass of its own —
/// trimmed, which is exactly what [`split_fields`] makes of such a line.
/// Any other line is `None`: it needs the general rules, and `out` may
/// hold a prefix of its row for the caller to roll back.
///
/// A field of an integer column is parsed while it is scanned: an
/// optional sign and 1 to 18 digits ending right at the field's delimiter
/// are its value, which is what [`parse_i64`] makes of them. Any other
/// field — padded, `nil`, longer, or of another type — is scanned again
/// from its start by the exact rule: to a [`SPECIAL`] byte, trimmed, and
/// parsed by [`Target::put`].
#[inline(always)]
fn plain_row<T: Target>(bytes: &[u8], width: usize, out: &mut T) -> Option<usize> {
    let last = width.checked_sub(1)?;
    let mut at = 0;
    for col in 0..width {
        let start = at;
        // The field's delimiter: a comma, or the line's end after the last.
        let ends = |at: usize| match bytes.get(at) {
            Some(b',') => col < last,
            Some(b'\n') | None => col == last,
            _ => false,
        };
        if out.is_int(col) {
            if let Some((v, end)) = scan_int(bytes, start) {
                if ends(end) {
                    out.put_int(col, v);
                    at = end + 1;
                    continue;
                }
            }
        }
        while at < bytes.len() && !SPECIAL[usize::from(bytes[at])] {
            at += 1;
        }
        if !ends(at) || !out.put(col, trim_whitespace(&bytes[start..at]), false) {
            return None;
        }
        at += 1;
    }
    Some(at - 1)
}

/// The integer fast shape at `bytes[start..]`: an optional sign and 1 to
/// 18 digits (too few to overflow), as a value and the index just past
/// the last digit. `None` is any other field, for the exact rule.
#[inline(always)]
fn scan_int(bytes: &[u8], start: usize) -> Option<(i64, usize)> {
    let (neg, first) = match bytes.get(start) {
        Some(b'-') => (true, start + 1),
        Some(b'+') => (false, start + 1),
        _ => (false, start),
    };
    let mut at = first;
    let mut v: i64 = 0;
    while let Some(&b) = bytes.get(at) {
        let d = b.wrapping_sub(b'0');
        if d > 9 || at - first == 18 {
            break;
        }
        v = v * 10 + i64::from(d);
        at += 1;
    }
    // After 18 digits `at` rests on any 19th, which is not a delimiter.
    (at > first).then_some((if neg { -v } else { v }, at))
}

/// The bytes that end a plain field's scan: the delimiter, the line end,
/// a quote and every non-ASCII byte.
const SPECIAL: [bool; 256] = {
    let mut t = [false; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = b >= 0x80 || b == b',' as usize || b == b'\n' as usize || b == b'"' as usize;
        b += 1;
    }
    t
};

/// Decode one line (without its terminator) into `out`: the core, or the
/// general rules of [`split_fields`] where it stops. On error nothing of
/// the line is left in `out`.
fn decode<T: Target>(line: &[u8], schema: &Schema, out: &mut T) -> Result<()> {
    // A line with an embedded `\n` is not one plain line.
    if plain_row(line, schema.len(), out) == Some(line.len()) {
        return Ok(());
    }
    out.rollback();
    // Quotes, escapes, Unicode whitespace, errors: the general splitter.
    let text = String::from_utf8_lossy(line);
    let fields = split_fields(&text);
    if fields.len() != schema.len() {
        return Err(arity_error(fields.len(), schema));
    }
    for (i, (f, cd)) in fields.iter().zip(&schema.columns).enumerate() {
        if !out.put(i, f.text.as_bytes(), f.quoted) {
            out.rollback();
            return Err(DataCellError::Decode(format!(
                "cannot parse {:?} as {}",
                f.text, cd.ty
            )));
        }
    }
    Ok(())
}

/// An in-stream command of a network receptor's line stream: a bare word,
/// in any case, that is never read as a tuple. A one-string-column tuple
/// that must carry exactly such a word is sent quoted (`"SYNC"`),
/// mirroring the `nil` quoting rule of the tuple format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamCommand {
    /// `SYNC` — flush everything received so far into the basket and
    /// reply `OK SYNC <accepted> <rejected>` (cumulative counts).
    Sync,
    /// `QUIT` — flush, reply `OK BYE`, close.
    Quit,
}

/// The in-stream command a line is, given without the whitespace around
/// it.
pub fn stream_command(line: &[u8]) -> Option<StreamCommand> {
    if line.eq_ignore_ascii_case(b"SYNC") {
        Some(StreamCommand::Sync)
    } else if line.eq_ignore_ascii_case(b"QUIT") {
        Some(StreamCommand::Quit)
    } else {
        None
    }
}

/// A trimmed line a network receptor does not hand the decoder: blank, or
/// an in-stream command.
fn is_reserved(line: &[u8]) -> bool {
    line.is_empty() || stream_command(line).is_some()
}

/// Trim the whitespace the wire format ignores around a field: the ASCII
/// characters `char::is_whitespace` accepts (which, unlike
/// `u8::is_ascii_whitespace`, include the vertical tab). On an ASCII line
/// this is exactly `str::trim`.
pub fn trim_whitespace(mut b: &[u8]) -> &[u8] {
    let ws = |c: &u8| matches!(c, b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r');
    while b.first().is_some_and(ws) {
        b = &b[1..];
    }
    while b.last().is_some_and(ws) {
        b = &b[..b.len() - 1];
    }
    b
}

/// A field's text: a `str`'s bytes, or ASCII.
fn utf8(raw: &[u8]) -> &str {
    std::str::from_utf8(raw).expect("fields are UTF-8")
}

/// The unquoted tokens that denote SQL NULL.
fn is_nil(raw: &[u8]) -> bool {
    raw.eq_ignore_ascii_case(b"nil") || raw.eq_ignore_ascii_case(b"null")
}

/// `str::parse::<i64>` on UTF-8 bytes, with [`scan_int`] for the common
/// case: an optional sign and up to 18 digits cannot overflow; anything
/// else takes the standard parser, so the accepted language is exactly
/// its.
fn parse_i64(raw: &[u8]) -> Option<i64> {
    match scan_int(raw, 0) {
        Some((v, end)) if end == raw.len() => Some(v),
        _ => std::str::from_utf8(raw).ok()?.parse().ok(),
    }
}

fn parse_f64(raw: &[u8]) -> Option<f64> {
    utf8(raw).parse().ok()
}

fn parse_bool(raw: &[u8]) -> Option<bool> {
    let is = |w: &[u8]| raw.eq_ignore_ascii_case(w);
    if is(b"true") || is(b"t") || is(b"1") {
        Some(true)
    } else if is(b"false") || is(b"f") || is(b"0") {
        Some(false)
    } else {
        None
    }
}

fn arity_error(fields: usize, schema: &Schema) -> DataCellError {
    DataCellError::Decode(format!(
        "tuple has {fields} fields, schema {} wants {}",
        schema.render(),
        schema.len()
    ))
}

/// Parse one textual tuple against a user schema (see module docs for the
/// format rules) into a value row — the decoder of [`ChunkBuilder`] aimed
/// at a `Vec<Value>`.
pub fn parse_tuple(line: &str, schema: &Schema) -> Result<Vec<Value>> {
    let mut row = ValueRow {
        schema,
        values: Vec::with_capacity(schema.len()),
    };
    decode(line.as_bytes(), schema, &mut row).map(|()| row.values)
}

/// Typed column builders for rows of one schema: lines decode straight
/// into them ([`ChunkBuilder::decode_line`]), value rows coerce into them
/// ([`ChunkBuilder::push_row`]), and the result is a ready [`Chunk`] for
/// [`Basket::append_chunk`](crate::Basket::append_chunk). A rejected row
/// leaves the builders exactly as they were.
#[derive(Debug, Clone)]
pub struct ChunkBuilder {
    chunk: Chunk,
}

impl ChunkBuilder {
    /// Empty builders for `schema`.
    pub fn new(schema: Schema) -> Self {
        ChunkBuilder {
            chunk: Chunk::empty(schema),
        }
    }

    /// The schema rows are decoded and validated against.
    pub fn schema(&self) -> &Schema {
        &self.chunk.schema
    }

    /// Rows built so far.
    pub fn len(&self) -> usize {
        self.chunk.len()
    }

    /// True iff no rows are built.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows built so far, as a chunk of the builder's schema.
    pub fn chunk(&self) -> &Chunk {
        &self.chunk
    }

    /// Decode one textual tuple (a line without its `\n`) and append it;
    /// malformed input is a [`DataCellError::Decode`] and appends nothing.
    pub fn decode_line(&mut self, line: &[u8]) -> Result<()> {
        let mut out = Builders::new(&mut self.chunk.columns);
        decode(line, &self.chunk.schema, &mut out)
    }

    /// Decode the complete `\n`-terminated lines at the front of `bytes`
    /// (`\r`s before a `\n` are not data) in one pass and append them, up
    /// to `max_rows` rows. Returns the bytes consumed and the rows
    /// appended.
    ///
    /// It stops before the first line that needs the general rules of
    /// [`decode_line`](ChunkBuilder::decode_line) — a quote, a non-ASCII
    /// byte, or anything malformed — or a receptor's own rules: a blank
    /// line or a bare [`StreamCommand`]. It also stops before a line whose
    /// `\n` is not in `bytes`. A line it stops at leaves the builders
    /// untouched; hand it to `decode_line` (or to the caller's own line
    /// rules) and resume after it.
    pub fn decode_lines(&mut self, bytes: &[u8], max_rows: usize) -> (usize, usize) {
        let width = self.chunk.schema.len();
        let mut out = Builders::new(&mut self.chunk.columns);
        let (start, mut consumed) = (out.rows, 0);
        while out.rows - start < max_rows {
            let rest = &bytes[consumed..];
            match plain_row(rest, width, &mut out) {
                // A complete line, and not one a receptor keeps for itself
                // (only a one-field line can be blank or a command).
                Some(end)
                    if end < rest.len()
                        && (width > 1 || !is_reserved(trim_whitespace(&rest[..end]))) =>
                {
                    consumed += end + 1;
                    out.rows += 1;
                }
                _ => {
                    out.rollback();
                    break;
                }
            }
        }
        (consumed, out.rows - start)
    }

    /// Append one value row, coercing each value to its column type (the
    /// rules of SQL `INSERT`); a row of the wrong arity or with a value
    /// that has no lossless coercion is a [`DataCellError::Decode`] and
    /// appends nothing.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        let schema = &self.chunk.schema;
        if row.len() != schema.len() {
            return Err(DataCellError::Decode(format!(
                "row arity {} != schema {} arity {}",
                row.len(),
                schema.render(),
                schema.len()
            )));
        }
        let rows = self.chunk.len();
        let columns = &mut self.chunk.columns;
        for (i, (c, v)) in columns.iter_mut().zip(row).enumerate() {
            if c.push(v).is_err() {
                columns[..i].iter_mut().for_each(|c| c.truncate(rows));
                let cd = &schema.columns[i];
                return Err(DataCellError::Decode(format!(
                    "column {}: cannot coerce {v} to {}",
                    cd.name, cd.ty
                )));
            }
        }
        Ok(())
    }

    /// Drop the first `n` rows (they were appended elsewhere).
    pub fn drop_head(&mut self, n: usize) {
        for c in &mut self.chunk.columns {
            c.drop_head(n);
        }
    }

    /// Drop every row; string columns start a new dictionary.
    pub fn clear(&mut self) {
        for c in &mut self.chunk.columns {
            match c {
                Column::Str { .. } => *c = Column::empty(DataType::Str),
                c => c.clear(),
            }
        }
    }
}

// ------------------------------------------------------------------ render

/// One column as the renderer reads it.
enum RenderCol<'a> {
    /// Integers and timestamps (both `i64`, rendered the same way).
    Int(&'a [i64]),
    Float(&'a [f64]),
    Bool(&'a [i8]),
    Str {
        codes: &'a [u32],
        heap: &'a StrHeap,
    },
}

/// Renders a chunk's rows as wire lines (each ending in `\n`) straight
/// from its column slices, byte-identical to [`render_row`] on the same
/// values.
pub struct ChunkRenderer<'a> {
    cols: Vec<RenderCol<'a>>,
    rows: usize,
}

impl<'a> ChunkRenderer<'a> {
    /// Render the first `width` columns of `chunk` (a basket chunk's user
    /// columns, leaving out its trailing `ts`).
    pub fn new(chunk: &'a Chunk, width: usize) -> Self {
        let rows = chunk.len();
        let cols = chunk
            .columns
            .iter()
            .take(width)
            .map(|c| match c {
                Column::Int(v) | Column::Timestamp(v) => RenderCol::Int(v),
                Column::Float(v) => RenderCol::Float(v),
                Column::Bool(v) => RenderCol::Bool(v),
                Column::Str { codes, heap } => RenderCol::Str { codes, heap },
            })
            .collect();
        ChunkRenderer { cols, rows }
    }

    /// Rows in the chunk.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True iff the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append rows from `from` on to `out` until the chunk ends or the
    /// next row would take `out` past `limit` bytes (the first row is
    /// always appended); returns the first row not rendered.
    pub fn render_until(&self, from: usize, limit: usize, out: &mut Vec<u8>) -> usize {
        let mut row = from;
        while row < self.rows && (row == from || out.len() < limit) {
            let mark = out.len();
            self.render_row(row, out);
            if out.len() > limit && row > from {
                out.truncate(mark);
                break;
            }
            row += 1;
        }
        row
    }

    fn render_row(&self, i: usize, out: &mut Vec<u8>) {
        for (j, col) in self.cols.iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            match col {
                RenderCol::Int(v) => write_int(out, v[i]),
                RenderCol::Float(v) => write_float(out, v[i]),
                RenderCol::Bool(v) => write_bool(out, v[i]),
                RenderCol::Str { codes, heap } => match heap.get(codes[i]) {
                    None => out.extend_from_slice(b"nil"),
                    Some(s) => write_str(out, s, needs_quoting(s)),
                },
            }
        }
        out.push(b'\n');
    }
}

/// Append every row of `chunk`'s first `width` columns to `out` as wire
/// lines, each ending in `\n`.
pub fn render_chunk_into(chunk: &Chunk, width: usize, out: &mut Vec<u8>) {
    ChunkRenderer::new(chunk, width).render_until(0, usize::MAX, out);
}

/// Render a row as one wire line (no terminator) — the field writers of
/// [`ChunkRenderer`] applied to values; parses back to the same values.
pub fn render_row(row: &[Value]) -> String {
    let mut out = Vec::with_capacity(row.len() * 8);
    for (j, v) in row.iter().enumerate() {
        if j > 0 {
            out.push(b',');
        }
        match v {
            Value::Nil => out.extend_from_slice(b"nil"),
            Value::Int(x) | Value::Timestamp(x) => write_int(&mut out, *x),
            Value::Float(x) => write_float(&mut out, *x),
            Value::Bool(b) => write_bool(&mut out, i8::from(*b)),
            Value::Str(s) => write_str(&mut out, s, needs_quoting(s)),
        }
    }
    String::from_utf8(out).expect("rendered fields are UTF-8")
}

/// `"00" "01" … "99"`: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

fn write_int(out: &mut Vec<u8>, v: i64) {
    if v == NIL_INT {
        out.extend_from_slice(b"nil");
        return;
    }
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut n = v.unsigned_abs();
    while n >= 100 {
        let d = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if n >= 10 {
        let d = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    if v < 0 {
        out.push(b'-');
    }
    out.extend_from_slice(&buf[at..]);
}

fn write_float(out: &mut Vec<u8>, v: f64) {
    if v.is_nan() {
        out.extend_from_slice(b"nil");
    } else {
        write!(out, "{v}").expect("writing to a Vec cannot fail");
    }
}

fn write_bool(out: &mut Vec<u8>, v: i8) {
    out.extend_from_slice(match v {
        0 => b"false".as_slice(),
        1 => b"true",
        _ => b"nil",
    });
}

/// Write a string field, quoted and escaped when `quoted`: backslash,
/// quote and the two line terminators are the only bytes that change.
fn write_str(out: &mut Vec<u8>, s: &str, quoted: bool) {
    if !quoted {
        out.extend_from_slice(s.as_bytes());
        return;
    }
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'"' => out.extend_from_slice(b"\"\""),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            _ => out.push(b),
        }
    }
    out.push(b'"');
}

/// Strings that would otherwise be ambiguous are quoted: an embedded
/// comma/quote/newline/backslash, outer whitespace, empty, or a bare
/// `nil`/`null`.
fn needs_quoting(s: &str) -> bool {
    s.is_empty()
        || s.contains(',')
        || s.contains('"')
        || s.contains('\\')
        || s.contains('\n')
        || s.contains('\r')
        || s != s.trim()
        || s.eq_ignore_ascii_case("nil")
        || s.eq_ignore_ascii_case("null")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(tys: &[DataType]) -> Schema {
        Schema::new(
            tys.iter()
                .enumerate()
                .map(|(i, &ty)| (format!("c{i}"), ty))
                .collect(),
        )
    }

    #[test]
    fn parse_tuple_types_and_nil() {
        let schema = Schema::new(vec![
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Float),
            ("c".into(), DataType::Str),
            ("d".into(), DataType::Bool),
        ]);
        let row = parse_tuple("1, 2.5, hello, true", &schema).unwrap();
        assert_eq!(
            row,
            vec![
                Value::Int(1),
                Value::Float(2.5),
                Value::Str("hello".into()),
                Value::Bool(true)
            ]
        );
        let row = parse_tuple("nil, NULL, x, f", &schema).unwrap();
        assert_eq!(row[0], Value::Nil);
        assert_eq!(row[1], Value::Nil);
        assert!(parse_tuple("1, 2.5, x", &schema).is_err());
        assert!(parse_tuple("oops, 2.5, x, t", &schema).is_err());
    }

    #[test]
    fn quoted_strings_keep_delimiters_and_whitespace() {
        let s = schema(&[DataType::Str, DataType::Int]);
        let row = parse_tuple(r#""a,b", 2"#, &s).unwrap();
        assert_eq!(row[0], Value::Str("a,b".into()));
        assert_eq!(row[1], Value::Int(2));
        let row = parse_tuple(r#""  padded  ",7"#, &s).unwrap();
        assert_eq!(row[0], Value::Str("  padded  ".into()));
    }

    #[test]
    fn escaped_quotes_roundtrip() {
        let s = schema(&[DataType::Str]);
        let row = parse_tuple(r#""he said ""hi""""#, &s).unwrap();
        assert_eq!(row[0], Value::Str(r#"he said "hi""#.into()));
    }

    #[test]
    fn null_tokens_unquoted_only() {
        let s = schema(&[DataType::Str, DataType::Str, DataType::Int]);
        let row = parse_tuple(r#"nil, "nil", NULL"#, &s).unwrap();
        assert_eq!(row[0], Value::Nil);
        assert_eq!(row[1], Value::Str("nil".into()), "quoted nil is a string");
        assert_eq!(row[2], Value::Nil);
    }

    #[test]
    fn trailing_whitespace_ignored() {
        let s = schema(&[DataType::Int, DataType::Str]);
        let row = parse_tuple("  1  ,  x  \t", &s).unwrap();
        assert_eq!(row, vec![Value::Int(1), Value::Str("x".into())]);
    }

    #[test]
    fn arity_and_type_errors_are_decode_errors() {
        let s = schema(&[DataType::Int, DataType::Int]);
        assert!(matches!(
            parse_tuple("1", &s),
            Err(DataCellError::Decode(_))
        ));
        assert!(matches!(
            parse_tuple("1, x", &s),
            Err(DataCellError::Decode(_))
        ));
    }

    #[test]
    fn render_parse_roundtrip() {
        let s = schema(&[DataType::Str, DataType::Str, DataType::Int, DataType::Float]);
        let rows = [
            vec![
                Value::Str("plain".into()),
                Value::Str("a, \"b\"".into()),
                Value::Int(-3),
                Value::Float(2.5),
            ],
            vec![
                Value::Str("nil".into()),
                Value::Str("  spaced ".into()),
                Value::Nil,
                Value::Nil,
            ],
            vec![
                Value::Str(String::new()),
                Value::Str(",".into()),
                Value::Int(0),
                Value::Float(0.0),
            ],
        ];
        for row in rows {
            let line = render_row(&row);
            let back = parse_tuple(&line, &s).unwrap();
            assert_eq!(back, row, "line was {line:?}");
        }
    }

    #[test]
    fn newlines_and_backslashes_roundtrip_on_one_line() {
        let s = schema(&[DataType::Str, DataType::Str]);
        let rows = [
            vec![Value::Str("line1\nline2".into()), Value::Str("\r\n".into())],
            // A literal backslash-n must stay distinct from a newline.
            vec![Value::Str("back\\slash".into()), Value::Str("\\n".into())],
            vec![Value::Str("mix\",\n\\".into()), Value::Str(String::new())],
        ];
        for row in rows {
            let line = render_row(&row);
            assert!(
                !line.contains('\n') && !line.contains('\r'),
                "rendered frame stays a single line: {line:?}"
            );
            assert_eq!(parse_tuple(&line, &s).unwrap(), row, "line {line:?}");
        }
        // An unrecognized escape keeps its backslash (lenient).
        let row = parse_tuple(r#""a\x""#, &schema(&[DataType::Str])).unwrap();
        assert_eq!(row[0], Value::Str("a\\x".into()));
    }

    #[test]
    fn unterminated_quote_is_lenient() {
        let s = schema(&[DataType::Str]);
        let row = parse_tuple(r#""open ended"#, &s).unwrap();
        assert_eq!(row[0], Value::Str("open ended".into()));
    }

    #[test]
    fn rejected_line_leaves_builders_untouched() {
        let s = schema(&[DataType::Int, DataType::Str, DataType::Float]);
        let mut b = ChunkBuilder::new(s);
        b.decode_line(b"1, a, 1.5").unwrap();
        // Fails on the last field, after two fields were appended.
        assert!(b.decode_line(b"2, b, x").is_err());
        // Fails in the general (quoted) path, too.
        assert!(b.decode_line(br#"3, "c", x"#).is_err());
        assert!(b.decode_line(b"4, d").is_err());
        assert_eq!(b.len(), 1);
        assert!(b.chunk().columns.iter().all(|c| c.len() == 1));
        b.decode_line(b"5, \"e,f\", nil").unwrap();
        assert_eq!(
            b.chunk().rows().unwrap(),
            vec![
                vec![Value::Int(1), Value::Str("a".into()), Value::Float(1.5)],
                vec![Value::Int(5), Value::Str("e,f".into()), Value::Nil],
            ]
        );
    }

    #[test]
    fn decode_lines_leaves_blank_and_command_lines_to_the_receptor() {
        // One string column would take each of these words as a tuple.
        let mut b = ChunkBuilder::new(schema(&[DataType::Str]));
        for stop in ["SYNC", " sync \r", "\x0BQuit\x0C", "", " \t\r"] {
            let buf = format!("a\n{stop}\nb\n");
            assert_eq!(
                b.decode_lines(buf.as_bytes(), usize::MAX),
                (2, 1),
                "{stop:?}"
            );
        }
        // A quoted line takes the general rules, and the one-line decoder
        // knows no commands.
        assert_eq!(b.decode_lines(b"\"SYNC\"\nb\n", usize::MAX), (0, 0));
        b.decode_line(b"QUIT").unwrap();
        assert_eq!(b.len(), 6);
        assert_eq!(b.chunk().row(5).unwrap(), vec![Value::Str("QUIT".into())]);
    }

    #[test]
    fn integer_fields_take_the_exact_rule_one_at_a_time() {
        let s = schema(&[DataType::Int, DataType::Timestamp, DataType::Int]);
        // Fast-shape and exact-rule fields on one line, in one pass.
        let mut b = ChunkBuilder::new(s.clone());
        let buf = b"1, 2 ,nil\n+0,-7,007\n0000000000000000042,3\t,-\n";
        assert_eq!(b.decode_lines(buf, usize::MAX), (20, 2));
        let rows = b.chunk().rows().unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Timestamp(2), Value::Nil],
                vec![Value::Int(0), Value::Timestamp(-7), Value::Int(7)],
            ]
        );
        // The line it stopped at (a bare `-`) is rejected as before.
        assert!(b.decode_line(b"0000000000000000042,3\t,-").is_err());
        for (line, want) in [
            ("1, 2 ,nil", [1, 2, NIL_INT]),
            ("0000000000000000042,3\t,4\x0b", [42, 3, 4]),
            (
                "-9223372036854775807,+123456789012345678,\x0c9\x0c",
                [i64::MIN + 1, 123456789012345678, 9],
            ),
        ] {
            let mut one = ChunkBuilder::new(s.clone());
            one.decode_line(line.as_bytes()).unwrap();
            let got: Vec<i64> = one
                .chunk()
                .columns
                .iter()
                .map(|c| c.as_i64s().unwrap()[0])
                .collect();
            assert_eq!(got, want, "{line:?}");
            let row = parse_tuple(line, &s).unwrap();
            assert_eq!(row, one.chunk().rows().unwrap()[0], "{line:?}");
        }
        for line in [
            "+-1,0,0",
            "1,2,9223372036854775808",
            "1,2",
            "1,2,3,",
            "1,2,3 4",
        ] {
            assert!(parse_tuple(line, &s).is_err(), "{line:?}");
            assert_eq!(b.decode_lines(format!("{line}\n").as_bytes(), 1), (0, 0));
        }
    }

    #[test]
    fn push_row_coerces_or_rejects_whole_rows() {
        let mut b = ChunkBuilder::new(schema(&[DataType::Float, DataType::Timestamp]));
        b.push_row(&[Value::Int(2), Value::Int(7)]).unwrap();
        assert!(b.push_row(&[Value::Int(1)]).is_err());
        assert!(b
            .push_row(&[Value::Float(1.0), Value::Str("x".into())])
            .is_err());
        assert_eq!(
            b.chunk().rows().unwrap(),
            vec![vec![Value::Float(2.0), Value::Timestamp(7)]]
        );
        // Typed rows land as they are; a NaN of any payload is the
        // canonical nil, and a row that fails after a typed prefix leaves
        // nothing behind.
        let odd_nan = f64::from_bits(0xfff8_0000_0000_0001);
        b.push_row(&[Value::Float(odd_nan), Value::Timestamp(8)])
            .unwrap();
        b.push_row(&[Value::Nil, Value::Nil]).unwrap();
        assert!(b.push_row(&[Value::Float(1.5), Value::Float(2.5)]).is_err());
        b.push_row(&[Value::Float(1.5), Value::Int(9)]).unwrap();
        let floats = b.chunk().columns[0].as_floats().unwrap();
        assert_eq!(floats[1].to_bits(), nil_float().to_bits());
        assert_eq!(
            b.chunk().rows().unwrap()[1..],
            [
                vec![Value::Nil, Value::Timestamp(8)],
                vec![Value::Nil, Value::Nil],
                vec![Value::Float(1.5), Value::Timestamp(9)],
            ]
        );
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn chunk_rendering_matches_row_rendering_and_splits_on_limit() {
        let s = schema(&[
            DataType::Int,
            DataType::Str,
            DataType::Bool,
            DataType::Float,
        ]);
        let mut b = ChunkBuilder::new(s);
        for line in [
            "-9223372036854775807, plain, t, 2.5",
            "0, \"a,b\", f, -0.0",
            "nil, nil, nil, nil",
            "42, \" padded \", true, inf",
            "7, plain, 0, 1e300",
        ] {
            b.decode_line(line.as_bytes()).unwrap();
        }
        let chunk = b.chunk();
        let mut want = String::new();
        for row in chunk.rows().unwrap() {
            want.push_str(&render_row(&row));
            want.push('\n');
        }
        let mut out = Vec::new();
        render_chunk_into(chunk, 4, &mut out);
        assert_eq!(String::from_utf8(out).unwrap(), want);

        // Pieces under a tiny limit: one row each, concatenating to the
        // same text.
        let r = ChunkRenderer::new(chunk, 4);
        let (mut from, mut pieces, mut all) = (0, 0, Vec::new());
        while from < r.len() {
            let mut piece = Vec::new();
            let next = r.render_until(from, 8, &mut piece);
            assert_eq!(next, from + 1);
            all.extend(piece);
            from = next;
            pieces += 1;
        }
        assert_eq!(pieces, 5);
        assert_eq!(String::from_utf8(all).unwrap(), want);
    }
}
