//! Property/fuzz tier for the `datacell::text` wire framing.
//!
//! With the TCP transport, the text decoder became the network trust
//! boundary: whatever bytes a remote client sends must come back as a row
//! or a [`DataCellError::Decode`] — never a panic, never a non-decode
//! error class. And whatever the engine renders must parse back to exactly
//! the same values (`render ∘ parse = id`), or subscribers would silently
//! see different data than the engine produced.
//!
//! The decoder and renderer work on columns (bytes straight into column
//! builders, column slices straight into a byte buffer). The properties
//! are differential: [`reference`] keeps the row-at-a-time
//! implementation the columnar code replaced — `split_fields`,
//! `parse_tuple`, `render_row`, bodies unchanged — and both directions
//! must agree with it byte for byte, on rows, on rejected lines and on
//! error messages.
//!
//! The framing is line-based, yet **every** string value is
//! wire-representable: rendering backslash-escapes `\n`/`\r` (and `\\`)
//! inside quoted fields, so a rendered row is always a single line and
//! embedded line terminators survive the round trip (documented in
//! `docs/protocol.md`).

use datacell::error::DataCellError;
use datacell::text::{
    parse_tuple, render_chunk_into, render_row, split_fields, stream_command, ChunkBuilder,
};
use datacell_bat::types::{DataType, Value};
use datacell_sql::Schema;
use proptest::prelude::*;

/// The row-at-a-time wire format, as it was before the decoder and the
/// renderer went columnar: the oracle of every property below.
mod reference {
    use datacell_bat::types::{DataType, Value};
    use datacell_sql::Schema;

    /// One raw field split out of a line.
    pub struct Field {
        pub text: String,
        pub quoted: bool,
    }

    pub fn split_fields(line: &str) -> Vec<Field> {
        let mut fields = Vec::new();
        let mut chars = line.chars().peekable();
        loop {
            while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
                chars.next();
            }
            let mut text = String::new();
            let mut quoted = false;
            if chars.peek() == Some(&'"') {
                quoted = true;
                chars.next();
                loop {
                    match chars.next() {
                        Some('"') => {
                            if chars.peek() == Some(&'"') {
                                text.push('"');
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        Some('\\') => match chars.peek() {
                            Some('n') => {
                                text.push('\n');
                                chars.next();
                            }
                            Some('r') => {
                                text.push('\r');
                                chars.next();
                            }
                            Some('\\') => {
                                text.push('\\');
                                chars.next();
                            }
                            _ => text.push('\\'),
                        },
                        Some(c) => text.push(c),
                        None => break,
                    }
                }
                while matches!(chars.peek(), Some(c) if *c != ',') {
                    chars.next();
                }
            } else {
                while matches!(chars.peek(), Some(c) if *c != ',') {
                    text.push(chars.next().expect("peeked"));
                }
                text.truncate(text.trim_end().len());
            }
            fields.push(Field { text, quoted });
            match chars.next() {
                Some(',') => continue,
                _ => break,
            }
        }
        fields
    }

    pub fn parse_tuple(line: &str, schema: &Schema) -> Result<Vec<Value>, String> {
        let fields = split_fields(line);
        if fields.len() != schema.len() {
            return Err(format!(
                "tuple has {} fields, schema {} wants {}",
                fields.len(),
                schema.render(),
                schema.len()
            ));
        }
        fields
            .iter()
            .zip(&schema.columns)
            .map(|(field, cd)| {
                let raw = field.text.as_str();
                if !field.quoted
                    && (raw.eq_ignore_ascii_case("nil") || raw.eq_ignore_ascii_case("null"))
                {
                    return Ok(Value::Nil);
                }
                let v = match cd.ty {
                    DataType::Int => Value::Int(raw.parse().map_err(|_| bad_field(raw, cd.ty))?),
                    DataType::Float => {
                        Value::Float(raw.parse().map_err(|_| bad_field(raw, cd.ty))?)
                    }
                    DataType::Bool => match raw.to_ascii_lowercase().as_str() {
                        "true" | "t" | "1" => Value::Bool(true),
                        "false" | "f" | "0" => Value::Bool(false),
                        _ => return Err(bad_field(raw, cd.ty)),
                    },
                    DataType::Str => Value::Str(raw.to_string()),
                    DataType::Timestamp => {
                        Value::Timestamp(raw.parse().map_err(|_| bad_field(raw, cd.ty))?)
                    }
                };
                Ok(v)
            })
            .collect()
    }

    fn bad_field(raw: &str, ty: DataType) -> String {
        format!("cannot parse {raw:?} as {ty}")
    }

    pub fn render_field(v: &Value) -> String {
        match v {
            Value::Str(s) if needs_quoting(s) => {
                let escaped = s
                    .replace('\\', "\\\\")
                    .replace('"', "\"\"")
                    .replace('\n', "\\n")
                    .replace('\r', "\\r");
                format!("\"{escaped}\"")
            }
            other => other.to_string(),
        }
    }

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

    pub fn render_row(row: &[Value]) -> String {
        row.iter().map(render_field).collect::<Vec<_>>().join(",")
    }
}

/// Compare a decode against the reference: the same values (floats by
/// bit pattern, via `Debug`) or the same decode error message.
fn assert_same_decode(
    got: &Result<Vec<Value>, DataCellError>,
    want: &Result<Vec<Value>, String>,
    line: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_eq!(format!("{g:?}"), format!("{w:?}"), "line {line:?}"),
        (Err(DataCellError::Decode(g)), Err(w)) => assert_eq!(g, w, "line {line:?}"),
        _ => panic!("line {line:?}: decoder {got:?}, reference {want:?}"),
    }
}

/// A value as a column stores it: the in-band nil sentinels read back as
/// nil (`i64::MIN`, NaN).
fn stored(v: &Value) -> Value {
    if v.is_nil() {
        Value::Nil
    } else {
        v.clone()
    }
}

/// Characters a round-trippable string value may contain: quoting and
/// delimiter edge cases, whitespace, `nil` fragments, unicode, controls —
/// including the line terminators and the backslash, which the quoted
/// escape (`\n`, `\r`, `\\`) carries across the line-based framing.
const VALUE_PALETTE: &[char] = &[
    'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '\t', ',', '"', '\'', 'n', 'i', 'l', 'N', 'U', 'L',
    '.', '-', '+', 'e', 'é', '→', '\u{1}', '\\', '/', ';', ':', '[', ']', '(', ')', '\n', '\r',
    '\u{b}', '\u{3000}', '\u{a0}',
];

/// The full hostile palette for the never-panic property: adds the line
/// terminators and NUL.
const FUZZ_PALETTE: &[char] = &[
    'a', '1', ' ', '\t', ',', '"', '\'', 'n', 'i', 'l', '.', '-', '+', 'e', '\n', '\r', '\u{0}',
    '\u{7f}', 'é', '→',
];

/// Byte atoms hostile input is assembled from: numbers at and past the
/// `i64` edges, float spellings (`-0.0`, `inf`, `NaN`), `nil`/`NULL` in
/// any case, booleans, every ASCII whitespace (vertical tab included),
/// Unicode whitespace (U+3000, NBSP, NEL) and a BOM around them, quotes
/// and escapes, controls, and bytes that are not UTF-8 at all.
const BYTE_ATOMS: &[&[u8]] = &[
    b"0",
    b"7",
    b"42",
    b"-",
    b"+",
    b".",
    b"e",
    b"5",
    b"9223372036854775807",
    b"-9223372036854775808",
    b"9223372036854775808",
    b"123456789012345678",
    b"-0.0",
    b"1e308",
    b"2.5",
    b"inf",
    b"-inf",
    b"NaN",
    b"infinity",
    b"nil",
    b"NIL",
    b"Null",
    b"null",
    b"true",
    b"F",
    b"t",
    b"1",
    b"a",
    b"xyz",
    b"SYNC",
    b" ",
    b" ",
    b"\t",
    b"\x0b",
    b"\x0c",
    b"\r",
    b"\0",
    b"\x7f",
    b",",
    b",",
    b"\"",
    b"\"\"",
    b"\\",
    b"\\n",
    b"\\r",
    b"\\\\",
    b"'",
    b"\xc3\xa9",
    b"\xe2\x86\x92",
    b"\xe3\x80\x80",
    b"\xc2\xa0",
    b"\xc2\x85",
    b"\xef\xbb\xbf",
    b"\xff",
    b"\xc3",
    b"\x80",
];

/// Line terminators between generated lines: LF, CRLF, and blank lines.
const TERMINATORS: &[&[u8]] = &[b"\n", b"\n", b"\r\n", b"\n\n", b"\n \r\n", b"\r\r\n"];

/// Byte atoms for all-integer schemas, where the decoder parses a field
/// while it scans it: the fast shape (a sign and up to 18 digits) and
/// everything next to it that must take the exact rule — 19 or more
/// digits (in range with leading zeros, and past the `i64` edges), `+0`,
/// a bare sign, `+-1`, `007`, whitespace (tab, VT, FF) between a digit
/// and the delimiter, `nil`, and non-integers.
const INT_ATOMS: &[&[u8]] = &[
    b"0",
    b"7",
    b"42",
    b"-",
    b"+",
    b"+0",
    b"+-1",
    b"007",
    b"-12",
    b"123456789012345678",
    b"0000000000000000042",
    b"-00000000000000000000042",
    b"1234567890123456789",
    b"9223372036854775807",
    b"-9223372036854775808",
    b"9223372036854775808",
    b"99999999999999999999",
    b"5\t",
    b"6\x0b",
    b"8\x0c",
    b" ",
    b"\t",
    b"\x0b",
    b"\x0c",
    b"\r",
    b"nil",
    b"NULL",
    b",",
    b"1.5",
    b"x",
];

fn string_from(palette: &'static [char], max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(
        (0usize..palette.len()).prop_map(move |i| palette[i]),
        0..max,
    )
    .prop_map(|v| v.into_iter().collect())
}

/// One generated column: its declared type plus a matching value.
#[derive(Debug, Clone)]
enum ColVal {
    I(i64),
    F(i64),
    B(bool),
    S(String),
    /// A NULL in a column of the tagged type (0..4).
    NilOf(usize),
}

impl ColVal {
    fn ty(&self) -> DataType {
        match self {
            ColVal::I(_) => DataType::Int,
            ColVal::F(_) => DataType::Float,
            ColVal::B(_) => DataType::Bool,
            ColVal::S(_) => DataType::Str,
            ColVal::NilOf(t) => type_of_tag(*t),
        }
    }

    fn value(&self) -> Value {
        match self {
            ColVal::I(v) => Value::Int(*v),
            // Mantissa / 64 keeps the float finite and non-NaN; Rust's
            // f64 Display is shortest-exact, so any finite float
            // round-trips through text anyway.
            ColVal::F(m) => Value::Float(*m as f64 / 64.0),
            ColVal::B(b) => Value::Bool(*b),
            ColVal::S(s) => Value::Str(s.clone()),
            ColVal::NilOf(_) => Value::Nil,
        }
    }
}

fn type_of_tag(t: usize) -> DataType {
    match t % 5 {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Bool,
        3 => DataType::Str,
        _ => DataType::Timestamp,
    }
}

fn colval_strategy() -> BoxedStrategy<ColVal> {
    prop_oneof![
        3 => (-1_000_000_000i64..1_000_000_000).prop_map(ColVal::I),
        2 => (-4_000_000i64..4_000_000).prop_map(ColVal::F),
        1 => (0i64..2).prop_map(|b| ColVal::B(b == 1)),
        4 => string_from(VALUE_PALETTE, 14).prop_map(ColVal::S),
        1 => (0i64..4).prop_map(|t| ColVal::NilOf(t as usize)),
    ]
    .boxed()
}

/// A value of any type for the renderer, edges included: `i64::MAX`, the
/// least non-nil `i64`, `-0.0`, infinities, subnormals, huge floats,
/// strings that must be quoted, and nil of every type.
fn edge_value(ty: DataType, pick: i64, s: String) -> Value {
    match (ty, pick % 8) {
        (_, 0) => Value::Nil,
        (DataType::Int, 1) => Value::Int(i64::MAX),
        (DataType::Int, 2) => Value::Int(i64::MIN + 1),
        (DataType::Int, _) => Value::Int(pick * 7919 - 40_000),
        (DataType::Timestamp, 1) => Value::Timestamp(i64::MAX),
        (DataType::Timestamp, _) => Value::Timestamp(pick * 1_000_003),
        (DataType::Float, 1) => Value::Float(-0.0),
        (DataType::Float, 2) => Value::Float(f64::INFINITY),
        (DataType::Float, 3) => Value::Float(f64::NEG_INFINITY),
        (DataType::Float, 4) => Value::Float(5e-324),
        (DataType::Float, 5) => Value::Float(1.5e300),
        (DataType::Float, _) => Value::Float(pick as f64 / 64.0 - 7.0),
        (DataType::Bool, p) => Value::Bool(p % 2 == 1),
        (DataType::Str, 1) => Value::Str("NuLl".into()),
        (DataType::Str, _) => Value::Str(s),
    }
}

fn schema_of(cols: &[ColVal]) -> Schema {
    Schema::new(
        cols.iter()
            .enumerate()
            .map(|(i, c)| (format!("c{i}"), c.ty()))
            .collect(),
    )
}

fn schema_of_tags(tags: &[usize]) -> Schema {
    Schema::new(
        tags.iter()
            .enumerate()
            .map(|(i, &t)| (format!("c{i}"), type_of_tag(t)))
            .collect(),
    )
}

/// Split a byte buffer into lines the way the receptor frames them: at
/// `\n`, trailing `\r`s dropped, an unterminated tail kept.
fn frames(buf: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = buf.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    for l in &mut lines {
        while let [rest @ .., b'\r'] = *l {
            *l = rest;
        }
    }
    lines
}

/// A buffer of generated lines: each line's fields are runs of `atoms`
/// joined by commas (most lines padded or cut to the schema's arity), and
/// each line ends in one of the [`TERMINATORS`] — but the last, when
/// `unterminated` is 1.
fn assemble(
    atoms: &[&[u8]],
    schema: &Schema,
    lines: &[Vec<Vec<usize>>],
    terms: &[usize],
    fits: &[usize],
    unterminated: usize,
) -> Vec<u8> {
    let mut buf = Vec::new();
    for (n, mut fields) in lines.iter().cloned().enumerate() {
        // Most lines get the schema's arity, so typed parsing is
        // exercised and not only the arity check.
        if fits[n] > 0 {
            fields.resize(schema.len(), vec![0]);
        }
        for (i, field) in fields.iter().enumerate() {
            if i > 0 {
                buf.push(b',');
            }
            for &a in field {
                buf.extend_from_slice(atoms[a]);
            }
        }
        if n + 1 < lines.len() || unterminated == 0 {
            buf.extend_from_slice(TERMINATORS[terms[n]]);
        }
    }
    buf
}

/// Decode `buf` line by line and a read at a time (at most `room` rows a
/// `decode_lines` call, resuming with `decode_line` on each line it stops
/// at, as the receptor does), and check both against the reference (see
/// `decoded_buffers_match_reference_line_by_line`). Returns the lines
/// `decode_lines` stopped at and the lines the reference rejects.
fn check_decoded_buffer(schema: &Schema, buf: &[u8], room: usize) -> (Vec<usize>, Vec<usize>) {
    let mut builder = ChunkBuilder::new(schema.clone());
    let (mut want_rows, mut got_rejected, mut want_rejected) = (Vec::new(), Vec::new(), Vec::new());
    for (i, line) in frames(buf).into_iter().enumerate() {
        let text = String::from_utf8_lossy(line);
        let before = builder.len();
        let got = builder.decode_line(line);
        let want = reference::parse_tuple(&text, schema);
        match (&got, &want) {
            (Ok(()), Ok(row)) => want_rows.push(row.iter().map(stored).collect::<Vec<_>>()),
            (Err(DataCellError::Decode(g)), Err(w)) => {
                prop_assert_eq!(g, w, "line {:?}", text);
                prop_assert_eq!(builder.len(), before, "rejected line appended rows");
                prop_assert!(builder.chunk().columns.iter().all(|c| c.len() == before));
            }
            _ => {}
        }
        if got.is_err() {
            got_rejected.push(i);
        }
        if want.is_err() {
            want_rejected.push(i);
        }
    }
    prop_assert_eq!(
        &got_rejected,
        &want_rejected,
        "buffer {:?}",
        String::from_utf8_lossy(buf)
    );
    let got_rows = builder.chunk().rows().unwrap();
    prop_assert_eq!(format!("{got_rows:?}"), format!("{want_rows:?}"));

    // Read at a time, at most `room` rows a call (a batch's room).
    let framed = frames(buf);
    let mut bulk = ChunkBuilder::new(schema.clone());
    let (mut at, mut n, mut bulk_rejected, mut stopped) = (0, 0, Vec::new(), Vec::new());
    loop {
        let (used, rows) = bulk.decode_lines(&buf[at..], room);
        let consumed = &buf[at..at + used];
        prop_assert!(rows <= room);
        prop_assert_eq!(consumed.iter().filter(|&&b| b == b'\n').count(), rows);
        prop_assert!(
            consumed.last().is_none_or(|&b| b == b'\n'),
            "whole lines only"
        );
        for line in &framed[n..n + rows] {
            let text = String::from_utf8_lossy(line);
            let t = text.trim();
            prop_assert!(
                reference::parse_tuple(&text, schema).is_ok(),
                "consumed a rejected line {:?}",
                text
            );
            prop_assert!(
                !t.is_empty() && stream_command(t.as_bytes()).is_none(),
                "consumed a blank line or a command {:?}",
                text
            );
        }
        at += used;
        n += rows;
        if rows == room {
            continue;
        }
        if n == framed.len() {
            break;
        }
        // The line it stopped at, through the one-line decoder.
        let end = buf[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(buf.len(), |i| at + i + 1);
        let line = framed[n];
        prop_assert!(buf[at..end].starts_with(line));
        stopped.push(n);
        let before = bulk.len();
        match bulk.decode_line(line) {
            Ok(()) => {}
            Err(DataCellError::Decode(g)) => {
                let text = String::from_utf8_lossy(line);
                prop_assert_eq!(Err(g), reference::parse_tuple(&text, schema).map(|_| ()));
                prop_assert_eq!(bulk.len(), before, "rejected line appended rows");
                bulk_rejected.push(n);
            }
            Err(other) => prop_assert!(false, "unexpected error class {other:?}"),
        }
        at = end;
        n += 1;
    }
    prop_assert_eq!(at, buf.len());
    prop_assert_eq!(&bulk_rejected, &want_rejected);
    prop_assert!(bulk.chunk().columns.iter().all(|c| c.len() == bulk.len()));
    prop_assert_eq!(
        format!("{:?}", bulk.chunk().rows().unwrap()),
        format!("{got_rows:?}")
    );
    (stopped, want_rejected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // render_row ∘ parse_tuple is the identity on arbitrary value rows —
    // including CSV-quoting edge cases: embedded commas and quotes,
    // leading/trailing whitespace, empty strings, the literal words
    // `nil`/`NULL`, unicode, and control characters — and both agree
    // with the reference implementation.
    #[test]
    fn render_parse_roundtrip_arbitrary_rows(
        cols in prop::collection::vec(colval_strategy(), 1..7)
    ) {
        let schema = schema_of(&cols);
        let row: Vec<Value> = cols.iter().map(ColVal::value).collect();
        let line = render_row(&row);
        prop_assert_eq!(&line, &reference::render_row(&row));
        prop_assert!(
            !line.contains('\n') && !line.contains('\r'),
            "rendered frame must stay a single line: {line:?}"
        );
        let back = parse_tuple(&line, &schema).expect("rendered row must parse");
        assert_same_decode(&Ok(back.clone()), &reference::parse_tuple(&line, &schema), &line);
        prop_assert_eq!(back, row, "line was {:?}", line);
    }

    // The trust boundary: arbitrary hostile input (quotes, delimiters,
    // newlines, NUL, unicode) against an arbitrary schema decodes exactly
    // as the reference does — a row of the right arity or the same Decode
    // error. Nothing panics, nothing escalates to a different error class.
    #[test]
    fn arbitrary_bytes_never_panic(
        input in string_from(FUZZ_PALETTE, 64),
        tags in prop::collection::vec(0usize..5, 1..6),
    ) {
        let fields = split_fields(&input);
        prop_assert!(!fields.is_empty(), "a line always has at least one field");
        prop_assert_eq!(fields.len(), reference::split_fields(&input).len());
        let schema = schema_of_tags(&tags);
        let got = parse_tuple(&input, &schema);
        assert_same_decode(&got, &reference::parse_tuple(&input, &schema), &input);
        if let Ok(row) = got {
            prop_assert_eq!(row.len(), schema.len());
        }
    }

    // Truncating or corrupting a well-formed frame at any point must
    // degrade into the reference's parse error (or its reinterpreted row),
    // never a panic: the receptor feeds the decoder whatever arrives
    // before a connection breaks mid-line.
    #[test]
    fn mutated_frames_never_panic(
        cols in prop::collection::vec(colval_strategy(), 1..6),
        cut in 0usize..80,
        inject in 0usize..20,
        at in 0usize..80,
    ) {
        let schema = schema_of(&cols);
        let row: Vec<Value> = cols.iter().map(ColVal::value).collect();
        let line = render_row(&row);
        // Truncate at an arbitrary char boundary (a torn frame).
        let torn: String = line.chars().take(cut).collect();
        assert_same_decode(
            &parse_tuple(&torn, &schema),
            &reference::parse_tuple(&torn, &schema),
            &torn,
        );
        // Inject one hostile character at an arbitrary position.
        let mut chars: Vec<char> = line.chars().collect();
        let pos = at.min(chars.len());
        chars.insert(pos, FUZZ_PALETTE[inject % FUZZ_PALETTE.len()]);
        let corrupted: String = chars.into_iter().collect();
        // The corrupted line may contain an injected newline; the
        // receptor would frame-split there — parse both halves.
        for frame in corrupted.split(['\n', '\r']) {
            let got = parse_tuple(frame, &schema);
            assert_same_decode(&got, &reference::parse_tuple(frame, &schema), frame);
            match got {
                Ok(row) => prop_assert_eq!(row.len(), schema.len()),
                Err(DataCellError::Decode(_)) => {}
                Err(other) => prop_assert!(false, "unexpected error class {other:?}"),
            }
        }
    }

    // The columnar decoder on a whole buffer of hostile bytes — invalid
    // UTF-8, CRLF, blank lines, quotes and escapes, Unicode whitespace
    // around numbers, `nil`/`NULL` in any case, `i64::MIN`, `-0.0`,
    // `inf`, `NaN` — framed as the receptor frames it: the same rows and
    // the same rejected lines (with the same messages) as the reference
    // applied line by line to the lossy text, and a rejected line leaves
    // the builders untouched. Decoded a read at a time — `decode_lines`,
    // resuming with `decode_line` on each line it stops at, as the receptor
    // does — the buffer gives the same rows and rejected lines again, and
    // the one-pass decoder never consumes a line `decode_line` rejects or
    // the receptor treats as blank or as a command.
    #[test]
    fn decoded_buffers_match_reference_line_by_line(
        tags in prop::collection::vec(0usize..5, 1..5),
        lines in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec(0usize..BYTE_ATOMS.len(), 0..4),
                1..6,
            ),
            1..12,
        ),
        terms in prop::collection::vec(0usize..TERMINATORS.len(), 12..13),
        fits in prop::collection::vec(0usize..4, 12..13),
        unterminated in 0usize..2,
        room in 1usize..6,
    ) {
        let schema = schema_of_tags(&tags);
        let buf = assemble(BYTE_ATOMS, &schema, &lines, &terms, &fits, unterminated);
        check_decoded_buffer(&schema, &buf, room);
    }

    // The same differential property on all-integer schemas (`Int` and
    // `Timestamp` columns, 1 to 8 wide), where every field is either of
    // the integer fast shape or takes the exact rule on its own: the
    // one-pass decoder stops at no line the one-line decoder accepts.
    #[test]
    fn all_integer_buffers_match_reference_line_by_line(
        tags in prop::collection::vec(0usize..2, 1..9),
        lines in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec(0usize..INT_ATOMS.len(), 0..4),
                1..9,
            ),
            1..12,
        ),
        terms in prop::collection::vec(0usize..TERMINATORS.len(), 12..13),
        fits in prop::collection::vec(0usize..4, 12..13),
        unterminated in 0usize..2,
        room in 1usize..6,
    ) {
        let tags: Vec<usize> = tags.iter().map(|&t| t * 4).collect();
        let schema = schema_of_tags(&tags);
        let buf = assemble(INT_ATOMS, &schema, &lines, &terms, &fits, unterminated);
        let (stopped, rejected) = check_decoded_buffer(&schema, &buf, room);
        // A last line without its `\n` waits for the next read, whatever
        // it holds.
        let tail = frames(&buf).len().saturating_sub(usize::from(!buf.ends_with(b"\n")));
        let complete = |lines: Vec<usize>| lines.into_iter().filter(|&n| n < tail).collect::<Vec<_>>();
        prop_assert_eq!(
            complete(stopped),
            complete(rejected),
            "buffer {:?}",
            String::from_utf8_lossy(&buf)
        );
    }

    // The columnar renderer is byte-identical to the reference row
    // renderer for every type, edge values and nil included — whole
    // chunks, and chunks rendered in size-limited pieces.
    #[test]
    fn rendered_chunks_match_reference_rows(
        tags in prop::collection::vec(0usize..5, 1..6),
        picks in prop::collection::vec(prop::collection::vec(0i64..64, 5..6), 0..24),
        strings in prop::collection::vec(string_from(VALUE_PALETTE, 10), 5..6),
        limit in 1usize..200,
    ) {
        let schema = schema_of_tags(&tags);
        let rows: Vec<Vec<Value>> = picks
            .iter()
            .enumerate()
            .map(|(r, row)| {
                row.iter()
                    .zip(&schema.columns)
                    .enumerate()
                    .map(|(c, (&pick, cd))| edge_value(cd.ty, pick, strings[(r + c) % 5].clone()))
                    .collect()
            })
            .collect();
        let mut builder = ChunkBuilder::new(schema.clone());
        let mut want = String::new();
        for row in &rows {
            prop_assert_eq!(render_row(row), reference::render_row(row));
            builder.push_row(row).unwrap();
            want.push_str(&reference::render_row(&row.iter().map(stored).collect::<Vec<_>>()));
            want.push('\n');
        }
        let chunk = builder.chunk();
        let mut got = Vec::new();
        render_chunk_into(chunk, schema.len(), &mut got);
        prop_assert_eq!(String::from_utf8(got).unwrap(), want.clone());

        let pieces = datacell::text::ChunkRenderer::new(chunk, schema.len());
        let (mut from, mut all) = (0, Vec::new());
        while from < pieces.len() {
            let mut piece = Vec::new();
            let next = pieces.render_until(from, limit, &mut piece);
            prop_assert!(next > from, "every piece makes progress");
            prop_assert!(piece.len() <= limit || next == from + 1, "pieces respect the limit");
            all.extend(piece);
            from = next;
        }
        prop_assert_eq!(String::from_utf8(all).unwrap(), want);
    }
}

/// Deterministic corpus of historically nasty frames: every one must
/// decode as the reference decodes it against every schema shape, without
/// panicking. (The proptest shim does not shrink, so keep the classic
/// corner cases pinned explicitly.)
#[test]
fn hostile_corpus_is_handled() {
    let corpus = [
        "",
        " ",
        ",",
        ",,,,,,",
        "\"",
        "\"\"",
        "\"\"\"",
        "\"unterminated",
        "\"a\"trailing, 2",
        "a\"b, 1",
        "nil",
        "NIL, nil, NULL",
        "\"nil\"",
        "  padded  ,  x  ",
        "1,2,3,4,5,6,7,8,9,10",
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775808",
        "+12, -0, +",
        "1e308, -1e308, 1e-308",
        "inf, -inf",
        "NaN, -0.0",
        "\u{0}\u{1}\u{7f}",
        "\u{feff}1",
        "\u{3000}12\u{a0}, \u{85}3",
        "\u{b}7\u{c}",
        "émile, →, ok",
        "true, false, t, f, 1, 0",
    ];
    let schemas = [
        Schema::new(vec![("a".into(), DataType::Int)]),
        Schema::new(vec![
            ("a".into(), DataType::Str),
            ("b".into(), DataType::Float),
        ]),
        Schema::new(vec![
            ("a".into(), DataType::Bool),
            ("b".into(), DataType::Bool),
            ("c".into(), DataType::Bool),
            ("d".into(), DataType::Bool),
            ("e".into(), DataType::Bool),
            ("f".into(), DataType::Bool),
        ]),
        Schema::new(vec![
            ("a".into(), DataType::Timestamp),
            ("b".into(), DataType::Str),
        ]),
        Schema::new(vec![
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Int),
            ("c".into(), DataType::Int),
        ]),
    ];
    for line in corpus {
        assert!(!split_fields(line).is_empty());
        for schema in &schemas {
            let got = parse_tuple(line, schema);
            assert_same_decode(&got, &reference::parse_tuple(line, schema), line);
            match got {
                Ok(row) => assert_eq!(row.len(), schema.len(), "line {line:?}"),
                Err(DataCellError::Decode(_)) => {}
                Err(other) => panic!("line {line:?}: unexpected error class {other:?}"),
            }
        }
    }
}
