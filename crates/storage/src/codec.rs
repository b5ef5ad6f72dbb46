//! The columnar payload codec shared by segment files and WAL row records.
//!
//! A run of basket rows is serialized **per column** (the same layout the
//! kernel holds in memory), with a compact length-prefixed framing:
//!
//! ```text
//! payload := ncols:u16  nrows:u64  tag:u8 × ncols  column-data × ncols
//! Int/Timestamp := i64-LE × nrows          (nil = the in-band sentinel)
//! Float         := f64-bits-LE × nrows     (nil = the in-band NaN)
//! Bool          := i8 × nrows              (nil = -1, MonetDB's bit)
//! Str           := per row: len:u32-LE + utf8 bytes   (len = u32::MAX ⇒ nil)
//! ```
//!
//! Integrity is the *caller's* frame (segment header / WAL record CRC);
//! this module still validates every structural invariant — counts, type
//! tags against the expected schema, string UTF-8, exact payload length —
//! so a corrupt frame that slipped past an outer check can never panic or
//! produce a torn chunk.

use std::ops::Range;

use datacell_bat::column::Column;
use datacell_bat::types::{DataType, Value};
use datacell_engine::Chunk;
use datacell_sql::Schema;

use crate::error::{Result, StorageError};

/// Marker for a nil string row.
const NIL_STR_LEN: u32 = u32::MAX;

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Bool => 3,
        DataType::Str => 4,
        DataType::Timestamp => 5,
    }
}

fn tag_type(tag: u8) -> Option<DataType> {
    Some(match tag {
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Bool,
        4 => DataType::Str,
        5 => DataType::Timestamp,
        _ => return None,
    })
}

/// Serialize a chunk's columns into `buf` (see module docs for the layout).
pub fn encode_chunk_into(buf: &mut Vec<u8>, chunk: &Chunk) -> Result<()> {
    encode_rows_into(buf, &chunk.columns, 0..chunk.len())
}

/// Serialize rows `rows` of equal-length `columns` into `buf`, in the
/// layout of [`encode_chunk_into`] — straight from the columns, so a caller
/// holding a range of a larger table (a basket's freshly appended tail)
/// encodes it without copying it into a chunk first.
pub fn encode_rows_into(buf: &mut Vec<u8>, columns: &[Column], rows: Range<usize>) -> Result<()> {
    let ncols = u16::try_from(columns.len())
        .map_err(|_| StorageError::Invalid("more than 65535 columns".into()))?;
    if columns.iter().any(|c| c.len() < rows.end) || rows.start > rows.end {
        return Err(StorageError::Invalid(
            "row range outside the columns".into(),
        ));
    }
    buf.extend_from_slice(&ncols.to_le_bytes());
    buf.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for col in columns {
        buf.push(type_tag(col.data_type()));
    }
    for col in columns {
        encode_column_into(buf, col, rows.clone())?;
    }
    Ok(())
}

/// Append one 8-byte little-endian word per value, into bytes sized once.
fn put_words<T: Copy>(buf: &mut Vec<u8>, values: &[T], word: impl Fn(T) -> [u8; 8]) {
    let start = buf.len();
    buf.resize(start + values.len() * 8, 0);
    for (dst, &x) in buf[start..].chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&word(x));
    }
}

fn encode_column_into(buf: &mut Vec<u8>, col: &Column, rows: Range<usize>) -> Result<()> {
    match col {
        Column::Int(v) | Column::Timestamp(v) => put_words(buf, &v[rows], i64::to_le_bytes),
        Column::Float(v) => put_words(buf, &v[rows], |x| x.to_bits().to_le_bytes()),
        Column::Bool(v) => buf.extend(v[rows].iter().map(|&x| x as u8)),
        Column::Str { codes, heap } => {
            for (i, &code) in codes.iter().enumerate().take(rows.end).skip(rows.start) {
                if col.is_nil_at(i) {
                    buf.extend_from_slice(&NIL_STR_LEN.to_le_bytes());
                    continue;
                }
                let s = heap
                    .get(code)
                    .ok_or_else(|| StorageError::Invalid("string code outside its heap".into()))?;
                let len = u32::try_from(s.len())
                    .map_err(|_| StorageError::Invalid("string longer than 4 GiB".into()))?;
                if len == NIL_STR_LEN {
                    return Err(StorageError::Invalid("string longer than 4 GiB".into()));
                }
                buf.extend_from_slice(&len.to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
        }
    }
    Ok(())
}

/// A bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| StorageError::Corrupt("payload truncated".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decode a payload produced by [`encode_chunk_into`] against the expected
/// `schema`. Every mismatch — column count, type tags, row counts, string
/// lengths, trailing garbage — is a [`StorageError::Corrupt`].
pub fn decode_chunk(bytes: &[u8], schema: &Schema) -> Result<Chunk> {
    let mut r = Reader::new(bytes);
    let ncols = r.u16()? as usize;
    if ncols != schema.len() {
        return Err(StorageError::Corrupt(format!(
            "payload has {ncols} columns, schema wants {}",
            schema.len()
        )));
    }
    let nrows_u64 = r.u64()?;
    // A corrupt row count must fail the length checks below, not reserve
    // absurd memory first; the per-column reads bound it naturally because
    // fixed-width columns take `nrows × width` bytes from a finite slice.
    let nrows = usize::try_from(nrows_u64)
        .map_err(|_| StorageError::Corrupt("row count overflows usize".into()))?;
    if nrows_u64 > bytes.len() as u64 {
        return Err(StorageError::Corrupt(format!(
            "row count {nrows_u64} exceeds payload size {}",
            bytes.len()
        )));
    }
    let mut tags = Vec::with_capacity(ncols);
    for cd in &schema.columns {
        let tag = r.u8()?;
        let ty = tag_type(tag)
            .ok_or_else(|| StorageError::Corrupt(format!("unknown type tag {tag}")))?;
        if ty != cd.ty {
            return Err(StorageError::Corrupt(format!(
                "column {} has type {ty}, schema wants {}",
                cd.name, cd.ty
            )));
        }
        tags.push(ty);
    }
    let mut columns = Vec::with_capacity(ncols);
    for ty in tags {
        columns.push(decode_column(&mut r, ty, nrows)?);
    }
    if !r.done() {
        return Err(StorageError::Corrupt("trailing bytes after payload".into()));
    }
    Chunk::new(schema.clone(), columns)
        .map_err(|e| StorageError::Corrupt(format!("misaligned payload: {e}")))
}

fn decode_column(r: &mut Reader<'_>, ty: DataType, nrows: usize) -> Result<Column> {
    Ok(match ty {
        DataType::Int => {
            let mut v = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                v.push(r.i64()?);
            }
            Column::Int(v)
        }
        DataType::Timestamp => {
            let mut v = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                v.push(r.i64()?);
            }
            Column::Timestamp(v)
        }
        DataType::Float => {
            let mut v = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                v.push(f64::from_bits(r.u64()?));
            }
            Column::Float(v)
        }
        DataType::Bool => {
            let mut v = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let b = r.u8()? as i8;
                if !matches!(b, -1..=1) {
                    return Err(StorageError::Corrupt(format!("bad bool byte {b}")));
                }
                v.push(b);
            }
            Column::Bool(v)
        }
        DataType::Str => {
            let mut col = Column::empty(DataType::Str);
            for _ in 0..nrows {
                let len = r.u32()?;
                if len == NIL_STR_LEN {
                    col.push_nil();
                    continue;
                }
                let raw = r.take(len as usize)?;
                let s = std::str::from_utf8(raw)
                    .map_err(|_| StorageError::Corrupt("non-UTF-8 string".into()))?;
                col.push(&Value::Str(s.to_string()))
                    .map_err(|e| StorageError::Corrupt(format!("string push: {e}")))?;
            }
            col
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ("i".into(), DataType::Int),
            ("f".into(), DataType::Float),
            ("b".into(), DataType::Bool),
            ("s".into(), DataType::Str),
            ("ts".into(), DataType::Timestamp),
        ])
    }

    fn chunk() -> Chunk {
        let mut cols = vec![
            Column::from_ints(vec![1, -5, i64::MAX]),
            Column::from_floats(vec![0.5, -1.25, f64::INFINITY]),
            Column::from_bools(vec![true, false, true]),
            Column::from_strs(&["a", "", "comma, \"quote\"\nline"]),
            Column::from_timestamps(vec![0, 123, 456]),
        ];
        // Sprinkle in nils.
        for c in &mut cols {
            c.push_nil();
        }
        Chunk::new(schema(), cols).unwrap()
    }

    #[test]
    fn roundtrip_all_types_with_nils() {
        let c = chunk();
        let mut buf = Vec::new();
        encode_chunk_into(&mut buf, &c).unwrap();
        let back = decode_chunk(&buf, &schema()).unwrap();
        assert_eq!(back.len(), 4);
        for i in 0..c.len() {
            assert_eq!(back.row(i).unwrap(), c.row(i).unwrap(), "row {i}");
        }
    }

    #[test]
    fn truncation_and_mutation_fail_cleanly() {
        let c = chunk();
        let mut buf = Vec::new();
        encode_chunk_into(&mut buf, &c).unwrap();
        // Every truncation point yields Corrupt, never a panic.
        for cut in 0..buf.len() {
            match decode_chunk(&buf[..cut], &schema()) {
                Err(StorageError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
        // Trailing garbage is rejected too.
        let mut long = buf.clone();
        long.push(0);
        assert!(matches!(
            decode_chunk(&long, &schema()),
            Err(StorageError::Corrupt(_))
        ));
        // Wrong schema (column count / type) is rejected.
        let narrow = Schema::new(vec![("i".into(), DataType::Int)]);
        assert!(matches!(
            decode_chunk(&buf, &narrow),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn row_range_encodes_like_its_slice() {
        let c = chunk();
        for (from, to) in [(0, 4), (1, 3), (2, 2), (3, 4)] {
            let sliced = Chunk {
                schema: schema(),
                columns: c
                    .columns
                    .iter()
                    .map(|col| col.slice(from, to).unwrap())
                    .collect(),
            };
            let (mut whole, mut ranged) = (Vec::new(), Vec::new());
            encode_chunk_into(&mut whole, &sliced).unwrap();
            encode_rows_into(&mut ranged, &c.columns, from..to).unwrap();
            assert_eq!(ranged, whole, "rows {from}..{to}");
        }
        assert!(encode_rows_into(&mut Vec::new(), &c.columns, 2..5).is_err());
    }

    #[test]
    fn empty_chunk_roundtrips() {
        let c = Chunk::empty(schema());
        let mut buf = Vec::new();
        encode_chunk_into(&mut buf, &c).unwrap();
        let back = decode_chunk(&buf, &schema()).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.schema.len(), 5);
    }
}
