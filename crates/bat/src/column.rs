//! Typed value vectors — the tail storage of a [`crate::Bat`].
//!
//! A [`Column`] is a contiguous, densely packed vector of one logical type.
//! Booleans use MonetDB's three-state `bit` encoding (`0`, `1`, nil);
//! strings are dictionary codes into a copy-on-write [`StrHeap`].

use std::sync::Arc;

use crate::error::{BatError, Result};
use crate::heap::StrHeap;
use crate::types::{is_nil_float, is_nil_int, nil_float, DataType, Value, NIL_INT, NIL_STR_CODE};

/// Three-state boolean encoding: nil sentinel for the `bit` type.
pub const NIL_BOOL: i8 = -1;

/// A typed, densely packed value vector.
///
/// Invariant: the variant never changes after construction; all mutating
/// operations preserve the logical type.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers; nil = [`NIL_INT`].
    Int(Vec<i64>),
    /// 64-bit floats; nil = NaN.
    Float(Vec<f64>),
    /// Three-state booleans; nil = [`NIL_BOOL`].
    Bool(Vec<i8>),
    /// Dictionary codes plus their heap; nil = [`NIL_STR_CODE`].
    Str {
        /// Dictionary code per row.
        codes: Vec<u32>,
        /// Copy-on-write dictionary shared across derived columns.
        heap: Arc<StrHeap>,
    },
    /// Microsecond timestamps; nil = [`NIL_INT`].
    Timestamp(Vec<i64>),
}

impl Column {
    /// Create an empty column of logical type `ty`.
    pub fn empty(ty: DataType) -> Self {
        match ty {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Str => Column::Str {
                codes: Vec::new(),
                heap: Arc::new(StrHeap::new()),
            },
            DataType::Timestamp => Column::Timestamp(Vec::new()),
        }
    }

    /// Create an empty column with reserved capacity.
    pub fn with_capacity(ty: DataType, cap: usize) -> Self {
        match ty {
            DataType::Int => Column::Int(Vec::with_capacity(cap)),
            DataType::Float => Column::Float(Vec::with_capacity(cap)),
            DataType::Bool => Column::Bool(Vec::with_capacity(cap)),
            DataType::Str => Column::Str {
                codes: Vec::with_capacity(cap),
                heap: Arc::new(StrHeap::new()),
            },
            DataType::Timestamp => Column::Timestamp(Vec::with_capacity(cap)),
        }
    }

    /// Build an integer column from values.
    pub fn from_ints(v: Vec<i64>) -> Self {
        Column::Int(v)
    }

    /// Build a float column from values.
    pub fn from_floats(v: Vec<f64>) -> Self {
        Column::Float(v)
    }

    /// Build a boolean column from values.
    pub fn from_bools(v: Vec<bool>) -> Self {
        Column::Bool(v.into_iter().map(i8::from).collect())
    }

    /// Build a string column, interning every value.
    pub fn from_strs<S: AsRef<str>>(vals: &[S]) -> Self {
        let mut heap = StrHeap::new();
        let codes = vals.iter().map(|s| heap.intern(s.as_ref())).collect();
        Column::Str {
            codes,
            heap: Arc::new(heap),
        }
    }

    /// Build a timestamp column from microsecond values.
    pub fn from_timestamps(v: Vec<i64>) -> Self {
        Column::Timestamp(v)
    }

    /// The logical type of this column.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Bool(_) => DataType::Bool,
            Column::Str { .. } => DataType::Str,
            Column::Timestamp(_) => DataType::Timestamp,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) | Column::Timestamp(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read row `i` as a [`Value`].
    pub fn get(&self, i: usize) -> Result<Value> {
        let len = self.len();
        if i >= len {
            return Err(BatError::PositionOutOfRange { pos: i, len });
        }
        Ok(match self {
            Column::Int(v) => {
                if is_nil_int(v[i]) {
                    Value::Nil
                } else {
                    Value::Int(v[i])
                }
            }
            Column::Float(v) => {
                if is_nil_float(v[i]) {
                    Value::Nil
                } else {
                    Value::Float(v[i])
                }
            }
            Column::Bool(v) => match v[i] {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                _ => Value::Nil,
            },
            Column::Str { codes, heap } => match heap.get(codes[i]) {
                Some(s) => Value::Str(s.to_string()),
                None => Value::Nil,
            },
            Column::Timestamp(v) => {
                if is_nil_int(v[i]) {
                    Value::Nil
                } else {
                    Value::Timestamp(v[i])
                }
            }
        })
    }

    /// Append a [`Value`], coercing when lossless. Nil appends the type's
    /// nil sentinel (a NaN float of any payload is nil). A value that
    /// already has the column's type is stored as it is.
    #[inline]
    pub fn push(&mut self, value: &Value) -> Result<()> {
        if value.is_nil() {
            self.push_nil();
            return Ok(());
        }
        match (&mut *self, value) {
            (Column::Int(v), Value::Int(x)) | (Column::Timestamp(v), Value::Timestamp(x)) => {
                v.push(*x)
            }
            (Column::Float(v), Value::Float(x)) => v.push(*x),
            (Column::Bool(v), Value::Bool(x)) => v.push(i8::from(*x)),
            (Column::Str { codes, heap }, Value::Str(x)) => {
                codes.push(Arc::make_mut(heap).intern(x));
            }
            _ => return self.push_coerced(value),
        }
        Ok(())
    }

    /// [`Column::push`] of a non-nil value of another type: coerced to the
    /// column's type, then stored.
    fn push_coerced(&mut self, value: &Value) -> Result<()> {
        let ty = self.data_type();
        let coerced = value.coerce_to(ty).ok_or_else(|| BatError::TypeMismatch {
            op: "push",
            expected: ty.name(),
            got: value.data_type().map(|t| t.name()).unwrap_or("nil"),
        })?;
        self.push(&coerced)
    }

    /// Append this column's nil sentinel.
    pub fn push_nil(&mut self) {
        match self {
            Column::Int(v) | Column::Timestamp(v) => v.push(NIL_INT),
            Column::Float(v) => v.push(nil_float()),
            Column::Bool(v) => v.push(NIL_BOOL),
            Column::Str { codes, .. } => codes.push(NIL_STR_CODE),
        }
    }

    /// Append all rows of `other` (same logical type required). String codes
    /// are re-interned into this column's heap.
    pub fn append_column(&mut self, other: &Column) -> Result<()> {
        if self.data_type() != other.data_type() {
            return Err(BatError::TypeMismatch {
                op: "append_column",
                expected: self.data_type().name(),
                got: other.data_type().name(),
            });
        }
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a.extend_from_slice(b),
            (Column::Float(a), Column::Float(b)) => a.extend_from_slice(b),
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (Column::Timestamp(a), Column::Timestamp(b)) => a.extend_from_slice(b),
            (
                Column::Str { codes, heap },
                Column::Str {
                    codes: ocodes,
                    heap: oheap,
                },
            ) => {
                if Arc::ptr_eq(heap, oheap) {
                    codes.extend_from_slice(ocodes);
                } else {
                    let h = Arc::make_mut(heap);
                    codes.extend(ocodes.iter().map(|&c| match oheap.get(c) {
                        Some(s) => h.intern(s),
                        None => NIL_STR_CODE,
                    }));
                }
            }
            _ => unreachable!("type equality checked above"),
        }
        Ok(())
    }

    /// Gather rows at `positions` into a new column (positional projection).
    pub fn take(&self, positions: &[usize]) -> Result<Column> {
        let len = self.len();
        if let Some(&bad) = positions.iter().find(|&&p| p >= len) {
            return Err(BatError::PositionOutOfRange { pos: bad, len });
        }
        Ok(match self {
            Column::Int(v) => Column::Int(positions.iter().map(|&p| v[p]).collect()),
            Column::Float(v) => Column::Float(positions.iter().map(|&p| v[p]).collect()),
            Column::Bool(v) => Column::Bool(positions.iter().map(|&p| v[p]).collect()),
            Column::Timestamp(v) => Column::Timestamp(positions.iter().map(|&p| v[p]).collect()),
            Column::Str { codes, heap } => Column::Str {
                codes: positions.iter().map(|&p| codes[p]).collect(),
                heap: Arc::clone(heap),
            },
        })
    }

    /// Contiguous sub-column `[from, to)`.
    pub fn slice(&self, from: usize, to: usize) -> Result<Column> {
        let len = self.len();
        if from > to || to > len {
            return Err(BatError::PositionOutOfRange { pos: to, len });
        }
        Ok(match self {
            Column::Int(v) => Column::Int(v[from..to].to_vec()),
            Column::Float(v) => Column::Float(v[from..to].to_vec()),
            Column::Bool(v) => Column::Bool(v[from..to].to_vec()),
            Column::Timestamp(v) => Column::Timestamp(v[from..to].to_vec()),
            Column::Str { codes, heap } => Column::Str {
                codes: codes[from..to].to_vec(),
                heap: Arc::clone(heap),
            },
        })
    }

    /// Remove all rows, keeping type and (for strings) dictionary.
    pub fn clear(&mut self) {
        match self {
            Column::Int(v) | Column::Timestamp(v) => v.clear(),
            Column::Float(v) => v.clear(),
            Column::Bool(v) => v.clear(),
            Column::Str { codes, .. } => codes.clear(),
        }
    }

    /// Keep only the first `len` rows (no-op when the column is shorter),
    /// keeping type and dictionary.
    pub fn truncate(&mut self, len: usize) {
        match self {
            Column::Int(v) | Column::Timestamp(v) => v.truncate(len),
            Column::Float(v) => v.truncate(len),
            Column::Bool(v) => v.truncate(len),
            Column::Str { codes, .. } => codes.truncate(len),
        }
    }

    /// Drop the first `n` rows in place (basket consumption).
    pub fn drop_head(&mut self, n: usize) {
        match self {
            Column::Int(v) | Column::Timestamp(v) => {
                v.drain(..n.min(v.len()));
            }
            Column::Float(v) => {
                v.drain(..n.min(v.len()));
            }
            Column::Bool(v) => {
                v.drain(..n.min(v.len()));
            }
            Column::Str { codes, .. } => {
                codes.drain(..n.min(codes.len()));
            }
        }
    }

    /// Keep only rows at `positions` (ascending); used by basket expressions
    /// that delete the complement of what they read.
    pub fn retain_positions(&mut self, positions: &[usize]) -> Result<()> {
        let taken = self.take(positions)?;
        *self = taken;
        Ok(())
    }

    /// Integer slice view; errors for non-int columns.
    pub fn as_ints(&self) -> Result<&[i64]> {
        match self {
            Column::Int(v) => Ok(v),
            other => Err(type_err("as_ints", "int", other)),
        }
    }

    /// Float slice view; errors for non-float columns.
    pub fn as_floats(&self) -> Result<&[f64]> {
        match self {
            Column::Float(v) => Ok(v),
            other => Err(type_err("as_floats", "float", other)),
        }
    }

    /// Boolean (`i8` tri-state) slice view; errors for non-bool columns.
    pub fn as_bools(&self) -> Result<&[i8]> {
        match self {
            Column::Bool(v) => Ok(v),
            other => Err(type_err("as_bools", "bool", other)),
        }
    }

    /// Timestamp slice view; errors for non-timestamp columns.
    pub fn as_timestamps(&self) -> Result<&[i64]> {
        match self {
            Column::Timestamp(v) => Ok(v),
            other => Err(type_err("as_timestamps", "timestamp", other)),
        }
    }

    /// Timestamp-or-int slice view (both are `i64`-backed); used by window
    /// logic that accepts either a timestamp column or an integer surrogate.
    pub fn as_i64s(&self) -> Result<&[i64]> {
        match self {
            Column::Int(v) | Column::Timestamp(v) => Ok(v),
            other => Err(type_err("as_i64s", "int|timestamp", other)),
        }
    }

    /// String codes + heap view; errors for non-string columns.
    pub fn as_strs(&self) -> Result<(&[u32], &StrHeap)> {
        match self {
            Column::Str { codes, heap } => Ok((codes, heap)),
            other => Err(type_err("as_strs", "str", other)),
        }
    }

    /// True iff row `i` holds the nil sentinel.
    pub fn is_nil_at(&self, i: usize) -> bool {
        match self {
            Column::Int(v) | Column::Timestamp(v) => is_nil_int(v[i]),
            Column::Float(v) => is_nil_float(v[i]),
            Column::Bool(v) => v[i] != 0 && v[i] != 1,
            Column::Str { codes, .. } => codes[i] == NIL_STR_CODE,
        }
    }

    /// Heap-resident size in bytes (diagnostics and load-shedding policy).
    pub fn byte_size(&self) -> usize {
        match self {
            Column::Int(v) | Column::Timestamp(v) => v.len() * 8,
            Column::Float(v) => v.len() * 8,
            Column::Bool(v) => v.len(),
            Column::Str { codes, .. } => codes.len() * 4,
        }
    }
}

fn type_err(op: &'static str, expected: &'static str, got: &Column) -> BatError {
    BatError::TypeMismatch {
        op,
        expected,
        got: got.data_type().name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut c = Column::empty(DataType::Int);
        c.push(&Value::Int(1)).unwrap();
        c.push(&Value::Nil).unwrap();
        c.push(&Value::Int(-3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0).unwrap(), Value::Int(1));
        assert_eq!(c.get(1).unwrap(), Value::Nil);
        assert_eq!(c.get(2).unwrap(), Value::Int(-3));
        assert!(c.get(3).is_err());
    }

    #[test]
    fn push_coerces_int_to_float() {
        let mut c = Column::empty(DataType::Float);
        c.push(&Value::Int(2)).unwrap();
        assert_eq!(c.get(0).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn push_rejects_wrong_type() {
        let mut c = Column::empty(DataType::Int);
        let err = c.push(&Value::Str("x".into())).unwrap_err();
        assert!(matches!(err, BatError::TypeMismatch { .. }));
    }

    #[test]
    fn string_interning_roundtrip() {
        let c = Column::from_strs(&["a", "b", "a"]);
        assert_eq!(c.get(0).unwrap(), Value::Str("a".into()));
        assert_eq!(c.get(2).unwrap(), Value::Str("a".into()));
        let (codes, heap) = c.as_strs().unwrap();
        assert_eq!(codes[0], codes[2]);
        assert_eq!(heap.len(), 2);
    }

    #[test]
    fn take_gathers_positions() {
        let c = Column::from_ints(vec![10, 20, 30, 40]);
        let t = c.take(&[3, 1]).unwrap();
        assert_eq!(t.as_ints().unwrap(), &[40, 20]);
        assert!(c.take(&[4]).is_err());
    }

    #[test]
    fn slice_bounds() {
        let c = Column::from_ints(vec![1, 2, 3]);
        assert_eq!(c.slice(1, 3).unwrap().as_ints().unwrap(), &[2, 3]);
        assert!(c.slice(2, 4).is_err());
        assert_eq!(c.slice(1, 1).unwrap().len(), 0);
    }

    #[test]
    fn append_column_remaps_string_codes() {
        let mut a = Column::from_strs(&["x", "y"]);
        let b = Column::from_strs(&["y", "z"]);
        a.append_column(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(2).unwrap(), Value::Str("y".into()));
        assert_eq!(a.get(3).unwrap(), Value::Str("z".into()));
        // "y" must not be duplicated in the heap.
        let (_, heap) = a.as_strs().unwrap();
        assert_eq!(heap.len(), 3);
    }

    #[test]
    fn append_column_type_checked() {
        let mut a = Column::from_ints(vec![1]);
        let b = Column::from_floats(vec![1.0]);
        assert!(a.append_column(&b).is_err());
    }

    #[test]
    fn drop_head_consumes_prefix() {
        let mut c = Column::from_ints(vec![1, 2, 3, 4]);
        c.drop_head(2);
        assert_eq!(c.as_ints().unwrap(), &[3, 4]);
        c.drop_head(10);
        assert!(c.is_empty());
    }

    #[test]
    fn retain_positions_keeps_selection() {
        let mut c = Column::from_ints(vec![5, 6, 7, 8]);
        c.retain_positions(&[0, 2]).unwrap();
        assert_eq!(c.as_ints().unwrap(), &[5, 7]);
    }

    #[test]
    fn bool_tri_state() {
        let mut c = Column::from_bools(vec![true, false]);
        c.push_nil();
        assert_eq!(c.get(0).unwrap(), Value::Bool(true));
        assert_eq!(c.get(1).unwrap(), Value::Bool(false));
        assert_eq!(c.get(2).unwrap(), Value::Nil);
        assert!(c.is_nil_at(2));
        assert!(!c.is_nil_at(0));
    }

    #[test]
    fn byte_size_counts() {
        let c = Column::from_ints(vec![1, 2, 3]);
        assert_eq!(c.byte_size(), 24);
        let s = Column::from_strs(&["a"]);
        assert_eq!(s.byte_size(), 4);
    }

    #[test]
    fn shared_heap_append_fast_path() {
        let a = Column::from_strs(&["p", "q"]);
        let b = a.slice(0, 1).unwrap(); // shares heap Arc
        let mut c = a.clone();
        c.append_column(&b).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(2).unwrap(), Value::Str("p".into()));
    }
}
