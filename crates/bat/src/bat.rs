//! The Binary Association Table.
//!
//! A [`Bat`] is MonetDB's storage unit (§2 of the paper): logically a set of
//! `(head oid, tail value)` pairs where the head is a *virtual* dense
//! sequence — only the tail is materialized. A relational table of `k`
//! attributes is `k` aligned BATs; a basket is a table whose head sequence
//! advances as tuples are consumed.

use crate::candidates::Candidates;
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::types::{DataType, Value};

/// A single column with a virtual dense head of oids.
///
/// `hseqbase` is the oid of the first materialized tuple. Physical position
/// `p` therefore holds the tuple with oid `hseqbase + p`. Consuming a prefix
/// of a basket advances `hseqbase`, which is how shared baskets expose a
/// stable oid space to factories reading at different watermarks (§2.5).
#[derive(Debug, Clone)]
pub struct Bat {
    hseqbase: u64,
    tail: Column,
    /// Monotonicity hint: tail is known non-decreasing (set by sorts,
    /// verified appends of timestamp columns). Enables merge algorithms.
    tsorted: bool,
}

/// A BAT lends its tail wherever a kernel asks for a [`Column`]: the
/// kernels take `&Column`, so a caller holding only a borrowed column (the
/// plan interpreter, over a basket snapshot) drives them without wrapping
/// a copy in a `Bat`, and `&Bat` arguments coerce.
impl std::ops::Deref for Bat {
    type Target = Column;

    fn deref(&self) -> &Column {
        &self.tail
    }
}

impl Bat {
    /// Wrap a column as a BAT with head sequence starting at 0.
    pub fn new(tail: Column) -> Self {
        Bat {
            hseqbase: 0,
            tail,
            tsorted: false,
        }
    }

    /// Empty BAT of type `ty`.
    pub fn empty(ty: DataType) -> Self {
        Bat::new(Column::empty(ty))
    }

    /// Convenience: integer BAT from values.
    pub fn from_ints(v: Vec<i64>) -> Self {
        Bat::new(Column::from_ints(v))
    }

    /// Convenience: float BAT from values.
    pub fn from_floats(v: Vec<f64>) -> Self {
        Bat::new(Column::from_floats(v))
    }

    /// Convenience: string BAT from values.
    pub fn from_strs<S: AsRef<str>>(v: &[S]) -> Self {
        Bat::new(Column::from_strs(v))
    }

    /// Oid of the first materialized tuple.
    pub fn hseqbase(&self) -> u64 {
        self.hseqbase
    }

    /// Number of materialized tuples.
    pub fn len(&self) -> usize {
        self.tail.len()
    }

    /// True iff no tuples are materialized.
    pub fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    /// Logical tail type.
    pub fn data_type(&self) -> DataType {
        self.tail.data_type()
    }

    /// Borrow the tail column.
    pub fn tail(&self) -> &Column {
        &self.tail
    }

    /// Sortedness hint (see [`Bat::set_sorted`]).
    pub fn is_sorted(&self) -> bool {
        self.tsorted
    }

    /// Declare the tail non-decreasing. Debug builds verify for numeric
    /// tails; callers are trusted in release builds (hints are advisory).
    pub fn set_sorted(&mut self, sorted: bool) {
        #[cfg(debug_assertions)]
        if sorted {
            if let Ok(v) = self.tail.as_i64s() {
                debug_assert!(
                    v.windows(2).all(|w| w[0] <= w[1]),
                    "set_sorted on unsorted tail"
                );
            }
        }
        self.tsorted = sorted;
    }

    /// Read the value at physical position `p`.
    pub fn get(&self, p: usize) -> Result<Value> {
        self.tail.get(p)
    }

    /// Read the value with oid `oid`.
    pub fn get_oid(&self, oid: u64) -> Result<Value> {
        let p = oid
            .checked_sub(self.hseqbase)
            .ok_or(BatError::PositionOutOfRange {
                pos: 0,
                len: self.len(),
            })?;
        self.tail.get(p as usize)
    }

    /// Append one value (coercing when lossless).
    pub fn append_value(&mut self, v: &Value) -> Result<()> {
        self.tsorted = false;
        self.tail.push(v)
    }

    /// Positional projection: gather tuples at `cands` into a fresh BAT with
    /// a dense head starting at 0 (MonetDB's `leftfetchjoin(cands, bat)`).
    pub fn project(&self, cands: &Candidates) -> Result<Bat> {
        let col = match cands {
            Candidates::Dense(r) => self.tail.slice(r.start, r.end.min(self.len()))?,
            Candidates::Positions(p) => self.tail.take(p)?,
        };
        let mut out = Bat::new(col);
        out.tsorted = self.tsorted; // ascending gather preserves order
        Ok(out)
    }

    /// Contiguous slice `[from, to)` as a fresh BAT preserving oids.
    pub fn slice(&self, from: usize, to: usize) -> Result<Bat> {
        let col = self.tail.slice(from, to)?;
        Ok(Bat {
            hseqbase: self.hseqbase + from as u64,
            tail: col,
            tsorted: self.tsorted,
        })
    }

    /// Drop the first `n` tuples, advancing the head sequence (basket
    /// consumption: "all tuples consumed are removed", §2.3).
    pub fn drop_head(&mut self, n: usize) {
        let n = n.min(self.len());
        self.tail.drop_head(n);
        self.hseqbase += n as u64;
    }

    /// Remove all tuples, advancing the head sequence past them
    /// (`basket.empty` in Algorithm 1).
    pub fn clear(&mut self) {
        self.hseqbase += self.len() as u64;
        self.tail.clear();
    }

    /// Keep only the tuples at `positions` (ascending). The head sequence
    /// restarts at its current base; callers that need oid stability must
    /// use watermarks instead (shared-basket strategy).
    pub fn retain_positions(&mut self, positions: &[usize]) -> Result<()> {
        self.tsorted = false;
        self.tail.retain_positions(positions)
    }

    /// Heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.tail.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_get() {
        let mut b = Bat::empty(DataType::Int);
        b.append_value(&Value::Int(7)).unwrap();
        b.append_value(&Value::Int(8)).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(1).unwrap(), Value::Int(8));
        assert_eq!(b.get_oid(0).unwrap(), Value::Int(7));
    }

    #[test]
    fn drop_head_advances_seqbase() {
        let mut b = Bat::from_ints(vec![1, 2, 3, 4]);
        b.drop_head(3);
        assert_eq!(b.hseqbase(), 3);
        assert_eq!(b.len(), 1);
        assert_eq!(b.get_oid(3).unwrap(), Value::Int(4));
    }

    #[test]
    fn clear_advances_seqbase() {
        let mut b = Bat::from_ints(vec![1, 2, 3]);
        b.clear();
        assert_eq!(b.hseqbase(), 3);
        assert!(b.is_empty());
        b.append_value(&Value::Int(9)).unwrap();
        assert_eq!(b.get_oid(3).unwrap(), Value::Int(9));
    }

    #[test]
    fn project_dense_and_positions() {
        let b = Bat::from_ints(vec![10, 20, 30, 40]);
        let d = b.project(&Candidates::Dense(1..3)).unwrap();
        assert_eq!(d.tail().as_ints().unwrap(), &[20, 30]);
        let p = b
            .project(&Candidates::from_positions(vec![0, 3]).unwrap())
            .unwrap();
        assert_eq!(p.tail().as_ints().unwrap(), &[10, 40]);
        assert_eq!(p.hseqbase(), 0);
    }

    #[test]
    fn slice_preserves_oids() {
        let b = Bat::from_ints(vec![10, 20, 30, 40]);
        let s = b.slice(2, 4).unwrap();
        assert_eq!(s.hseqbase(), 2);
        assert_eq!(s.get_oid(3).unwrap(), Value::Int(40));
    }

    #[test]
    fn sorted_hint_cleared_on_mutation() {
        let mut b = Bat::from_ints(vec![1, 2, 3]);
        b.set_sorted(true);
        assert!(b.is_sorted());
        b.append_value(&Value::Int(0)).unwrap();
        assert!(!b.is_sorted());
    }

    #[test]
    fn project_preserves_sorted_hint() {
        let mut b = Bat::from_ints(vec![1, 2, 3, 4]);
        b.set_sorted(true);
        let p = b.project(&Candidates::Dense(1..3)).unwrap();
        assert!(p.is_sorted());
    }
}
