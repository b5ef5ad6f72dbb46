//! Candidate lists: the selection vectors threaded through every kernel.
//!
//! MonetDB composes selections by passing *candidate lists* — sorted lists of
//! qualifying positions — from one operator to the next, avoiding early
//! materialization. We mirror that with a compact two-variant representation:
//! a dense range (the common "everything qualifies" case costs two words) or
//! an explicit sorted position list.

use std::ops::Range;

use crate::error::{BatError, Result};

/// A sorted set of row positions into some BAT.
///
/// Invariant: `Positions` vectors are strictly ascending. All constructors
/// and combinators preserve this; [`Candidates::from_positions`] checks it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Candidates {
    /// Every position in `range` qualifies.
    Dense(Range<usize>),
    /// Exactly these positions qualify (strictly ascending).
    Positions(Vec<usize>),
}

impl Candidates {
    /// All positions of a BAT of length `len`.
    pub fn all(len: usize) -> Self {
        Candidates::Dense(0..len)
    }

    /// The empty candidate list.
    pub fn none() -> Self {
        Candidates::Dense(0..0)
    }

    /// Build from an explicit position list, verifying strict ascent.
    pub fn from_positions(pos: Vec<usize>) -> Result<Self> {
        if pos.windows(2).any(|w| w[0] >= w[1]) {
            return Err(BatError::Invalid(
                "candidate positions must be strictly ascending".into(),
            ));
        }
        Ok(Candidates::Positions(pos))
    }

    /// Build from a position list known (by construction) to be ascending.
    ///
    /// Debug builds still verify the invariant.
    pub fn from_sorted_unchecked(pos: Vec<usize>) -> Self {
        debug_assert!(pos.windows(2).all(|w| w[0] < w[1]));
        Candidates::Positions(pos)
    }

    /// Build from the result of scanning the dense range `scanned`: when every
    /// scanned position qualified, collapse to [`Candidates::Dense`] so a
    /// 100%-selectivity scan costs two words instead of a position vector.
    ///
    /// `pos` must be ascending and a subset of `scanned` (kernel scan output).
    pub fn from_scan(pos: Vec<usize>, scanned: Range<usize>) -> Self {
        if pos.len() == scanned.len() {
            Candidates::Dense(scanned)
        } else {
            Candidates::from_sorted_unchecked(pos)
        }
    }

    /// Borrow as a kernel-facing view: dense range or position slice.
    ///
    /// Kernels specialize on this instead of materializing `to_positions`,
    /// so the dense path stays a contiguous (auto-vectorizable) loop and the
    /// position path is a gather over the borrowed slice.
    pub fn view(&self) -> CandView<'_> {
        match self {
            Candidates::Dense(r) => CandView::Dense(r.clone()),
            Candidates::Positions(p) => CandView::Positions(p),
        }
    }

    /// Verify every position is `< len`, reporting the first offender in
    /// iteration order (the same error a per-element scan would produce, at
    /// O(log n) cost thanks to the ascending invariant).
    pub fn check_bounds(&self, len: usize) -> Result<()> {
        match self {
            Candidates::Dense(r) => {
                if r.start >= r.end || r.end <= len {
                    Ok(())
                } else {
                    Err(BatError::PositionOutOfRange {
                        pos: r.start.max(len),
                        len,
                    })
                }
            }
            Candidates::Positions(p) => {
                let cut = p.partition_point(|&x| x < len);
                if cut == p.len() {
                    Ok(())
                } else {
                    Err(BatError::PositionOutOfRange { pos: p[cut], len })
                }
            }
        }
    }

    /// Resolve an optional candidate list against a BAT of length `len`:
    /// `None` means "all rows". Bounds are checked once, up front.
    pub fn resolve(cand: Option<&Candidates>, len: usize) -> Result<CandView<'_>> {
        match cand {
            None => Ok(CandView::Dense(0..len)),
            Some(c) => {
                c.check_bounds(len)?;
                Ok(c.view())
            }
        }
    }

    /// Number of qualifying positions.
    pub fn len(&self) -> usize {
        match self {
            Candidates::Dense(r) => r.len(),
            Candidates::Positions(p) => p.len(),
        }
    }

    /// True iff nothing qualifies.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff this is a dense range (kernels take a faster path).
    pub fn is_dense(&self) -> bool {
        matches!(self, Candidates::Dense(_))
    }

    /// The `i`-th qualifying position.
    pub fn get(&self, i: usize) -> Option<usize> {
        match self {
            Candidates::Dense(r) => {
                let p = r.start.checked_add(i)?;
                (p < r.end).then_some(p)
            }
            Candidates::Positions(p) => p.get(i).copied(),
        }
    }

    /// Membership test (binary search on position lists).
    pub fn contains(&self, pos: usize) -> bool {
        match self {
            Candidates::Dense(r) => r.contains(&pos),
            Candidates::Positions(p) => p.binary_search(&pos).is_ok(),
        }
    }

    /// Iterate qualifying positions in ascending order.
    pub fn iter(&self) -> CandIter<'_> {
        match self {
            Candidates::Dense(r) => CandIter::Dense(r.clone()),
            Candidates::Positions(p) => CandIter::Positions(p.iter()),
        }
    }

    /// Materialize into a position vector.
    pub fn to_positions(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Intersect with another candidate list over the same BAT.
    pub fn intersect(&self, other: &Candidates) -> Candidates {
        match (self, other) {
            (Candidates::Dense(a), Candidates::Dense(b)) => {
                let start = a.start.max(b.start);
                let end = a.end.min(b.end);
                if start >= end {
                    Candidates::none()
                } else {
                    Candidates::Dense(start..end)
                }
            }
            (Candidates::Dense(r), Candidates::Positions(p))
            | (Candidates::Positions(p), Candidates::Dense(r)) => {
                Candidates::Positions(p.iter().copied().filter(|x| r.contains(x)).collect())
            }
            (Candidates::Positions(a), Candidates::Positions(b)) => {
                let mut out = Vec::with_capacity(a.len().min(b.len()));
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                Candidates::Positions(out)
            }
        }
    }

    /// Union with another candidate list over the same BAT.
    pub fn union(&self, other: &Candidates) -> Candidates {
        // Adjacent/overlapping dense ranges stay dense.
        if let (Candidates::Dense(a), Candidates::Dense(b)) = (self, other) {
            if a.is_empty() {
                return other.clone();
            }
            if b.is_empty() {
                return self.clone();
            }
            if a.start <= b.end && b.start <= a.end {
                return Candidates::Dense(a.start.min(b.start)..a.end.max(b.end));
            }
        }
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut ia, mut ib) = (self.iter().peekable(), other.iter().peekable());
        loop {
            match (ia.peek().copied(), ib.peek().copied()) {
                (Some(x), Some(y)) => {
                    use std::cmp::Ordering::*;
                    match x.cmp(&y) {
                        Less => {
                            out.push(x);
                            ia.next();
                        }
                        Greater => {
                            out.push(y);
                            ib.next();
                        }
                        Equal => {
                            out.push(x);
                            ia.next();
                            ib.next();
                        }
                    }
                }
                (Some(x), None) => {
                    out.push(x);
                    ia.next();
                }
                (None, Some(y)) => {
                    out.push(y);
                    ib.next();
                }
                (None, None) => break,
            }
        }
        Candidates::Positions(out)
    }

    /// Complement within a BAT of length `len` (anti-selection).
    pub fn complement(&self, len: usize) -> Candidates {
        match self {
            Candidates::Dense(r) if r.start == 0 => {
                if r.end >= len {
                    Candidates::none()
                } else {
                    Candidates::Dense(r.end..len)
                }
            }
            _ => {
                let mut out = Vec::with_capacity(len.saturating_sub(self.len()));
                let mut it = self.iter().peekable();
                for pos in 0..len {
                    if it.peek() == Some(&pos) {
                        it.next();
                    } else {
                        out.push(pos);
                    }
                }
                Candidates::Positions(out)
            }
        }
    }

    /// The sub-list picked by `ordinals`, which number *this list's*
    /// candidates (`0` = its first) rather than column positions — how a
    /// result computed over the gathered rows of a candidate list maps back
    /// to positions in the column.
    pub fn pick(&self, ordinals: &Candidates) -> Result<Candidates> {
        ordinals.check_bounds(self.len())?;
        Ok(match (self, ordinals) {
            (Candidates::Dense(r), Candidates::Dense(o)) => {
                Candidates::Dense(r.start + o.start..r.start + o.end)
            }
            (Candidates::Dense(r), Candidates::Positions(o)) => {
                Candidates::Positions(o.iter().map(|&i| r.start + i).collect())
            }
            (Candidates::Positions(p), Candidates::Dense(o)) => {
                Candidates::Positions(p[o.clone()].to_vec())
            }
            (Candidates::Positions(p), Candidates::Positions(o)) => {
                Candidates::Positions(o.iter().map(|&i| p[i]).collect())
            }
        })
    }

    /// First `n` qualifying positions (LIMIT pushdown).
    pub fn first_n(&self, n: usize) -> Candidates {
        match self {
            Candidates::Dense(r) => Candidates::Dense(r.start..r.end.min(r.start + n)),
            Candidates::Positions(p) => Candidates::Positions(p[..n.min(p.len())].to_vec()),
        }
    }
}

/// The range `rows` spells out when it is one contiguous ascending run, so
/// a kernel handed explicit positions can still read its values as a
/// sub-slice instead of gathering.
pub(crate) fn contiguous_run(rows: &[usize]) -> Option<Range<usize>> {
    let &start = rows.first()?;
    rows.iter()
        .enumerate()
        .all(|(i, &p)| p == start + i)
        .then(|| start..start + rows.len())
}

/// Borrowed kernel-facing view of a candidate list (see
/// [`Candidates::view`]): kernels branch on this once, then run either a
/// contiguous loop over the dense range or a gather over the position slice.
#[derive(Debug, Clone)]
pub enum CandView<'a> {
    /// Contiguous range of qualifying positions.
    Dense(Range<usize>),
    /// Explicit ascending positions.
    Positions(&'a [usize]),
}

impl CandView<'_> {
    /// Number of qualifying positions.
    pub fn len(&self) -> usize {
        match self {
            CandView::Dense(r) => r.len(),
            CandView::Positions(p) => p.len(),
        }
    }

    /// True iff nothing qualifies.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit each qualifying position in ascending order.
    #[inline]
    pub fn for_each_pos(&self, mut f: impl FnMut(usize)) {
        match self {
            CandView::Dense(r) => r.clone().for_each(&mut f),
            CandView::Positions(p) => p.iter().for_each(|&x| f(x)),
        }
    }
}

/// Iterator over qualifying positions.
pub enum CandIter<'a> {
    /// Dense-range walk.
    Dense(Range<usize>),
    /// Position-list walk.
    Positions(std::slice::Iter<'a, usize>),
}

impl Iterator for CandIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            CandIter::Dense(r) => r.next(),
            CandIter::Positions(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            CandIter::Dense(r) => r.size_hint(),
            CandIter::Positions(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for CandIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_basics() {
        let c = Candidates::all(5);
        assert_eq!(c.len(), 5);
        assert!(c.is_dense());
        assert!(c.contains(4));
        assert!(!c.contains(5));
        assert_eq!(c.to_positions(), vec![0, 1, 2, 3, 4]);
        assert_eq!(c.get(2), Some(2));
        assert_eq!(c.get(5), None);
    }

    #[test]
    fn from_positions_validates_order() {
        assert!(Candidates::from_positions(vec![0, 2, 2]).is_err());
        assert!(Candidates::from_positions(vec![3, 1]).is_err());
        let c = Candidates::from_positions(vec![1, 3, 7]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(1), Some(3));
    }

    #[test]
    fn intersect_dense_dense() {
        let a = Candidates::Dense(2..8);
        let b = Candidates::Dense(5..10);
        assert_eq!(a.intersect(&b), Candidates::Dense(5..8));
        let c = Candidates::Dense(8..9);
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn intersect_mixed() {
        let a = Candidates::Dense(2..6);
        let b = Candidates::from_positions(vec![1, 3, 5, 7]).unwrap();
        assert_eq!(a.intersect(&b).to_positions(), vec![3, 5]);
        assert_eq!(b.intersect(&a).to_positions(), vec![3, 5]);
    }

    #[test]
    fn intersect_positions_positions() {
        let a = Candidates::from_positions(vec![1, 2, 4, 8]).unwrap();
        let b = Candidates::from_positions(vec![2, 3, 4, 9]).unwrap();
        assert_eq!(a.intersect(&b).to_positions(), vec![2, 4]);
    }

    #[test]
    fn union_merges_sorted() {
        let a = Candidates::from_positions(vec![1, 4, 6]).unwrap();
        let b = Candidates::from_positions(vec![2, 4, 7]).unwrap();
        assert_eq!(a.union(&b).to_positions(), vec![1, 2, 4, 6, 7]);
    }

    #[test]
    fn union_dense_adjacent_stays_dense() {
        let a = Candidates::Dense(0..3);
        let b = Candidates::Dense(3..6);
        assert_eq!(a.union(&b), Candidates::Dense(0..6));
    }

    #[test]
    fn union_with_empty() {
        let a = Candidates::none();
        let b = Candidates::Dense(2..4);
        assert_eq!(a.union(&b), Candidates::Dense(2..4));
        assert_eq!(b.union(&a), Candidates::Dense(2..4));
    }

    #[test]
    fn complement_of_prefix_is_dense() {
        let a = Candidates::Dense(0..3);
        assert_eq!(a.complement(5), Candidates::Dense(3..5));
        assert!(Candidates::all(5).complement(5).is_empty());
    }

    #[test]
    fn complement_of_positions() {
        let a = Candidates::from_positions(vec![1, 3]).unwrap();
        assert_eq!(a.complement(5).to_positions(), vec![0, 2, 4]);
    }

    #[test]
    fn pick_maps_ordinals_back_to_positions() {
        let dense = Candidates::Dense(10..20);
        assert_eq!(
            dense.pick(&Candidates::Dense(2..5)).unwrap(),
            Candidates::Dense(12..15)
        );
        let sub = Candidates::from_positions(vec![0, 9]).unwrap();
        assert_eq!(dense.pick(&sub).unwrap().to_positions(), vec![10, 19]);
        let p = Candidates::from_positions(vec![3, 5, 8, 13]).unwrap();
        assert_eq!(
            p.pick(&Candidates::Dense(1..3)).unwrap().to_positions(),
            vec![5, 8]
        );
        let sub = Candidates::from_positions(vec![0, 3]).unwrap();
        assert_eq!(p.pick(&sub).unwrap().to_positions(), vec![3, 13]);
        assert!(p.pick(&Candidates::Dense(0..5)).is_err());
        assert!(p.pick(&Candidates::none()).unwrap().is_empty());
    }

    #[test]
    fn first_n_limits() {
        assert_eq!(Candidates::all(10).first_n(3), Candidates::Dense(0..3));
        let p = Candidates::from_positions(vec![2, 5, 9]).unwrap();
        assert_eq!(p.first_n(2).to_positions(), vec![2, 5]);
        assert_eq!(p.first_n(9).len(), 3);
    }
}
