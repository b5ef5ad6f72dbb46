//! A basket's resident rows: a deque of immutable, `Arc`-shared segments.
//!
//! Segments tile the oids `[first segment's base, end)`; the live rows are
//! `[head, end)`, so the first segment may keep a few dead leading rows.
//!
//! * **Reads lend.** [`Segments::lend`] hands out the stored rows: a range
//!   that is exactly one segment is that segment (a refcount bump); a range
//!   of several whole segments that nobody borrows merges them once, in
//!   place, so the next reader of those rows borrows the merged one; any
//!   other range is copied, so a merge never leaves a second copy of rows
//!   beside borrowed originals. A lent chunk is immutable: nothing the
//!   basket does later changes what a borrower reads.
//! * **Appends extend or move.** An append copies its rows onto the newest
//!   segment while nothing borrows it ([`Arc::get_mut`]), else into a new
//!   one; an owned batch ([`Segments::push`]) becomes a segment without a
//!   copy only when the newest segment is borrowed.
//! * **Rows leave by whole segments.** Trimming moves the head and frees
//!   every segment it has passed; the memory goes when the last borrower
//!   drops its chunk too. Only a positional (non-prefix) removal rewrites
//!   rows, and only in the segments it touches.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use datacell_bat::column::Column;
use datacell_engine::Chunk;
use datacell_sql::Schema;

/// One run of rows and the oid of its first row.
#[derive(Debug)]
struct Segment {
    base: u64,
    rows: Arc<Chunk>,
}

impl Segment {
    fn end(&self) -> u64 {
        self.base + self.rows.len() as u64
    }
}

/// The resident rows of one basket (see the module docs).
#[derive(Debug)]
pub(crate) struct Segments {
    segs: VecDeque<Segment>,
    /// Oid of the oldest live row.
    head: u64,
    /// Oid one past the newest row.
    end: u64,
    /// The basket's empty chunk, lent by every empty read.
    empty: Arc<Chunk>,
    /// [`Segments::len`], stored by every change so that it is read
    /// without the basket lock ([`Segments::live`]).
    live: Arc<AtomicUsize>,
}

impl Segments {
    /// No rows, for a basket whose full schema (with `ts`) is `schema`.
    pub(crate) fn new(schema: Schema) -> Self {
        Segments {
            segs: VecDeque::new(),
            head: 0,
            end: 0,
            empty: Arc::new(Chunk::empty(schema)),
            live: Arc::default(),
        }
    }

    /// The live row count as every change publishes it. Relaxed: it
    /// publishes no other data, and whoever acts on it decides again under
    /// the basket lock.
    pub(crate) fn live(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.live)
    }

    fn publish(&self) {
        self.live.store(self.len(), Ordering::Relaxed);
    }

    fn schema(&self) -> &Schema {
        &self.empty.schema
    }

    /// Live rows.
    pub(crate) fn len(&self) -> usize {
        (self.end - self.head) as usize
    }

    /// Oid of the oldest live row (`end` when empty).
    pub(crate) fn head(&self) -> u64 {
        self.head
    }

    /// Oid the next appended row gets.
    pub(crate) fn end(&self) -> u64 {
        self.end
    }

    /// Segments held, dead rows and all.
    pub(crate) fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// The shared empty chunk.
    pub(crate) fn empty(&self) -> Arc<Chunk> {
        Arc::clone(&self.empty)
    }

    /// Heap bytes of the stored rows, including dead rows a segment still
    /// holds.
    pub(crate) fn byte_size(&self) -> usize {
        self.segs
            .iter()
            .flat_map(|s| &s.rows.columns)
            .map(Column::byte_size)
            .sum()
    }

    /// The newest segment's chunk, if an append may extend it in place:
    /// nothing borrows it and it holds no dead rows (those would then live
    /// as long as the appends continue).
    fn extendable(&mut self) -> Option<&mut Chunk> {
        let head = self.head;
        let last = self.segs.back_mut()?;
        if last.base < head {
            return None;
        }
        Arc::get_mut(&mut last.rows)
    }

    /// Append rows `rows` of `src` — the user columns, with or without a
    /// trailing `ts` column; `stamp` gives the arrival time of rows that
    /// come without one.
    pub(crate) fn append(
        &mut self,
        src: &[Column],
        rows: Range<usize>,
        stamp: impl FnOnce() -> i64,
    ) {
        let n = rows.len();
        if n == 0 {
            return;
        }
        let width = self.schema().len();
        let ts = (src.len() < width).then(stamp);
        let grow = |chunk: &mut Chunk| {
            for (d, s) in chunk.columns.iter_mut().zip(src) {
                if rows.start == 0 && rows.end == s.len() {
                    d.append_column(s).expect("basket-typed columns");
                } else {
                    let part = s
                        .slice(rows.start, rows.end)
                        .expect("range within the batch");
                    d.append_column(&part).expect("basket-typed columns");
                }
            }
            if let (Some(t), Some(Column::Timestamp(col))) = (ts, chunk.columns.last_mut()) {
                col.resize(col.len() + n, t);
            }
        };
        match self.extendable() {
            Some(chunk) => grow(chunk),
            None => {
                let mut chunk = Chunk {
                    schema: self.schema().clone(),
                    columns: self
                        .schema()
                        .columns
                        .iter()
                        .map(|c| Column::with_capacity(c.ty, n))
                        .collect(),
                };
                grow(&mut chunk);
                self.push_segment(chunk);
                return;
            }
        }
        self.end += n as u64;
        self.publish();
    }

    /// Append an owned batch (user columns, with or without `ts`): copied
    /// onto the newest segment when an append may extend it, else taken
    /// over as a segment of its own without a copy.
    pub(crate) fn push(&mut self, mut columns: Vec<Column>, stamp: impl FnOnce() -> i64) {
        let n = columns.first().map_or(0, Column::len);
        if n == 0 {
            return;
        }
        if self.extendable().is_some() {
            self.append(&columns, 0..n, stamp);
            return;
        }
        if columns.len() < self.schema().len() {
            columns.push(Column::Timestamp(vec![stamp(); n]));
        }
        debug_assert!(columns
            .iter()
            .zip(&self.schema().columns)
            .all(|(c, d)| c.data_type() == d.ty && c.len() == n));
        let chunk = Chunk {
            schema: self.schema().clone(),
            columns,
        };
        self.push_segment(chunk);
    }

    fn push_segment(&mut self, chunk: Chunk) {
        let base = self.end;
        self.end += chunk.len() as u64;
        if self.segs.is_empty() {
            self.head = base;
        }
        self.segs.push_back(Segment {
            base,
            rows: Arc::new(chunk),
        });
        self.publish();
    }

    /// The newest `n` rows, as the newest segment's columns and the range
    /// they occupy there: an append lands whole in the newest segment.
    pub(crate) fn newest(&self, n: usize) -> (&[Column], Range<usize>) {
        let last = self.segs.back().expect("rows were just appended");
        let len = last.rows.len();
        debug_assert!(n <= len);
        (&last.rows.columns, len - n..len)
    }

    /// Take back the newest `n` rows, just appended under the same lock
    /// (so nothing has borrowed them).
    pub(crate) fn truncate_newest(&mut self, n: usize) {
        let last = self.segs.back_mut().expect("rows were just appended");
        let keep = last.rows.len() - n;
        if keep == 0 || last.base + (keep as u64) <= self.head {
            self.segs.pop_back();
        } else {
            let chunk = Arc::get_mut(&mut last.rows).expect("appended under the lock");
            for c in &mut chunk.columns {
                c.truncate(keep);
            }
        }
        self.end -= n as u64;
        self.head = self.head.min(self.end);
        self.publish();
    }

    /// Lend rows `[from, to)`, clamped to the live rows (see the module
    /// docs): one whole segment is shared as it is, a run of whole,
    /// unborrowed segments is merged in place first, and any other range
    /// is copied.
    pub(crate) fn lend(&mut self, from: u64, to: u64) -> Arc<Chunk> {
        let from = from.clamp(self.head, self.end);
        let to = to.clamp(from, self.end);
        if from == to {
            return self.empty();
        }
        let i = self.segs.partition_point(|s| s.end() <= from);
        let j = self.segs.partition_point(|s| s.end() < to);
        let borrowed = || {
            self.segs
                .range(i..=j)
                .any(|s| Arc::strong_count(&s.rows) > 1)
        };
        if self.segs[i].base != from || self.segs[j].end() != to || (i < j && borrowed()) {
            return Arc::new(self.copy(from, to));
        }
        if i < j {
            let merged = self.copy(from, to);
            self.segs.drain(i + 1..=j);
            self.segs[i].rows = Arc::new(merged);
        }
        Arc::clone(&self.segs[i].rows)
    }

    /// Copy rows `[from, to)` (within the live rows) into a new chunk.
    pub(crate) fn copy(&self, from: u64, to: u64) -> Chunk {
        let mut out = Chunk {
            schema: self.schema().clone(),
            columns: self
                .schema()
                .columns
                .iter()
                .map(|c| Column::with_capacity(c.ty, (to - from) as usize))
                .collect(),
        };
        self.copy_into(&mut out.columns, from, to);
        out
    }

    /// Append rows `[from, to)` (within the live rows) onto `dst`.
    pub(crate) fn copy_into(&self, dst: &mut [Column], from: u64, to: u64) {
        let first = self.segs.partition_point(|s| s.end() <= from);
        for seg in self.segs.range(first..) {
            if seg.base >= to {
                break;
            }
            let lo = (from.max(seg.base) - seg.base) as usize;
            let hi = (to.min(seg.end()) - seg.base) as usize;
            for (d, s) in dst.iter_mut().zip(&seg.rows.columns) {
                if lo == 0 && hi == s.len() {
                    d.append_column(s).expect("same schema");
                } else {
                    let part = s.slice(lo, hi).expect("range within the segment");
                    d.append_column(&part).expect("same schema");
                }
            }
        }
    }

    /// Move the head to `to` (clamped to the live rows), freeing every
    /// segment it passes. Returns the rows dropped.
    pub(crate) fn trim_to(&mut self, to: u64) -> usize {
        let to = to.clamp(self.head, self.end);
        let dropped = (to - self.head) as usize;
        self.head = to;
        while self.segs.front().is_some_and(|s| s.end() <= to) {
            self.segs.pop_front();
        }
        self.publish();
        dropped
    }

    /// Drop every live row.
    pub(crate) fn clear(&mut self) {
        self.segs.clear();
        self.head = self.end;
        self.publish();
    }

    /// Replace the contents with `chunk`, its first row at oid `base`.
    pub(crate) fn restore(&mut self, chunk: Chunk, base: u64) {
        self.segs.clear();
        self.head = base;
        self.end = base;
        self.push(chunk.columns, || {
            unreachable!("a restored chunk carries `ts`")
        });
        self.publish();
    }

    /// Remove the live rows at the sorted, distinct positions `gone`
    /// (relative to the head, each `< len`). Survivors keep their order and
    /// the newest keeps its oid, so the head moves up by `gone.len()`.
    /// Only segments holding a removed row are rewritten.
    pub(crate) fn remove(&mut self, gone: &[usize]) {
        if gone.is_empty() {
            return;
        }
        let head = self.head;
        let mut at = 0;
        let mut kept = VecDeque::with_capacity(self.segs.len());
        for seg in self.segs.drain(..) {
            let lo = seg.base.max(head);
            let hi = (seg.end() - head) as usize;
            let n = gone[at..].partition_point(|&p| p < hi);
            let hits = &gone[at..at + n];
            at += n;
            if hits.is_empty() {
                kept.push_back(seg);
                continue;
            }
            let skip = (lo - seg.base) as usize;
            let first = (lo - head) as usize;
            let mut hit = hits.iter().peekable();
            let keep: Vec<usize> = (skip..seg.rows.len())
                .filter(|&p| hit.next_if_eq(&&(first + p - skip)).is_none())
                .collect();
            if keep.is_empty() {
                continue;
            }
            let rows = Chunk {
                schema: seg.rows.schema.clone(),
                columns: seg
                    .rows
                    .columns
                    .iter()
                    .map(|c| c.take(&keep).expect("positions within the segment"))
                    .collect(),
            };
            kept.push_back(Segment {
                base: 0,
                rows: Arc::new(rows),
            });
        }
        // Renumber from the newest row down.
        let mut end = self.end;
        for seg in kept.iter_mut().rev() {
            end -= seg.rows.len() as u64;
            seg.base = end;
        }
        let live = self.len() - gone.len();
        self.head = self.end - live as u64;
        self.segs = kept;
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_bat::types::DataType;

    fn segments() -> Segments {
        Segments::new(Schema::new(vec![
            ("x".into(), DataType::Int),
            ("ts".into(), DataType::Timestamp),
        ]))
    }

    fn ints(chunk: &Chunk) -> Vec<i64> {
        chunk.columns[0].as_ints().unwrap().to_vec()
    }

    fn push(s: &mut Segments, xs: Vec<i64>) {
        s.push(vec![Column::from_ints(xs)], || 7);
    }

    fn big(lo: i64) -> Vec<i64> {
        (lo..lo + 64).collect()
    }

    /// Segments of 64 rows from oid 0, each pushed while the one before
    /// it was borrowed.
    fn tiled(n: i64) -> Segments {
        let mut s = segments();
        for k in 0..n {
            let held = (k > 0).then(|| s.lend(64 * (k as u64 - 1), 64 * k as u64));
            push(&mut s, big(64 * k));
            drop(held);
        }
        assert_eq!(s.segment_count(), n as usize);
        s
    }

    #[test]
    fn a_whole_segment_is_lent_as_it_is() {
        let mut s = segments();
        push(&mut s, big(0));
        let a = s.lend(0, 64);
        let b = s.lend(0, 64);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.columns[1].as_timestamps().unwrap()[0], 7);
    }

    #[test]
    fn an_owned_batch_is_its_own_segment_only_behind_a_borrowed_one() {
        let mut s = segments();
        push(&mut s, big(0));
        push(&mut s, big(64));
        assert_eq!(s.segment_count(), 1, "copied onto the unborrowed newest");
        let held = s.lend(0, 128);
        push(&mut s, big(128));
        assert_eq!(s.segment_count(), 2);
        assert_eq!(ints(&held), (0..128).collect::<Vec<_>>());
        assert_eq!(s.live().load(Ordering::Relaxed), 192);
    }

    #[test]
    fn a_run_of_unborrowed_segments_is_merged_once_in_place() {
        let mut s = tiled(3);
        // One of the run is borrowed: a copy, and the run stays as it is.
        let first = s.lend(0, 64);
        let copy = s.lend(0, 128);
        assert_eq!(s.segment_count(), 3);
        assert!(!Arc::ptr_eq(&copy, &s.lend(0, 128)));
        drop(first);
        let a = s.lend(0, 128);
        assert_eq!(s.segment_count(), 2);
        assert!(Arc::ptr_eq(&a, &s.lend(0, 128)));
        assert_eq!(ints(&a), ints(&copy));
        assert_eq!(ints(&a), (0..128).collect::<Vec<_>>());
    }

    #[test]
    fn appends_extend_only_an_unborrowed_segment() {
        let mut s = segments();
        s.append(&[Column::from_ints(vec![1, 2])], 0..2, || 0);
        s.append(&[Column::from_ints(vec![3])], 0..1, || 0);
        assert_eq!(s.segment_count(), 1);
        let lent = s.lend(0, 3);
        s.append(&[Column::from_ints(vec![4])], 0..1, || 0);
        assert_eq!(s.segment_count(), 2);
        assert_eq!(ints(&lent), [1, 2, 3]);
        // A range cutting a segment is a copy.
        let cut = s.lend(1, 4);
        assert_eq!(ints(&cut), [2, 3, 4]);
        assert_eq!(s.segment_count(), 2);
    }

    #[test]
    fn trims_free_whole_segments_and_removals_rewrite_only_what_they_touch() {
        let mut s = tiled(3);
        let held = s.lend(64, 128);
        assert_eq!(s.trim_to(10), 10);
        assert_eq!(s.segment_count(), 3);
        assert_eq!(s.trim_to(64), 54);
        assert_eq!(s.segment_count(), 2);
        // Remove rows 130 and 131 (positions 66, 67 from the head at 64).
        s.remove(&[66, 67]);
        assert_eq!((s.head(), s.end(), s.len()), (66, 192, 126));
        assert_eq!(s.live().load(Ordering::Relaxed), 126);
        assert_eq!(
            s.lend(66, 130).as_ref().columns[0].as_ints().unwrap(),
            &big(64)[..]
        );
        assert!(Arc::ptr_eq(&held, &s.lend(66, 130)));
        let tail = ints(&s.lend(130, 192));
        assert_eq!(tail[..2], [128, 129]);
        assert_eq!(tail[2], 132);
        s.clear();
        assert_eq!((s.len(), s.segment_count()), (0, 0));
        assert_eq!(s.live().load(Ordering::Relaxed), 0);
        assert_eq!(ints(&held), big(64));
    }
}
