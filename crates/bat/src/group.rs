//! Group-by kernels using MonetDB's iterative subgroup refinement.
//!
//! Multi-column grouping is computed one column at a time: grouping by the
//! first column yields a [`Grouping`]; each further column *refines* it
//! (`group.subgroup` in MAL). Aggregates then run over the final group ids
//! (see [`crate::aggregate`]).
//!
//! Unlike comparisons, GROUP BY treats nil as a regular key: all nil rows
//! form one group (SQL semantics).
//!
//! Every column type is dispatched once, outside the row loop, to an `i64`
//! key (ints and timestamps as they are, bools, string dictionary codes,
//! floats by canonical bits). One pass takes the key range; when it is
//! small next to the input the key *is* the table index (no hashing, no
//! probing), otherwise — in practice always for floats — an
//! open-addressing table over the raw 64-bit key takes over. Either way
//! group ids are numbered by first appearance in candidate order, so the
//! result does not depend on which table was used (`docs/kernels.md`,
//! "Group-by").

use crate::candidates::{contiguous_run, CandView, Candidates};
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::types::{NIL_INT, NIL_STR_CODE};

/// Result of grouping `n` rows: a dense group id per row plus one
/// representative row position per group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouping {
    /// Group id for each considered row, in candidate order. Ids are dense
    /// in `0..n_groups`, numbered by first appearance.
    pub ids: Vec<usize>,
    /// Number of distinct groups.
    pub n_groups: usize,
    /// For each group, the position (in the underlying BAT) of its first
    /// member — used to fetch the grouping keys for the output.
    pub representatives: Vec<usize>,
    /// Row positions considered, in the same order as `ids`.
    pub rows: Vec<usize>,
}

impl Grouping {
    /// Per-group member counts.
    pub fn histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.n_groups];
        for &g in &self.ids {
            h[g] += 1;
        }
        h
    }
}

/// Free-slot marker of both tables (and end of chain of the join's chained
/// table). Group ids are stored as `u32`, which is why a grouping holds
/// fewer than `u32::MAX` rows.
pub(crate) const EMPTY: u32 = u32::MAX;

/// Direct addressing is chosen while the table needs at most this many
/// `u32` slots per input row, i.e. while zeroing it costs no more than
/// reading the keys did. A small firing over a wide key domain therefore
/// hashes instead of clearing a table sized for the domain.
const DIRECT_SLOTS_PER_ROW: usize = 2;

/// Upper bound on the hash table's *initial* slot count; it doubles on
/// demand, so its size follows the number of groups, not of rows.
const HASH_INITIAL_SLOTS: usize = 1024;

/// Group the rows of `col` (restricted to `cand` if given), optionally
/// refining a previous grouping over the *same* row set.
pub fn group_by(
    col: &Column,
    prev: Option<&Grouping>,
    cand: Option<&Candidates>,
) -> Result<Grouping> {
    let (rows, run): (Vec<usize>, _) = match prev {
        Some(g) => {
            if let Some(&bad) = g.rows.iter().find(|&&p| p >= col.len()) {
                return Err(BatError::PositionOutOfRange {
                    pos: bad,
                    len: col.len(),
                });
            }
            if g.ids.len() != g.rows.len() {
                return Err(BatError::Misaligned {
                    op: "group_by",
                    left: g.ids.len(),
                    right: g.rows.len(),
                });
            }
            (g.rows.clone(), contiguous_run(&g.rows))
        }
        None => match Candidates::resolve(cand, col.len())? {
            // An empty range may lie past the column; it has no run to slice.
            CandView::Dense(r) => (r.clone().collect(), Some(r).filter(|r| !r.is_empty())),
            CandView::Positions(p) => (p.to_vec(), None),
        },
    };
    // Groups of the refined grouping, taken from its ids rather than its
    // `n_groups` field so a hand-built `Grouping` cannot index out of the
    // direct table.
    let prev_groups = prev.map_or(1, |g| g.ids.iter().max().map_or(0, |&m| m + 1));
    if rows.len() >= EMPTY as usize || prev_groups >= EMPTY as usize {
        return Err(BatError::Invalid(format!(
            "group_by: {} rows exceed the u32 group-id space",
            rows.len()
        )));
    }
    // Every column type groups by an `i64` key with nil as `NIL_INT`; the
    // type is resolved here, once, into the key function the loops below
    // are compiled for.
    let shape = Shape {
        rows: &rows,
        run,
        prev: prev.map(|g| g.ids.as_slice()),
        prev_groups,
    };
    let (ids, representatives) = match col {
        Column::Int(v) | Column::Timestamp(v) => shape.group(v, |x| x),
        Column::Float(v) => shape.group(v, float_key),
        Column::Bool(v) => shape.group(v, |b| match b {
            0 => 0,
            1 => 1,
            _ => NIL_INT,
        }),
        // A dictionary code is a stable identity *within one column's
        // heap*, which is the only scope a grouping key needs.
        Column::Str { codes, .. } => shape.group(codes, |c| {
            if c == NIL_STR_CODE {
                NIL_INT
            } else {
                i64::from(c)
            }
        }),
    };
    Ok(Grouping {
        n_groups: representatives.len(),
        ids,
        representatives,
        rows,
    })
}

/// Float keys by canonical bits: `-0.0` and `0.0` are one key and every NaN
/// (nil) is [`NIL_INT`] — the bits of `-0.0`, which canonical zero never
/// yields. The join kernels key floats the same way.
#[inline]
pub(crate) fn float_key(x: f64) -> i64 {
    if x.is_nan() {
        NIL_INT
    } else if x == 0.0 {
        0
    } else {
        x.to_bits() as i64
    }
}

/// Which rows are grouped and what they refine — everything about a
/// `group_by` call but the key column.
struct Shape<'a> {
    /// Positions grouped, in candidate order.
    rows: &'a [usize],
    /// `rows` as a range when they are one contiguous run.
    run: Option<std::ops::Range<usize>>,
    /// Group id per row of the grouping being refined.
    prev: Option<&'a [usize]>,
    /// How many groups `prev` has (1 without one).
    prev_groups: usize,
}

impl Shape<'_> {
    /// Group by `key` of `vals`: a contiguous run of rows reads the keys as
    /// a sub-slice, anything else gathers.
    fn group<T: Copy>(
        &self,
        vals: &[T],
        key: impl Fn(T) -> i64 + Copy,
    ) -> (Vec<usize>, Vec<usize>) {
        match &self.run {
            Some(r) => self.by_range(vals[r.clone()].iter().map(move |&v| key(v))),
            None => self.by_range(self.rows.iter().map(move |&p| key(vals[p]))),
        }
    }

    /// Group id of row `i` (by ordinal) in the grouping being refined.
    #[inline]
    fn prev_of(&self, i: usize) -> usize {
        self.prev.map_or(0, |ids| ids[i])
    }

    /// Group `keys` (one per row, nil = [`NIL_INT`]). One pass measures the
    /// key range and picks the table: direct-addressed when `(range + nil
    /// slot) x prev_groups` is small next to the input, hashed otherwise
    /// (including a range too wide for `i64`, which is what float bit
    /// patterns usually are).
    fn by_range(&self, keys: impl Iterator<Item = i64> + Clone) -> (Vec<usize>, Vec<usize>) {
        let rows = self.rows;
        let (mut min, mut max, mut any_nil) = (i64::MAX, i64::MIN, false);
        for k in keys.clone() {
            let nil = k == NIL_INT;
            any_nil |= nil;
            // Nil is `i64::MIN`: it can never win the max, and is remapped
            // so it cannot win the min either.
            min = min.min(if nil { i64::MAX } else { k });
            max = max.max(k);
        }
        let values = if min > max {
            Some(0)
        } else {
            max.checked_sub(min)
                .and_then(|span| usize::try_from(span).ok())
                .and_then(|span| span.checked_add(1))
        };
        // One slot past the values is the nil group's.
        let direct = values
            .and_then(|v| v.checked_add(usize::from(any_nil)))
            .and_then(|slots| Some((slots, slots.checked_mul(self.prev_groups)?)))
            .filter(|&(_, total)| total <= rows.len().saturating_mul(DIRECT_SLOTS_PER_ROW));
        let Some((slots, total)) = direct else {
            return self.hashed(keys);
        };
        let mut table = vec![EMPTY; total];
        // No more groups than slots, nor than rows.
        let mut reps = Vec::with_capacity(total.min(rows.len()));
        let mut ids = vec![0usize; rows.len()];
        for (i, (k, id)) in keys.zip(&mut ids).enumerate() {
            let slot = if k == NIL_INT {
                slots - 1
            } else {
                k.wrapping_sub(min) as usize
            };
            let entry = &mut table[self.prev_of(i) * slots + slot];
            if *entry == EMPTY {
                *entry = reps.len() as u32;
                reps.push(rows[i]);
            }
            *id = *entry as usize;
        }
        (ids, reps)
    }

    /// Group by `(prev group, key)` through an open-addressing table kept
    /// at most a quarter full (short probe sequences are what keep the
    /// loop's branches predictable); it starts sized for the input (capped
    /// at [`HASH_INITIAL_SLOTS`]) and doubles as groups appear.
    fn hashed(&self, keys: impl Iterator<Item = i64>) -> (Vec<usize>, Vec<usize>) {
        let rows = self.rows;
        let slots = (rows.len() * 4)
            .next_power_of_two()
            .clamp(16, HASH_INITIAL_SLOTS);
        let mut table = vec![FREE; slots];
        let mut shift = 64 - slots.trailing_zeros();
        let mut reps: Vec<usize> = Vec::new();
        let mut ids = vec![0usize; rows.len()];
        for (i, (key, id)) in keys.zip(&mut ids).enumerate() {
            let prev = self.prev_of(i) as u32;
            let mut s = probe(&table, shift, key, prev);
            if table[s].id == EMPTY {
                if (reps.len() + 1) * 4 > table.len() {
                    let mut grown = vec![FREE; table.len() * 2];
                    shift -= 1;
                    for e in table.iter().filter(|e| e.id != EMPTY) {
                        let at = probe(&grown, shift, e.key, e.prev);
                        grown[at] = *e;
                    }
                    table = grown;
                    s = probe(&table, shift, key, prev);
                }
                table[s] = Slot {
                    key,
                    prev,
                    id: reps.len() as u32,
                };
                reps.push(rows[i]);
            }
            *id = table[s].id as usize;
        }
        (ids, reps)
    }
}

/// One open-addressing slot: the `(prev group, key)` pair it stands for and
/// the group id it was given (`EMPTY` while free).
#[derive(Clone, Copy)]
struct Slot {
    key: i64,
    prev: u32,
    id: u32,
}

const FREE: Slot = Slot {
    key: 0,
    prev: 0,
    id: EMPTY,
};

/// Multiplicative hash of a `(prev group, key)` pair; the caller keeps the
/// top `64 - shift` bits. One Fibonacci multiplication alone is ideal for
/// some key strides and clusters badly for others; folding the high half
/// back in and multiplying again evens that out, and in a linear-probing
/// loop an even spread matters more than the multiply it costs (every
/// extra probe is a mispredicted branch). The join's chained table hashes
/// with it too (`prev` = 0), so the engine has one hash.
#[inline]
pub(crate) fn hash(key: i64, prev: u32) -> u64 {
    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    let h = (key as u64 ^ u64::from(prev).wrapping_mul(0xD6E8_FEB8_6659_FD93)).wrapping_mul(PHI);
    (h ^ (h >> 32)).wrapping_mul(PHI)
}

/// First free slot or the slot holding `(prev, key)`, by linear probing.
#[inline]
fn probe(table: &[Slot], shift: u32, key: i64, prev: u32) -> usize {
    let mask = table.len() - 1;
    let mut s = (hash(key, prev) >> shift) as usize;
    while table[s].id != EMPTY && (table[s].key != key || table[s].prev != prev) {
        s = (s + 1) & mask;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::Bat;
    use crate::column::Column;
    use crate::types::NIL_INT;

    #[test]
    fn single_column_grouping() {
        let b = Bat::from_ints(vec![3, 1, 3, 2, 1]);
        let g = group_by(&b, None, None).unwrap();
        assert_eq!(g.n_groups, 3);
        assert_eq!(g.ids, vec![0, 1, 0, 2, 1]);
        assert_eq!(g.representatives, vec![0, 1, 3]);
        assert_eq!(g.histogram(), vec![2, 2, 1]);
    }

    #[test]
    fn nils_form_one_group() {
        let b = Bat::from_ints(vec![NIL_INT, 1, NIL_INT]);
        let g = group_by(&b, None, None).unwrap();
        assert_eq!(g.n_groups, 2);
        assert_eq!(g.ids, vec![0, 1, 0]);
    }

    #[test]
    fn refinement_multi_column() {
        // (a, b) pairs: (1,x) (1,y) (2,x) (1,x)
        let a = Bat::from_ints(vec![1, 1, 2, 1]);
        let b = Bat::from_strs(&["x", "y", "x", "x"]);
        let g1 = group_by(&a, None, None).unwrap();
        assert_eq!(g1.n_groups, 2);
        let g2 = group_by(&b, Some(&g1), None).unwrap();
        assert_eq!(g2.n_groups, 3);
        assert_eq!(g2.ids, vec![0, 1, 2, 0]);
    }

    #[test]
    fn grouping_with_candidates() {
        let b = Bat::from_ints(vec![1, 2, 1, 2, 3]);
        let cand = Candidates::from_positions(vec![1, 3, 4]).unwrap();
        let g = group_by(&b, None, Some(&cand)).unwrap();
        assert_eq!(g.rows, vec![1, 3, 4]);
        assert_eq!(g.ids, vec![0, 0, 1]);
        assert_eq!(g.n_groups, 2);
        assert_eq!(g.representatives, vec![1, 4]);
    }

    #[test]
    fn refinement_length_mismatch_is_error() {
        let a = Bat::from_ints(vec![1, 2]);
        let b = Bat::from_ints(vec![1, 2, 3]);
        let g1 = group_by(&a, None, None).unwrap();
        // g1.rows refers to rows 0..2, valid for b, but ids length differs
        // from a fresh grouping over b's full row set only via prev.rows —
        // simulate corruption by handing a prev with wrong arity.
        let bad = Grouping {
            ids: vec![0],
            n_groups: 1,
            representatives: vec![0],
            rows: vec![0, 1],
        };
        assert!(group_by(&b, Some(&bad), None).is_err());
        let _ = g1;
    }

    #[test]
    fn float_zero_negzero_same_group() {
        let b = Bat::from_floats(vec![0.0, -0.0, 1.0]);
        let g = group_by(&b, None, None).unwrap();
        assert_eq!(g.n_groups, 2);
        assert_eq!(g.ids, vec![0, 0, 1]);
    }

    #[test]
    fn bool_grouping_with_nil() {
        let mut c = Column::from_bools(vec![true, false, true]);
        c.push_nil();
        let b = Bat::new(c);
        let g = group_by(&b, None, None).unwrap();
        assert_eq!(g.n_groups, 3);
    }

    #[test]
    fn out_of_range_candidate_rejected() {
        let b = Bat::from_ints(vec![1]);
        let cand = Candidates::from_positions(vec![3]).unwrap();
        assert!(group_by(&b, None, Some(&cand)).is_err());
    }
}
