//! Join kernels: hash, merge, semi/anti, and positional fetch joins.
//!
//! Joins return *pairs of position lists* `(lpos, rpos)`, not materialized
//! tuples — exactly MonetDB's join result shape. Tuple reconstruction then
//! uses [`fetch_join`] per payload column, exploiting the tuple-order
//! alignment the paper describes in §2.
//!
//! Type dispatch happens once per join, not once per row: each kernel
//! resolves both tails to an `i64` key per row (ints and timestamps as they
//! are, floats by canonical bits, bools as 0/1, strings as codes of the
//! build side's dictionary, nil as [`NIL_INT`]) and then runs one
//! monomorphized build/probe loop. String probes translate the left
//! dictionary into right-side codes once — one string hash per distinct
//! value — and compare integer codes after that.
//!
//! [`hash_join`] builds MonetDB's BAT hash shape over the right input: a
//! power-of-two array of `u32` chain heads and one `u32` link per build row,
//! hashed with the group-by kernel's hash. Nothing is allocated per key.
//!
//! Nil keys never match (SQL equi-join semantics).

use std::collections::HashSet;
use std::hash::Hash;

use crate::bat::Bat;
use crate::candidates::{CandView, Candidates};
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::group::{float_key, hash, EMPTY};
use crate::heap::StrHeap;
use crate::types::{is_nil_int, DataType, NIL_INT, NIL_STR_CODE};

/// Positional projection (`leftfetchjoin`): gather `bat` tuples at
/// `positions`, producing a dense-headed result aligned with the positions
/// vector. This is the tuple-reconstruction primitive.
pub fn fetch_join(positions: &[usize], bat: &Bat) -> Result<Bat> {
    Ok(Bat::new(bat.tail().take(positions)?))
}

/// A numeric tail as float keys ([`float_key`]: `-0.0` is `0.0`, NaN and
/// nil are [`NIL_INT`]), widening int/timestamp values so mixed-type joins
/// compare in one domain.
fn float_keys(col: &Column) -> Vec<i64> {
    match col {
        Column::Int(v) | Column::Timestamp(v) => v
            .iter()
            .map(|&x| {
                if is_nil_int(x) {
                    NIL_INT
                } else {
                    float_key(x as f64)
                }
            })
            .collect(),
        Column::Float(v) => v.iter().map(|&x| float_key(x)).collect(),
        // join_types only unifies numeric inputs to Float.
        _ => unreachable!("float-keyed join over non-numeric column"),
    }
}

#[inline]
fn bool_key(v: i8) -> i64 {
    match v {
        0 => 0,
        1 => 1,
        _ => NIL_INT,
    }
}

#[inline]
fn code_key(c: u32) -> i64 {
    if c == NIL_STR_CODE {
        NIL_INT
    } else {
        i64::from(c)
    }
}

/// `Some(key)` unless it is the nil key.
#[inline]
fn non_nil(k: i64) -> Option<i64> {
    (k != NIL_INT).then_some(k)
}

#[inline]
fn str_key<'a>(codes: &[u32], heap: &'a StrHeap, p: usize) -> Option<&'a str> {
    let c = codes[p];
    if c == NIL_STR_CODE {
        None
    } else {
        heap.get(c)
    }
}

fn join_types(l: &Column, r: &Column, op: &'static str) -> Result<bool> {
    let unified = l
        .data_type()
        .unify(r.data_type())
        .ok_or(BatError::TypeMismatch {
            op,
            expected: l.data_type().name(),
            got: r.data_type().name(),
        })?;
    Ok(unified == DataType::Float)
}

/// Equi hash join: all pairs `(lp, rp)` with `left[lp] == right[rp]`.
///
/// Builds on the right input, probes with the left; output is left-major
/// ordered (ascending `lp`, then right build order, i.e. ascending `rp`).
/// `lcand`/`rcand` restrict each side. Mixed int/float keys compare as
/// floats, where `-0.0` equals `0.0`.
pub fn hash_join(
    left: &Column,
    right: &Column,
    lcand: Option<&Candidates>,
    rcand: Option<&Candidates>,
) -> Result<(Vec<usize>, Vec<usize>)> {
    let as_float = join_types(left, right, "hash_join")?;
    let lsel = Candidates::resolve(lcand, left.len())?;
    let rsel = Candidates::resolve(rcand, right.len())?;
    match (left, right) {
        (
            Column::Str {
                codes: lc,
                heap: lh,
            },
            Column::Str {
                codes: rc,
                heap: rh,
            },
        ) => {
            // Translate the left dictionary once: one string hash per
            // distinct left value, then the probe compares right codes.
            let to_right: Vec<i64> = (0..lh.len() as u32)
                .map(|c| {
                    lh.get(c)
                        .and_then(|s| rh.code_of(s))
                        .map_or(NIL_INT, i64::from)
                })
                .collect();
            chained_join(
                &lsel,
                &rsel,
                |p| to_right.get(lc[p] as usize).copied().unwrap_or(NIL_INT),
                |p| code_key(rc[p]),
            )
        }
        (Column::Bool(lv), Column::Bool(rv)) => {
            chained_join(&lsel, &rsel, |p| bool_key(lv[p]), |p| bool_key(rv[p]))
        }
        _ if as_float => {
            let (lk, rk) = (float_keys(left), float_keys(right));
            chained_join(&lsel, &rsel, |p| lk[p], |p| rk[p])
        }
        _ => {
            let (lv, rv) = (left.as_i64s()?, right.as_i64s()?);
            chained_join(&lsel, &rsel, |p| lv[p], |p| rv[p])
        }
    }
}

/// The hash join proper over `i64` keys ([`NIL_INT`] = nil). The build
/// keeps the right side's non-nil rows in candidate order and threads them
/// into chains, inserting in reverse so every chain lists its rows in build
/// order; the probe walks the left candidates and, per key, its one chain,
/// comparing keys (distinct keys may share a bucket).
fn chained_join(
    lsel: &CandView<'_>,
    rsel: &CandView<'_>,
    lkey: impl Fn(usize) -> i64,
    rkey: impl Fn(usize) -> i64,
) -> Result<(Vec<usize>, Vec<usize>)> {
    let mut bkeys = Vec::with_capacity(rsel.len());
    let mut bpos = Vec::with_capacity(rsel.len());
    rsel.for_each_pos(|rp| {
        let k = rkey(rp);
        if k != NIL_INT {
            bkeys.push(k);
            bpos.push(rp);
        }
    });
    if bkeys.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    if bkeys.len() >= EMPTY as usize {
        return Err(BatError::Invalid(format!(
            "hash_join: {} build rows exceed the u32 chain space",
            bkeys.len()
        )));
    }
    // About two buckets per build row keeps chains of distinct keys short.
    let buckets = (bkeys.len() * 2).next_power_of_two().max(16);
    let shift = 64 - buckets.trailing_zeros();
    let bucket = |k: i64| (hash(k, 0) >> shift) as usize;
    let mut heads = vec![EMPTY; buckets];
    let mut links = vec![EMPTY; bkeys.len()];
    for (j, &k) in bkeys.iter().enumerate().rev() {
        let head = &mut heads[bucket(k)];
        links[j] = *head;
        *head = j as u32;
    }
    let mut lpos = Vec::with_capacity(lsel.len());
    let mut rpos = Vec::with_capacity(lsel.len());
    lsel.for_each_pos(|lp| {
        let k = lkey(lp);
        if k == NIL_INT {
            return;
        }
        let mut j = heads[bucket(k)];
        while j != EMPTY {
            let at = j as usize;
            if bkeys[at] == k {
                lpos.push(lp);
                rpos.push(bpos[at]);
            }
            j = links[at];
        }
    });
    Ok((lpos, rpos))
}

/// Merge join over two tails both flagged sorted; falls back to
/// [`hash_join`] when either sortedness hint is absent.
pub fn merge_join(left: &Bat, right: &Bat) -> Result<(Vec<usize>, Vec<usize>)> {
    if !left.is_sorted() || !right.is_sorted() {
        return hash_join(left, right, None, None);
    }
    // Sorted merge currently specialized for i64-backed tails (the common
    // case: oids, timestamps, int keys); other types use the hash path.
    let (lv, rv) = match (left.tail().as_i64s(), right.tail().as_i64s()) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return hash_join(left, right, None, None),
    };
    let mut lpos = Vec::new();
    let mut rpos = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lv.len() && j < rv.len() {
        if is_nil_int(lv[i]) {
            i += 1;
            continue;
        }
        if is_nil_int(rv[j]) {
            j += 1;
            continue;
        }
        match lv[i].cmp(&rv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Emit the cross product of the equal runs.
                let v = lv[i];
                let li0 = i;
                while i < lv.len() && lv[i] == v {
                    i += 1;
                }
                let rj0 = j;
                while j < rv.len() && rv[j] == v {
                    j += 1;
                }
                for li in li0..i {
                    for rj in rj0..j {
                        lpos.push(li);
                        rpos.push(rj);
                    }
                }
            }
        }
    }
    Ok((lpos, rpos))
}

/// Build the membership set over the full right side.
fn build_set<K: Hash + Eq>(right_len: usize, get: impl Fn(usize) -> Option<K>) -> HashSet<K> {
    let mut set = HashSet::new();
    for p in 0..right_len {
        if let Some(k) = get(p) {
            set.insert(k);
        }
    }
    set
}

/// Keep the left candidate positions whose key satisfies `pred`. Upgrades to
/// [`Candidates::Dense`] when every scanned dense position qualifies.
fn filter_positions(
    len: usize,
    cand: Option<&Candidates>,
    pred: impl Fn(usize) -> bool,
) -> Result<Candidates> {
    let sel = Candidates::resolve(cand, len)?;
    let mut out = Vec::new();
    sel.for_each_pos(|p| {
        if pred(p) {
            out.push(p);
        }
    });
    Ok(match sel {
        CandView::Dense(r) => Candidates::from_scan(out, r),
        CandView::Positions(_) => Candidates::from_sorted_unchecked(out),
    })
}

/// Shared semi/anti core: keep left rows whose (non-nil) key membership in
/// the right-side set equals `keep_matched`. Nil probe keys never qualify,
/// matching SQL `IN` / `NOT IN` over non-null probe values.
fn membership_join(
    left: &Bat,
    right: &Bat,
    lcand: Option<&Candidates>,
    keep_matched: bool,
    op: &'static str,
) -> Result<Candidates> {
    let as_float = join_types(left, right, op)?;
    match (left.tail(), right.tail()) {
        (
            Column::Str {
                codes: lc,
                heap: lh,
            },
            Column::Str {
                codes: rc,
                heap: rh,
            },
        ) => {
            let set = build_set(rc.len(), |p| str_key(rc, rh, p));
            // Per-left-dictionary-entry qualification, like the select
            // kernels: one hash per distinct string, integer scan after.
            let qual: Vec<bool> = (0..lh.len() as u32)
                .map(|c| lh.get(c).is_some_and(|s| set.contains(s) == keep_matched))
                .collect();
            filter_positions(lc.len(), lcand, |p| {
                matches!(qual.get(lc[p] as usize), Some(true))
            })
        }
        (Column::Bool(lv), Column::Bool(rv)) => {
            let set = build_set(rv.len(), |p| non_nil(bool_key(rv[p])));
            filter_positions(lv.len(), lcand, |p| {
                non_nil(bool_key(lv[p])).is_some_and(|k| set.contains(&k) == keep_matched)
            })
        }
        _ if as_float => {
            let (lk, rk) = (float_keys(left.tail()), float_keys(right.tail()));
            let set = build_set(rk.len(), |p| non_nil(rk[p]));
            filter_positions(lk.len(), lcand, |p| {
                non_nil(lk[p]).is_some_and(|k| set.contains(&k) == keep_matched)
            })
        }
        _ => {
            let lv = left.tail().as_i64s()?;
            let rv = right.tail().as_i64s()?;
            let set = build_set(rv.len(), |p| non_nil(rv[p]));
            filter_positions(lv.len(), lcand, |p| {
                non_nil(lv[p]).is_some_and(|k| set.contains(&k) == keep_matched)
            })
        }
    }
}

/// Left semi-join: candidates of `left` positions having ≥1 match in `right`.
pub fn semi_join(left: &Bat, right: &Bat, lcand: Option<&Candidates>) -> Result<Candidates> {
    membership_join(left, right, lcand, true, "semi_join")
}

/// Left anti-join: candidates of `left` positions with *no* match in
/// `right`. Rows whose key is nil are excluded (SQL `NOT IN` semantics for
/// non-null probe keys).
pub fn anti_join(left: &Bat, right: &Bat, lcand: Option<&Candidates>) -> Result<Candidates> {
    membership_join(left, right, lcand, false, "anti_join")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Value, NIL_INT};

    #[test]
    fn fetch_join_gathers() {
        let b = Bat::from_ints(vec![10, 20, 30]);
        let f = fetch_join(&[2, 0, 2], &b).unwrap();
        assert_eq!(f.tail().as_ints().unwrap(), &[30, 10, 30]);
    }

    #[test]
    fn hash_join_basic() {
        let l = Bat::from_ints(vec![1, 2, 3, 2]);
        let r = Bat::from_ints(vec![2, 4, 1]);
        let (lp, rp) = hash_join(&l, &r, None, None).unwrap();
        assert_eq!(lp, vec![0, 1, 3]);
        assert_eq!(rp, vec![2, 0, 0]);
    }

    #[test]
    fn hash_join_duplicates_cross_product() {
        let l = Bat::from_ints(vec![7, 7]);
        let r = Bat::from_ints(vec![7, 7, 7]);
        let (lp, rp) = hash_join(&l, &r, None, None).unwrap();
        assert_eq!(lp.len(), 6);
        assert_eq!(rp.len(), 6);
    }

    #[test]
    fn hash_join_nil_never_matches() {
        let l = Bat::from_ints(vec![NIL_INT, 1]);
        let r = Bat::from_ints(vec![NIL_INT, 1]);
        let (lp, rp) = hash_join(&l, &r, None, None).unwrap();
        assert_eq!(lp, vec![1]);
        assert_eq!(rp, vec![1]);
    }

    #[test]
    fn hash_join_mixed_numeric_types() {
        let l = Bat::from_ints(vec![1, 2, 3]);
        let r = Bat::from_floats(vec![2.0, 3.0, 2.5]);
        let (lp, rp) = hash_join(&l, &r, None, None).unwrap();
        assert_eq!(lp, vec![1, 2]);
        assert_eq!(rp, vec![0, 1]);
    }

    #[test]
    fn hash_join_strings_across_heaps() {
        let l = Bat::from_strs(&["a", "b", "c"]);
        let r = Bat::from_strs(&["c", "a"]);
        let (lp, rp) = hash_join(&l, &r, None, None).unwrap();
        assert_eq!(lp, vec![0, 2]);
        assert_eq!(rp, vec![1, 0]);
    }

    #[test]
    fn hash_join_incompatible_types() {
        let l = Bat::from_ints(vec![1]);
        let r = Bat::from_strs(&["1"]);
        assert!(hash_join(&l, &r, None, None).is_err());
    }

    #[test]
    fn hash_join_with_candidates() {
        let l = Bat::from_ints(vec![1, 2, 3]);
        let r = Bat::from_ints(vec![1, 2, 3]);
        let lc = Candidates::from_positions(vec![1, 2]).unwrap();
        let rc = Candidates::from_positions(vec![0, 1]).unwrap();
        let (lp, rp) = hash_join(&l, &r, Some(&lc), Some(&rc)).unwrap();
        assert_eq!(lp, vec![1]);
        assert_eq!(rp, vec![1]);
    }

    #[test]
    fn hash_join_rejects_out_of_range_candidates() {
        let l = Bat::from_ints(vec![1, 2]);
        let r = Bat::from_ints(vec![1, 2]);
        let bad = Candidates::from_positions(vec![0, 5]).unwrap();
        assert_eq!(
            hash_join(&l, &r, Some(&bad), None).unwrap_err(),
            BatError::PositionOutOfRange { pos: 5, len: 2 }
        );
        assert_eq!(
            hash_join(&l, &r, None, Some(&bad)).unwrap_err(),
            BatError::PositionOutOfRange { pos: 5, len: 2 }
        );
    }

    #[test]
    fn merge_join_sorted_runs() {
        let mut l = Bat::from_ints(vec![1, 2, 2, 5]);
        l.set_sorted(true);
        let mut r = Bat::from_ints(vec![2, 2, 5, 9]);
        r.set_sorted(true);
        let (lp, rp) = merge_join(&l, &r).unwrap();
        // 2×2 run gives 4 pairs, plus (5,5).
        assert_eq!(lp, vec![1, 1, 2, 2, 3]);
        assert_eq!(rp, vec![0, 1, 0, 1, 2]);
    }

    #[test]
    fn merge_join_agrees_with_hash_join() {
        let vals_l = vec![1, 3, 3, 4, 8, 8, 9];
        let vals_r = vec![0, 3, 4, 4, 8];
        let mut l = Bat::from_ints(vals_l.clone());
        l.set_sorted(true);
        let mut r = Bat::from_ints(vals_r.clone());
        r.set_sorted(true);
        let (mlp, mrp) = merge_join(&l, &r).unwrap();
        let (hlp, hrp) = hash_join(&l, &r, None, None).unwrap();
        let mut m: Vec<(usize, usize)> = mlp.into_iter().zip(mrp).collect();
        let mut h: Vec<(usize, usize)> = hlp.into_iter().zip(hrp).collect();
        m.sort_unstable();
        h.sort_unstable();
        assert_eq!(m, h);
    }

    #[test]
    fn semi_and_anti_partition_candidates() {
        let l = Bat::from_ints(vec![1, 2, 3, 4]);
        let r = Bat::from_ints(vec![2, 4, 6]);
        let semi = semi_join(&l, &r, None).unwrap();
        let anti = anti_join(&l, &r, None).unwrap();
        assert_eq!(semi.to_positions(), vec![1, 3]);
        assert_eq!(anti.to_positions(), vec![0, 2]);
    }

    #[test]
    fn semi_join_all_match_collapses_to_dense() {
        let l = Bat::from_ints(vec![1, 2, 1, 2]);
        let r = Bat::from_ints(vec![2, 1]);
        let semi = semi_join(&l, &r, None).unwrap();
        assert!(matches!(semi, Candidates::Dense(ref rng) if *rng == (0..4)));
    }

    #[test]
    fn semi_join_strings_uses_dictionary() {
        let l = Bat::from_strs(&["pear", "kiwi", "pear", "fig"]);
        let r = Bat::from_strs(&["pear", "plum"]);
        let semi = semi_join(&l, &r, None).unwrap();
        assert_eq!(semi.to_positions(), vec![0, 2]);
        let anti = anti_join(&l, &r, None).unwrap();
        assert_eq!(anti.to_positions(), vec![1, 3]);
    }

    #[test]
    fn bool_join() {
        let l = Bat::new(crate::column::Column::from_bools(vec![true, false]));
        let r = Bat::new(crate::column::Column::from_bools(vec![false]));
        let (lp, rp) = hash_join(&l, &r, None, None).unwrap();
        assert_eq!(lp, vec![1]);
        assert_eq!(rp, vec![0]);
    }

    #[test]
    fn timestamp_joins_with_int() {
        let l = Bat::new(crate::column::Column::from_timestamps(vec![100, 200]));
        let r = Bat::from_ints(vec![200]);
        let (lp, rp) = hash_join(&l, &r, None, None).unwrap();
        assert_eq!(lp, vec![1]);
        assert_eq!(rp, vec![0]);
        let _ = Value::Timestamp(1); // silence unused import in some cfgs
    }

    #[test]
    fn negative_zero_matches_zero() {
        let l = Bat::from_floats(vec![0.0]);
        let r = Bat::from_floats(vec![-0.0]);
        let (lp, _) = hash_join(&l, &r, None, None).unwrap();
        assert_eq!(lp, vec![0]);
    }
}
