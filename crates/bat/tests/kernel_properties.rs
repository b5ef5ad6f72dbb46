//! Property-based tests over the kernel primitives.
//!
//! Strategy: compare every vectorized kernel against a straightforward
//! row-at-a-time oracle, and check algebraic laws (candidate-list algebra,
//! join symmetry, accumulator mergeability) on arbitrary inputs.

use datacell_bat::aggregate::{grouped_agg, scalar_agg, Accumulator, AggFunc};
use datacell_bat::calc::{arith, compare, true_candidates, ArithOp, Operand};
use datacell_bat::candidates::Candidates;
use datacell_bat::group::group_by;
use datacell_bat::join::{anti_join, hash_join, semi_join};
use datacell_bat::select::{select_range, theta_select, CmpOp};
use datacell_bat::sort::{distinct, order, SortOrder};
use datacell_bat::types::{DataType, Value, NIL_INT};
use datacell_bat::{Bat, Column};
use proptest::prelude::*;

mod reference;
use reference::{
    ref_arith, ref_compare, ref_group_by, ref_grouped_agg, ref_scalar_agg, ref_select_range,
    ref_theta, values_eq,
};

const ALL_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

const ALL_FUNCS: [AggFunc; 6] = [
    AggFunc::Count { star: true },
    AggFunc::Count { star: false },
    AggFunc::Sum,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
];

/// Materialize a candidate list from an independently generated recipe:
/// shape 0 = none (all rows), 1 = empty, 2 = dense sub-range, 3 = positions.
fn make_cand(shape: u8, a: usize, b: usize, raw: &[usize], len: usize) -> Option<Candidates> {
    match shape {
        0 => None,
        1 => Some(Candidates::none()),
        2 => Some(Candidates::Dense(a.min(b).min(len)..a.max(b).min(len))),
        _ => Some(
            Candidates::from_positions(raw.iter().copied().filter(|&p| p < len).collect()).unwrap(),
        ),
    }
}

/// Position pool for `make_cand` shape 3 (filtered to the data length).
fn raw_positions() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0usize..64, 0..40).prop_map(|s| s.into_iter().collect())
}

/// Floats rich in kernel edge cases: NaN (nil), signed zeros, infinities.
fn float_vals() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            8 => (-40i64..40).prop_map(|v| v as f64 / 4.0),
            1 => Just(f64::NAN),
            1 => Just(-0.0f64),
            1 => Just(0.0f64),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
        ],
        0..50,
    )
}

fn opt_int_bound() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![1 => Just(None), 3 => (-5i64..15).prop_map(Some)]
}

fn opt_float_bound() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        1 => Just(None),
        1 => Just(Some(0.0f64)),
        1 => Just(Some(-0.0f64)),
        4 => (-40i64..40).prop_map(|v| Some(v as f64 / 4.0)),
    ]
}

/// Dictionary pool for string tests; index 5 encodes nil, and the probe
/// pool extends past it so lookups can miss the column's dictionary.
const STR_POOL: [&str; 5] = ["apple", "fig", "kiwi", "pear", "plum"];
const STR_PROBES: [&str; 7] = ["apple", "fig", "kiwi", "pear", "plum", "aaa", "zzz"];

fn str_bat(idx: &[usize]) -> Bat {
    let mut col = Column::empty(DataType::Str);
    for &i in idx {
        match STR_POOL.get(i) {
            Some(s) => col.push(&Value::Str((*s).to_string())).unwrap(),
            None => col.push_nil(),
        }
    }
    Bat::new(col)
}

fn bool_bat(vals: &[u8]) -> Bat {
    let mut col = Column::empty(DataType::Bool);
    for &v in vals {
        match v {
            0 => col.push(&Value::Bool(false)).unwrap(),
            1 => col.push(&Value::Bool(true)).unwrap(),
            _ => col.push_nil(),
        }
    }
    Bat::new(col)
}

/// Small-domain ints (lots of duplicates, occasional nil) stress joins and
/// grouping harder than uniform randoms.
fn small_ints() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(
        prop_oneof![9 => (-5i64..15).prop_map(|v| v), 1 => Just(NIL_INT)],
        0..60,
    )
}

fn sorted_positions(max: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0..max.max(1), 0..max.min(30)).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #[test]
    fn theta_select_matches_oracle(vals in small_ints(), pivot in -5i64..15) {
        let b = Bat::from_ints(vals.clone());
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let got = theta_select(&b, op, &Value::Int(pivot), None).unwrap().to_positions();
            let want: Vec<usize> = vals.iter().enumerate()
                .filter(|(_, &v)| v != NIL_INT && op.eval(v.cmp(&pivot)))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn range_select_equals_two_thetas(vals in small_ints(), lo in -5i64..15, width in 0i64..10) {
        let hi = lo + width;
        let b = Bat::from_ints(vals);
        let range = select_range(&b, Some(&Value::Int(lo)), Some(&Value::Int(hi)), true, true, false, None).unwrap();
        let ge = theta_select(&b, CmpOp::Ge, &Value::Int(lo), None).unwrap();
        let both = theta_select(&b, CmpOp::Le, &Value::Int(hi), Some(&ge)).unwrap();
        prop_assert_eq!(range.to_positions(), both.to_positions());
    }

    #[test]
    fn anti_range_is_complement_minus_nils(vals in small_ints(), lo in -5i64..15, width in 0i64..10) {
        let hi = lo + width;
        let b = Bat::from_ints(vals.clone());
        let pos = select_range(&b, Some(&Value::Int(lo)), Some(&Value::Int(hi)), true, true, false, None).unwrap();
        let anti = select_range(&b, Some(&Value::Int(lo)), Some(&Value::Int(hi)), true, true, true, None).unwrap();
        // pos ∪ anti = all non-nil rows; pos ∩ anti = ∅
        prop_assert!(pos.intersect(&anti).is_empty());
        let union = pos.union(&anti);
        let non_nil: Vec<usize> = vals.iter().enumerate().filter(|(_, &v)| v != NIL_INT).map(|(i, _)| i).collect();
        prop_assert_eq!(union.to_positions(), non_nil);
    }

    #[test]
    fn candidate_algebra_laws(a in sorted_positions(50), b in sorted_positions(50)) {
        let ca = Candidates::from_positions(a.clone()).unwrap();
        let cb = Candidates::from_positions(b.clone()).unwrap();
        // Commutativity
        prop_assert_eq!(ca.intersect(&cb).to_positions(), cb.intersect(&ca).to_positions());
        prop_assert_eq!(ca.union(&cb).to_positions(), cb.union(&ca).to_positions());
        // Absorption: a ∩ (a ∪ b) = a
        prop_assert_eq!(ca.intersect(&ca.union(&cb)).to_positions(), a.clone());
        // Complement round-trip within domain 50
        prop_assert_eq!(ca.complement(50).complement(50).to_positions(), a);
    }

    #[test]
    fn hash_join_matches_nested_loop(l in small_ints(), r in small_ints()) {
        let lb = Bat::from_ints(l.clone());
        let rb = Bat::from_ints(r.clone());
        let (lp, rp) = hash_join(&lb, &rb, None, None).unwrap();
        let got: Vec<(usize, usize)> = lp.into_iter().zip(rp).collect();
        // The nested loop's own order is the contract: left-major, then
        // right ascending.
        let mut want = Vec::new();
        for (i, &x) in l.iter().enumerate() {
            if x == NIL_INT { continue; }
            for (j, &y) in r.iter().enumerate() {
                if y != NIL_INT && x == y { want.push((i, j)); }
            }
        }
        prop_assert_eq!(got, want);
    }

    // Every key type, both sides restricted by candidates: the pairs and
    // their order are the nested loop's over the candidate rows, with nil
    // never matching and `-0.0` matching `0.0`. String sides are built
    // separately, so their dictionaries code the same string differently.
    #[test]
    fn hash_join_is_the_nested_loop_on_every_key_type(
        kind in 0u8..5,
        l in prop::collection::vec(0usize..12, 0..50),
        r in prop::collection::vec(0usize..12, 0..50),
        lshape in 0u8..4,
        la in 0usize..64,
        lb_ in 0usize..64,
        lraw in raw_positions(),
        rshape in 0u8..4,
        ra in 0usize..64,
        rb_ in 0usize..64,
        rraw in raw_positions(),
    ) {
        const INTS: [i64; 6] = [-2, 0, 1, 3, 7, NIL_INT];
        const FLOATS: [f64; 6] = [-0.0, 0.0, 1.0, 2.5, f64::NAN, 7.0];
        let ints = |v: &[usize]| Bat::from_ints(v.iter().map(|&c| INTS[c % 6]).collect());
        let floats = |v: &[usize]| Bat::from_floats(v.iter().map(|&c| FLOATS[c % 6]).collect());
        let strs = |v: &[usize]| str_bat(&v.iter().map(|&c| c % 6).collect::<Vec<_>>());
        let bools = |v: &[usize]| bool_bat(&v.iter().map(|&c| (c % 3) as u8).collect::<Vec<_>>());
        let (lbat, rbat) = match kind {
            0 => (ints(&l), ints(&r)),
            1 => (floats(&l), floats(&r)),
            2 => (strs(&l), strs(&r)),
            3 => (bools(&l), bools(&r)),
            _ => (ints(&l), floats(&r)),
        };
        let lcand = make_cand(lshape, la, lb_, &lraw, lbat.len());
        let rcand = make_cand(rshape, ra, rb_, &rraw, rbat.len());
        let (lp, rp) = hash_join(&lbat, &rbat, lcand.as_ref(), rcand.as_ref()).unwrap();
        let got: Vec<(usize, usize)> = lp.into_iter().zip(rp).collect();
        let equal = |a: &Value, b: &Value| match (a, b) {
            (Value::Nil, _) | (_, Value::Nil) => false,
            (Value::Float(x), Value::Float(y)) => x == y,
            (Value::Int(x), Value::Float(y)) => *x as f64 == *y,
            (a, b) => a == b,
        };
        let mut want = Vec::new();
        for i in reference::positions_of(lcand.as_ref(), lbat.len()) {
            for j in reference::positions_of(rcand.as_ref(), rbat.len()) {
                if equal(&lbat.get(i).unwrap(), &rbat.get(j).unwrap()) {
                    want.push((i, j));
                }
            }
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn semi_anti_partition_non_nil_rows(l in small_ints(), r in small_ints()) {
        let lb = Bat::from_ints(l.clone());
        let rb = Bat::from_ints(r.clone());
        let semi = semi_join(&lb, &rb, None).unwrap();
        let anti = anti_join(&lb, &rb, None).unwrap();
        prop_assert!(semi.intersect(&anti).is_empty());
        let non_nil: Vec<usize> = l.iter().enumerate().filter(|(_, &v)| v != NIL_INT).map(|(i, _)| i).collect();
        prop_assert_eq!(semi.union(&anti).to_positions(), non_nil);
    }

    #[test]
    fn group_ids_consistent_with_values(vals in small_ints()) {
        let b = Bat::from_ints(vals.clone());
        let g = group_by(&b, None, None).unwrap();
        prop_assert_eq!(g.ids.len(), vals.len());
        // Same value ⇔ same group id.
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                prop_assert_eq!(g.ids[i] == g.ids[j], vals[i] == vals[j]);
            }
        }
        prop_assert_eq!(g.histogram().iter().sum::<usize>(), vals.len());
    }

    #[test]
    fn sum_agg_matches_oracle(vals in small_ints()) {
        let b = Bat::from_ints(vals.clone());
        let got = scalar_agg(AggFunc::Sum, &b, None).unwrap();
        let non_nil: Vec<i64> = vals.iter().copied().filter(|&v| v != NIL_INT).collect();
        if non_nil.is_empty() {
            prop_assert_eq!(got, Value::Nil);
        } else {
            prop_assert_eq!(got, Value::Int(non_nil.iter().sum()));
        }
    }

    #[test]
    fn accumulator_split_merge_invariance(vals in small_ints(), split in 0usize..60) {
        let split = split.min(vals.len());
        let mut whole = Accumulator::new();
        for &v in &vals {
            whole.update(&if v == NIL_INT { Value::Nil } else { Value::Int(v) });
        }
        let (a, b) = vals.split_at(split);
        let mut left = Accumulator::new();
        for &v in a { left.update(&if v == NIL_INT { Value::Nil } else { Value::Int(v) }); }
        let mut right = Accumulator::new();
        for &v in b { right.update(&if v == NIL_INT { Value::Nil } else { Value::Int(v) }); }
        left.merge(&right);
        for f in [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg, AggFunc::Count { star: false }, AggFunc::Count { star: true }] {
            prop_assert_eq!(
                left.finish(f, DataType::Int).unwrap(),
                whole.finish(f, DataType::Int).unwrap()
            );
        }
    }

    #[test]
    fn order_produces_sorted_permutation(vals in small_ints()) {
        let b = Bat::from_ints(vals.clone());
        let perm = order(&b, SortOrder::Asc, None).unwrap();
        // Is a permutation
        let mut seen = vec![false; vals.len()];
        for &p in &perm { prop_assert!(!seen[p]); seen[p] = true; }
        prop_assert!(seen.into_iter().all(|x| x));
        // Is sorted (nil = i64::MIN sorts first naturally)
        for w in perm.windows(2) {
            prop_assert!(vals[w[0]] <= vals[w[1]]);
        }
    }

    #[test]
    fn distinct_yields_unique_values_covering_all(vals in small_ints()) {
        let b = Bat::from_ints(vals.clone());
        let d = distinct(&b, None).unwrap();
        let picked: Vec<i64> = d.iter().map(|p| vals[p]).collect();
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(picked.len(), uniq.len());
        for v in &vals {
            prop_assert!(picked.contains(v));
        }
    }

    #[test]
    fn compare_then_candidates_equals_theta(vals in small_ints(), pivot in -5i64..15) {
        let b = Bat::from_ints(vals);
        let col = Column::from_ints(b.tail().as_ints().unwrap().to_vec());
        for op in [CmpOp::Lt, CmpOp::Ge, CmpOp::Eq] {
            let boolcol = compare(op, Operand::Col(&col), Operand::Scalar(&Value::Int(pivot))).unwrap();
            let via_calc = true_candidates(&boolcol).unwrap();
            let via_theta = theta_select(&b, op, &Value::Int(pivot), None).unwrap();
            prop_assert_eq!(via_calc.to_positions(), via_theta.to_positions());
        }
    }

    #[test]
    fn arith_add_sub_roundtrip(vals in prop::collection::vec(-1000i64..1000, 0..50), k in -1000i64..1000) {
        let col = Column::from_ints(vals.clone());
        let added = arith(ArithOp::Add, Operand::Col(&col), Operand::Scalar(&Value::Int(k))).unwrap();
        let back = arith(ArithOp::Sub, Operand::Col(&added), Operand::Scalar(&Value::Int(k))).unwrap();
        prop_assert_eq!(back.as_ints().unwrap(), &vals[..]);
    }
}

// ---------------------------------------------------------------------------
// Differential tier: vectorized kernels vs the row-at-a-time reference
// implementations in `tests/reference/mod.rs`. Every test sweeps candidate
// shapes (all / empty / dense sub-range / position list) via `make_cand`.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn range_select_matches_reference_int(
        vals in small_ints(),
        lo in opt_int_bound(),
        hi in opt_int_bound(),
        flags in 0u8..8,
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let (li, hi_incl, anti) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let bat = Bat::from_ints(vals);
        let cand = make_cand(shape, a, b, &raw, bat.len());
        let lov = lo.map(Value::Int);
        let hiv = hi.map(Value::Int);
        let got = select_range(&bat, lov.as_ref(), hiv.as_ref(), li, hi_incl, anti, cand.as_ref())
            .unwrap()
            .to_positions();
        let want = ref_select_range(&bat, lov.as_ref(), hiv.as_ref(), li, hi_incl, anti, cand.as_ref());
        prop_assert_eq!(got, want);
    }

    #[test]
    fn range_select_matches_reference_float(
        vals in float_vals(),
        lo in opt_float_bound(),
        hi in opt_float_bound(),
        flags in 0u8..8,
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let (li, hi_incl, anti) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let bat = Bat::from_floats(vals);
        let cand = make_cand(shape, a, b, &raw, bat.len());
        let lov = lo.map(Value::Float);
        let hiv = hi.map(Value::Float);
        let got = select_range(&bat, lov.as_ref(), hiv.as_ref(), li, hi_incl, anti, cand.as_ref())
            .unwrap()
            .to_positions();
        let want = ref_select_range(&bat, lov.as_ref(), hiv.as_ref(), li, hi_incl, anti, cand.as_ref());
        prop_assert_eq!(got, want);
    }

    #[test]
    fn range_select_matches_reference_str(
        idx in prop::collection::vec(0usize..6, 0..40),
        lo_i in 0usize..8,
        hi_i in 0usize..8,
        flags in 0u8..8,
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let (li, hi_incl, anti) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let bat = str_bat(&idx);
        let cand = make_cand(shape, a, b, &raw, bat.len());
        let lov = STR_PROBES.get(lo_i).map(|s| Value::Str((*s).to_string()));
        let hiv = STR_PROBES.get(hi_i).map(|s| Value::Str((*s).to_string()));
        let got = select_range(&bat, lov.as_ref(), hiv.as_ref(), li, hi_incl, anti, cand.as_ref())
            .unwrap()
            .to_positions();
        let want = ref_select_range(&bat, lov.as_ref(), hiv.as_ref(), li, hi_incl, anti, cand.as_ref());
        prop_assert_eq!(got, want);
    }

    #[test]
    fn theta_select_matches_reference_float(
        vals in float_vals(),
        pivot in opt_float_bound(),
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let bat = Bat::from_floats(vals);
        let cand = make_cand(shape, a, b, &raw, bat.len());
        let rhs = Value::Float(pivot.unwrap_or(0.5));
        for op in ALL_OPS {
            let got = theta_select(&bat, op, &rhs, cand.as_ref()).unwrap().to_positions();
            let want = ref_theta(&bat, op, &rhs, cand.as_ref());
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn theta_select_matches_reference_str(
        idx in prop::collection::vec(0usize..6, 0..40),
        rhs_i in 0usize..7,
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let bat = str_bat(&idx);
        let cand = make_cand(shape, a, b, &raw, bat.len());
        let rhs = Value::Str(STR_PROBES[rhs_i].to_string());
        for op in ALL_OPS {
            let got = theta_select(&bat, op, &rhs, cand.as_ref()).unwrap().to_positions();
            let want = ref_theta(&bat, op, &rhs, cand.as_ref());
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn theta_select_matches_reference_bool(
        vals in prop::collection::vec(0u8..3, 0..40),
        rhs in 0u8..2,
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let bat = bool_bat(&vals);
        let cand = make_cand(shape, a, b, &raw, bat.len());
        let rhs = Value::Bool(rhs == 1);
        for op in ALL_OPS {
            let got = theta_select(&bat, op, &rhs, cand.as_ref()).unwrap().to_positions();
            let want = ref_theta(&bat, op, &rhs, cand.as_ref());
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn compare_matches_reference_int_scalar(vals in small_ints(), pivot in -5i64..15) {
        let col = Column::from_ints(vals);
        let rhs = Value::Int(pivot);
        for op in ALL_OPS {
            let got = compare(op, Operand::Col(&col), Operand::Scalar(&rhs)).unwrap();
            let want = ref_compare(op, &Operand::Col(&col), &Operand::Scalar(&rhs), col.len());
            prop_assert_eq!(got.as_bools().unwrap(), &want[..]);
        }
    }

    #[test]
    fn compare_matches_reference_float_cols(xs in float_vals(), ys in float_vals()) {
        let n = xs.len().min(ys.len());
        let ca = Column::from_floats(xs[..n].to_vec());
        let cb = Column::from_floats(ys[..n].to_vec());
        for op in ALL_OPS {
            let got = compare(op, Operand::Col(&ca), Operand::Col(&cb)).unwrap();
            let want = ref_compare(op, &Operand::Col(&ca), &Operand::Col(&cb), n);
            prop_assert_eq!(got.as_bools().unwrap(), &want[..]);
        }
    }

    #[test]
    fn compare_matches_reference_str_scalar(
        idx in prop::collection::vec(0usize..6, 0..40),
        rhs_i in 0usize..7,
    ) {
        let bat = str_bat(&idx);
        let col = bat.tail();
        let rhs = Value::Str(STR_PROBES[rhs_i].to_string());
        for op in ALL_OPS {
            let got = compare(op, Operand::Col(col), Operand::Scalar(&rhs)).unwrap();
            let want = ref_compare(op, &Operand::Col(col), &Operand::Scalar(&rhs), col.len());
            prop_assert_eq!(got.as_bools().unwrap(), &want[..]);
            // Flipped operands exercise the scalar-on-the-left path.
            let got = compare(op, Operand::Scalar(&rhs), Operand::Col(col)).unwrap();
            let want = ref_compare(op, &Operand::Scalar(&rhs), &Operand::Col(col), col.len());
            prop_assert_eq!(got.as_bools().unwrap(), &want[..]);
        }
    }

    #[test]
    fn arith_matches_reference_int(vals in small_ints(), k in -3i64..4) {
        let col = Column::from_ints(vals);
        let rhs = Value::Int(k);
        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div, ArithOp::Mod] {
            let got = arith(op, Operand::Col(&col), Operand::Scalar(&rhs)).unwrap();
            let want = ref_arith(op, &Operand::Col(&col), &Operand::Scalar(&rhs), col.len()).unwrap();
            prop_assert_eq!(got.as_ints().unwrap(), want.as_ints().unwrap());
        }
    }

    #[test]
    fn arith_matches_reference_float_widening(vals in small_ints(), ys in float_vals()) {
        let n = vals.len().min(ys.len());
        let ca = Column::from_ints(vals[..n].to_vec());
        let cb = Column::from_floats(ys[..n].to_vec());
        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div, ArithOp::Mod] {
            let got = arith(op, Operand::Col(&ca), Operand::Col(&cb)).unwrap();
            let want = ref_arith(op, &Operand::Col(&ca), &Operand::Col(&cb), n).unwrap();
            let gb: Vec<u64> = got.as_floats().unwrap().iter().map(|f| f.to_bits()).collect();
            let wb: Vec<u64> = want.as_floats().unwrap().iter().map(|f| f.to_bits()).collect();
            prop_assert_eq!(gb, wb);
        }
    }

    #[test]
    fn scalar_agg_matches_reference_int(
        vals in small_ints(),
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let bat = Bat::from_ints(vals);
        let cand = make_cand(shape, a, b, &raw, bat.len());
        for func in ALL_FUNCS {
            let got = scalar_agg(func, &bat, cand.as_ref()).unwrap();
            let want = ref_scalar_agg(func, &bat, cand.as_ref()).unwrap();
            prop_assert!(values_eq(&got, &want), "{:?}: {:?} != {:?}", func, got, want);
        }
    }

    #[test]
    fn scalar_agg_matches_reference_float(
        vals in float_vals(),
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let bat = Bat::from_floats(vals);
        let cand = make_cand(shape, a, b, &raw, bat.len());
        for func in ALL_FUNCS {
            let got = scalar_agg(func, &bat, cand.as_ref()).unwrap();
            let want = ref_scalar_agg(func, &bat, cand.as_ref()).unwrap();
            prop_assert!(values_eq(&got, &want), "{:?}: {:?} != {:?}", func, got, want);
        }
    }

    #[test]
    fn scalar_agg_matches_reference_timestamp(
        vals in small_ints(),
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let bat = Bat::new(Column::from_timestamps(vals));
        let cand = make_cand(shape, a, b, &raw, bat.len());
        for func in ALL_FUNCS {
            let got = scalar_agg(func, &bat, cand.as_ref()).unwrap();
            let want = ref_scalar_agg(func, &bat, cand.as_ref()).unwrap();
            prop_assert!(values_eq(&got, &want), "{:?}: {:?} != {:?}", func, got, want);
        }
    }

    #[test]
    fn grouped_agg_matches_reference_int(keys in small_ints(), vals in small_ints()) {
        let n = keys.len().min(vals.len());
        let kb = Bat::from_ints(keys[..n].to_vec());
        let vb = Bat::from_ints(vals[..n].to_vec());
        let g = group_by(&kb, None, None).unwrap();
        for func in ALL_FUNCS {
            let got = grouped_agg(func, &vb, &g).unwrap();
            let want = ref_grouped_agg(func, &vb, &g).unwrap();
            prop_assert_eq!(got.len(), want.len());
            for (i, w) in want.iter().enumerate() {
                let gv = got.get(i).unwrap();
                prop_assert!(values_eq(&gv, w), "{:?} group {}: {:?} != {:?}", func, i, gv, w);
            }
        }
    }

    #[test]
    fn grouped_agg_matches_reference_float(keys in small_ints(), vals in float_vals()) {
        let n = keys.len().min(vals.len());
        let kb = Bat::from_ints(keys[..n].to_vec());
        let vb = Bat::from_floats(vals[..n].to_vec());
        let g = group_by(&kb, None, None).unwrap();
        for func in ALL_FUNCS {
            let got = grouped_agg(func, &vb, &g).unwrap();
            let want = ref_grouped_agg(func, &vb, &g).unwrap();
            prop_assert_eq!(got.len(), want.len());
            for (i, w) in want.iter().enumerate() {
                let gv = got.get(i).unwrap();
                prop_assert!(values_eq(&gv, w), "{:?} group {}: {:?} != {:?}", func, i, gv, w);
            }
        }
    }

    #[test]
    fn join_candidates_agree_with_positions(l in small_ints(), r in small_ints(),
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let lb = Bat::from_ints(l);
        let rb = Bat::from_ints(r);
        let cand = make_cand(shape, a, b, &raw, lb.len());
        let (lp, _) = hash_join(&lb, &rb, cand.as_ref(), None).unwrap();
        let semi = semi_join(&lb, &rb, cand.as_ref()).unwrap();
        let anti = anti_join(&lb, &rb, cand.as_ref()).unwrap();
        // semi = distinct probe hits; semi ∪ anti = candidate rows with
        // non-nil keys.
        let mut hits = lp;
        hits.dedup();
        prop_assert_eq!(semi.to_positions(), hits);
        let sel: Vec<usize> = reference::positions_of(cand.as_ref(), lb.len())
            .into_iter()
            .filter(|&p| lb.get(p).unwrap() != Value::Nil)
            .collect();
        prop_assert_eq!(semi.union(&anti).to_positions(), sel);
    }
}

/// `group_by` against the row-at-a-time reference: ids, `n_groups`,
/// `representatives` and `rows` (or the error) must be identical, for the
/// column alone and — when a second column is given — for its refinement
/// of that grouping.
fn assert_group_by_matches(first: &Bat, second: Option<&Bat>, cand: Option<&Candidates>) {
    let got = group_by(first, None, cand);
    let want = ref_group_by(first, None, cand);
    assert_eq!(got, want, "group_by({first:?}, cand {cand:?})");
    if let (Ok(g), Some(second)) = (got, second) {
        assert_eq!(
            group_by(second, Some(&g), None),
            ref_group_by(second, Some(&g), None),
            "refining {g:?} by {second:?}"
        );
    }
}

/// Keys around the edges the typed kernel dispatches on: a small domain,
/// nil, negatives, and values whose span overflows `i64`.
fn edge_ints() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(
        prop_oneof![
            12 => (-5i64..15).prop_map(|v| v),
            2 => Just(NIL_INT),
            1 => Just(i64::MAX),
            1 => Just(i64::MIN + 1),
            2 => (-1_000_000i64..1_000_000).prop_map(|v| v * 1_000_003),
        ],
        0..60,
    )
}

proptest! {
    #[test]
    fn group_by_matches_reference_int_and_timestamp(
        keys in edge_ints(),
        more in small_ints(),
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let cand = make_cand(shape, a, b, &raw, keys.len());
        let second = Bat::from_ints((0..keys.len()).map(|i| more.get(i).copied().unwrap_or(7)).collect());
        assert_group_by_matches(&Bat::from_ints(keys.clone()), Some(&second), cand.as_ref());
        let ts = Bat::new(Column::from_timestamps(keys));
        assert_group_by_matches(&ts, Some(&second), cand.as_ref());
        // The refinement can also be the wide-domain column.
        assert_group_by_matches(&second, Some(&ts), cand.as_ref());
    }

    #[test]
    fn group_by_matches_reference_float(
        keys in float_vals(),
        more in small_ints(),
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let cand = make_cand(shape, a, b, &raw, keys.len());
        let second = Bat::from_ints((0..keys.len()).map(|i| more.get(i).copied().unwrap_or(7)).collect());
        let floats = Bat::from_floats(keys);
        assert_group_by_matches(&floats, Some(&second), cand.as_ref());
        assert_group_by_matches(&second, Some(&floats), cand.as_ref());
    }

    #[test]
    fn group_by_matches_reference_str_and_bool(
        idx in prop::collection::vec(0usize..6, 0..50),
        bits in prop::collection::vec(0u8..3, 0..50),
        shape in 0u8..4,
        a in 0usize..64,
        b in 0usize..64,
        raw in raw_positions(),
    ) {
        let n = idx.len().min(bits.len());
        let (strs, bools) = (str_bat(&idx[..n]), bool_bat(&bits[..n]));
        let cand = make_cand(shape, a, b, &raw, n);
        assert_group_by_matches(&strs, Some(&bools), cand.as_ref());
        assert_group_by_matches(&bools, Some(&strs), cand.as_ref());
    }

    #[test]
    fn group_by_out_of_range_candidates_name_the_first_offender(
        keys in small_ints(),
        start in 0usize..80,
        len in 0usize..20,
        raw in raw_positions(),
    ) {
        let bat = Bat::from_ints(keys);
        let dense = Candidates::Dense(start..start + len);
        assert_group_by_matches(&bat, None, Some(&dense));
        let positions = Candidates::from_positions(raw).unwrap();
        assert_group_by_matches(&bat, None, Some(&positions));
    }
}

/// The span at which `group_by` leaves direct addressing is an internal
/// constant; these sweep keys `{0, span}` over a fixed row count so some
/// span lands exactly on it and the next one past it, whatever it is.
#[test]
fn group_by_is_the_same_on_both_sides_of_the_direct_address_limit() {
    let rows = 16usize;
    for span in 0..(8 * rows as i64) {
        for nil in [false, true] {
            let mut keys: Vec<i64> = (0..rows as i64)
                .map(|i| if i % 3 == 0 { span } else { i % 2 })
                .collect();
            if nil {
                keys[5] = NIL_INT;
            }
            let bat = Bat::from_ints(keys);
            let second = Bat::from_ints((0..rows as i64).map(|i| i % 4).collect());
            assert_group_by_matches(&bat, Some(&second), None);
            // Refinement multiplies the table by the groups refined.
            assert_group_by_matches(&second, Some(&bat), None);
        }
    }
}

#[test]
fn group_by_edge_cases_match_reference() {
    let cases: Vec<Vec<i64>> = vec![
        vec![],
        vec![42],
        vec![NIL_INT],
        vec![NIL_INT; 9],
        vec![-3, -1, -3, -2, -1, NIL_INT, -3],
        // The span `MAX - (MIN + 1)` overflows `i64`.
        vec![i64::MAX, i64::MIN + 1, i64::MAX, 0, i64::MIN + 1],
        vec![i64::MAX, NIL_INT, i64::MIN + 1, NIL_INT],
        vec![i64::MAX, i64::MAX - 1, i64::MAX],
        vec![i64::MIN + 1, i64::MIN + 2, i64::MIN + 1, NIL_INT],
    ];
    for keys in cases {
        let n = keys.len();
        let bat = Bat::from_ints(keys);
        let second = Bat::from_ints((0..n as i64).map(|i| i % 2).collect());
        assert_group_by_matches(&bat, Some(&second), None);
        assert_group_by_matches(&second, Some(&bat), None);
        if n > 1 {
            let cand = Candidates::from_positions(vec![0, n - 1]).unwrap();
            assert_group_by_matches(&bat, Some(&second), Some(&cand));
            assert_group_by_matches(&bat, None, Some(&Candidates::Dense(1..n)));
        }
    }
    // A dictionary far larger than the candidate set: 500 distinct strings,
    // three candidate rows.
    let words: Vec<String> = (0..500).map(|i| format!("w{i}")).collect();
    let mut col = Column::from_strs(&words);
    col.push_nil();
    let strs = Bat::new(col);
    let cand = Candidates::from_positions(vec![3, 499, 500]).unwrap();
    assert_group_by_matches(&strs, None, Some(&cand));
    assert_group_by_matches(&strs, None, None);
}
