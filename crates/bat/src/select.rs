//! Selection kernels: range and theta selects producing candidate lists.
//!
//! These are the workhorses of Algorithm 1 in the paper
//! (`monetdb.select(input, v1, v2)`): bulk scans over a tail column that emit
//! the qualifying positions as [`Candidates`], composable with a prior
//! candidate list. Nil never qualifies.
//!
//! The kernels are structured for data-parallel execution (see
//! `docs/kernels.md`): every select lowers to a type-specialized, branchless
//! predicate over a contiguous slice, driven by `scan_with`. Dense inputs
//! take a count-then-fill pass (the counting loop auto-vectorizes; the fill
//! loop is branchless), position lists take a single branchless gather.
//! Nil handling is folded into the comparison itself wherever the sentinel
//! encoding allows it:
//!
//! * ints/timestamps: `NIL_INT == i64::MIN` orders below every valid value,
//!   so clamping the effective lower bound to `NIL_INT + 1` excludes nil for
//!   free;
//! * floats: nil is NaN, which fails every operator comparison (only `anti`
//!   needs an explicit NaN test);
//! * strings: bounds are resolved against the dictionary once into a
//!   per-code qualification table, turning the scan into integer lookups;
//! * bools: the domain is `{0, 1}`, so the predicate collapses to two
//!   precomputed bits.

use crate::candidates::{CandView, Candidates};
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::heap::StrHeap;
use crate::types::{total_key, DataType, Value, NIL_INT, NIL_STR_CODE};

/// Comparison operators for [`theta_select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluate the operator on an `Ordering`.
    #[inline]
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The operator with its operands swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }

    /// The logical negation (`!(a op b)` ⇔ `a op.negate() b`), ignoring nil.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// Range selection: positions `p` where `lo (<|<=) tail[p] (<|<=) hi`.
///
/// * `lo`/`hi` of `None` mean unbounded on that side.
/// * `li`/`hi_incl` choose inclusive bounds.
/// * `anti` inverts the predicate (nil still never qualifies).
/// * `cand` restricts the scan to a prior candidate list.
pub fn select_range(
    col: &Column,
    lo: Option<&Value>,
    hi: Option<&Value>,
    li: bool,
    hi_incl: bool,
    anti: bool,
    cand: Option<&Candidates>,
) -> Result<Candidates> {
    match col.data_type() {
        DataType::Int | DataType::Timestamp => {
            let vals = col.as_i64s()?;
            let lo = bound_int(lo, "select lo")?;
            let hi = bound_int(hi, "select hi")?;
            select_i64(vals, int_window(lo, hi, li, hi_incl), anti, cand)
        }
        DataType::Float => {
            let vals = col.as_floats()?;
            let lo = bound_float(lo, "select lo")?;
            let hi = bound_float(hi, "select hi")?;
            select_f64(vals, lo, hi, li, hi_incl, anti, cand)
        }
        DataType::Str => {
            let (codes, heap) = col.as_strs()?;
            let lo = bound_str(lo, "select lo")?;
            let hi = bound_str(hi, "select hi")?;
            let qual = qual_table(heap, |s| {
                let ok = lo.is_none_or(|b| if li { s >= b } else { s > b })
                    && hi.is_none_or(|b| if hi_incl { s <= b } else { s < b });
                ok != anti
            });
            select_codes(codes, &qual, cand)
        }
        DataType::Bool => {
            let vals = col.as_bools()?;
            let want = |v: Option<&Value>| -> Result<Option<i8>> {
                match v {
                    None => Ok(None),
                    Some(x) => Ok(Some(i8::from(x.as_bool().ok_or(
                        BatError::TypeMismatch {
                            op: "select",
                            expected: "bool",
                            got: "other",
                        },
                    )?))),
                }
            };
            let lo = want(lo)?;
            let hi = want(hi)?;
            let q = |v: i8| {
                let ok = lo.is_none_or(|b| if li { v >= b } else { v > b })
                    && hi.is_none_or(|b| if hi_incl { v <= b } else { v < b });
                ok != anti
            };
            select_bool(vals, q(0), q(1), cand)
        }
    }
}

/// Theta selection: positions where `tail[p] op value`.
pub fn theta_select(
    col: &Column,
    op: CmpOp,
    value: &Value,
    cand: Option<&Candidates>,
) -> Result<Candidates> {
    if value.is_nil() {
        // Comparisons with NULL are never true.
        return Ok(Candidates::none());
    }
    match col.data_type() {
        DataType::Int | DataType::Timestamp => {
            let vals = col.as_i64s()?;
            let rhs = value.as_int().ok_or(BatError::TypeMismatch {
                op: "theta_select",
                expected: "int",
                got: value.data_type().map(|t| t.name()).unwrap_or("nil"),
            })?;
            // Every theta op is an (anti-)range over the integer total order.
            let (win, anti) = match op {
                CmpOp::Eq => (int_window(Some(rhs), Some(rhs), true, true), false),
                CmpOp::Ne => (int_window(Some(rhs), Some(rhs), true, true), true),
                CmpOp::Lt => (int_window(None, Some(rhs), true, false), false),
                CmpOp::Le => (int_window(None, Some(rhs), true, true), false),
                CmpOp::Gt => (int_window(Some(rhs), None, false, true), false),
                CmpOp::Ge => (int_window(Some(rhs), None, true, true), false),
            };
            select_i64(vals, win, anti, cand)
        }
        DataType::Float => {
            let vals = col.as_floats()?;
            let rhs = value.as_float().ok_or(BatError::TypeMismatch {
                op: "theta_select",
                expected: "float",
                got: value.data_type().map(|t| t.name()).unwrap_or("nil"),
            })?;
            // Theta on floats follows `f64::total_cmp`; comparing total-order
            // keys as integers reproduces it branchlessly (-0.0 < 0.0, and
            // nil/NaN is rejected explicitly).
            let k = total_key(rhs);
            match op {
                CmpOp::Eq => scan_with(vals, cand, move |v| !v.is_nan() & (total_key(v) == k)),
                CmpOp::Ne => scan_with(vals, cand, move |v| !v.is_nan() & (total_key(v) != k)),
                CmpOp::Lt => scan_with(vals, cand, move |v| !v.is_nan() & (total_key(v) < k)),
                CmpOp::Le => scan_with(vals, cand, move |v| !v.is_nan() & (total_key(v) <= k)),
                CmpOp::Gt => scan_with(vals, cand, move |v| !v.is_nan() & (total_key(v) > k)),
                CmpOp::Ge => scan_with(vals, cand, move |v| !v.is_nan() & (total_key(v) >= k)),
            }
        }
        DataType::Str => {
            let (codes, heap) = col.as_strs()?;
            let rhs = value.as_str().ok_or(BatError::TypeMismatch {
                op: "theta_select",
                expected: "str",
                got: value.data_type().map(|t| t.name()).unwrap_or("nil"),
            })?;
            // Fast path: equality against a string absent from the dictionary
            // matches nothing; present strings compare by code.
            if op == CmpOp::Eq {
                return match heap.code_of(rhs) {
                    None => Ok(Candidates::none()),
                    Some(code) => scan_with(codes, cand, move |c| c == code),
                };
            }
            let qual = qual_table(heap, |s| op.eval(s.cmp(rhs)));
            select_codes(codes, &qual, cand)
        }
        DataType::Bool => {
            let vals = col.as_bools()?;
            let rhs = i8::from(value.as_bool().ok_or(BatError::TypeMismatch {
                op: "theta_select",
                expected: "bool",
                got: value.data_type().map(|t| t.name()).unwrap_or("nil"),
            })?);
            select_bool(vals, op.eval(0i8.cmp(&rhs)), op.eval(1i8.cmp(&rhs)), cand)
        }
    }
}

/// Nil selection: positions holding the nil sentinel (`nil == true`, SQL
/// `IS NULL`) or a value (`IS NOT NULL`). The one select where nil
/// qualifies.
pub fn select_nil(col: &Column, nil: bool, cand: Option<&Candidates>) -> Result<Candidates> {
    match col {
        Column::Int(v) | Column::Timestamp(v) => scan_with(v, cand, move |x| (x == NIL_INT) == nil),
        Column::Float(v) => scan_with(v, cand, move |x| x.is_nan() == nil),
        Column::Bool(v) => scan_with(v, cand, move |x| ((x != 0) & (x != 1)) == nil),
        Column::Str { codes, .. } => scan_with(codes, cand, move |c| (c == NIL_STR_CODE) == nil),
    }
}

/// Normalize int-range bounds to an inclusive window `[lo, hi]`.
///
/// An unbounded low side becomes `NIL_INT + 1`, and any explicit low bound is
/// clamped to it, so the window comparison itself excludes the nil sentinel
/// (`i64::MIN` orders below every valid value). Returns `None` when the
/// window is empty (including exclusive bounds that overflow the domain).
#[inline]
fn int_window(lo: Option<i64>, hi: Option<i64>, li: bool, hi_incl: bool) -> Option<(i64, i64)> {
    let lo_eff = match lo {
        None => NIL_INT + 1,
        Some(b) if li => b.max(NIL_INT + 1),
        Some(b) => b.checked_add(1)?.max(NIL_INT + 1),
    };
    let hi_eff = match hi {
        None => i64::MAX,
        Some(b) if hi_incl => b,
        Some(b) => b.checked_sub(1)?,
    };
    (lo_eff <= hi_eff).then_some((lo_eff, hi_eff))
}

/// Int/timestamp select over a normalized window.
fn select_i64(
    vals: &[i64],
    win: Option<(i64, i64)>,
    anti: bool,
    cand: Option<&Candidates>,
) -> Result<Candidates> {
    match (win, anti) {
        (None, false) => {
            // Empty window selects nothing, but candidate bounds are still
            // validated (a scalar scan would have tripped over them).
            Candidates::resolve(cand, vals.len())?;
            Ok(Candidates::none())
        }
        // NOT-in-empty-window = every non-nil value.
        (None, true) => select_i64(vals, Some((NIL_INT + 1, i64::MAX)), false, cand),
        (Some((lo, hi)), false) => scan_with(vals, cand, move |v| (v >= lo) & (v <= hi)),
        (Some((lo, hi)), true) => {
            scan_with(vals, cand, move |v| ((v < lo) | (v > hi)) & (v != NIL_INT))
        }
    }
}

/// Float range select with operator comparison semantics (NaN — the nil
/// sentinel — fails every comparison; `anti` re-excludes it explicitly).
fn select_f64(
    vals: &[f64],
    lo: Option<f64>,
    hi: Option<f64>,
    li: bool,
    hi_incl: bool,
    anti: bool,
    cand: Option<&Candidates>,
) -> Result<Candidates> {
    let lo_b = lo.unwrap_or(f64::NEG_INFINITY);
    let hi_b = hi.unwrap_or(f64::INFINITY);
    // An unbounded side must admit its own infinity, so force inclusivity.
    let li = li || lo.is_none();
    let hi_incl = hi_incl || hi.is_none();
    match (li, hi_incl) {
        (true, true) => scan_with(vals, cand, move |v| {
            (((v >= lo_b) & (v <= hi_b)) != anti) & !v.is_nan()
        }),
        (true, false) => scan_with(vals, cand, move |v| {
            (((v >= lo_b) & (v < hi_b)) != anti) & !v.is_nan()
        }),
        (false, true) => scan_with(vals, cand, move |v| {
            (((v > lo_b) & (v <= hi_b)) != anti) & !v.is_nan()
        }),
        (false, false) => scan_with(vals, cand, move |v| {
            (((v > lo_b) & (v < hi_b)) != anti) & !v.is_nan()
        }),
    }
}

/// Bool select: the domain is `{0, 1}` (plus the `-1` nil sentinel), so the
/// whole predicate is two precomputed qualification bits.
fn select_bool(vals: &[i8], q0: bool, q1: bool, cand: Option<&Candidates>) -> Result<Candidates> {
    scan_with(vals, cand, move |v| ((v == 0) & q0) | ((v == 1) & q1))
}

/// Evaluate a string predicate once per dictionary entry. Nil and unknown
/// codes (index out of table range) never qualify.
fn qual_table(heap: &StrHeap, pred: impl Fn(&str) -> bool) -> Vec<bool> {
    (0..heap.len() as u32)
        .map(|c| heap.get(c).is_some_and(&pred))
        .collect()
}

/// Str select as an integer scan over dictionary codes.
fn select_codes(codes: &[u32], qual: &[bool], cand: Option<&Candidates>) -> Result<Candidates> {
    scan_with(codes, cand, move |c| {
        matches!(qual.get(c as usize), Some(true))
    })
}

/// Shared scan driver: applies the branchless `pred` to each candidate value.
///
/// Dense inputs run a two-pass count-then-fill — the counting loop is a pure
/// reduction the compiler auto-vectorizes, and the fill loop emits positions
/// without branching (`out[k] = p; k += pred as usize`). When every scanned
/// position qualifies, the result collapses to [`Candidates::Dense`] instead
/// of materializing a position vector. Position-list inputs take a single
/// branchless gather pass.
#[inline]
fn scan_with<T: Copy>(
    vals: &[T],
    cand: Option<&Candidates>,
    pred: impl Fn(T) -> bool,
) -> Result<Candidates> {
    match Candidates::resolve(cand, vals.len())? {
        CandView::Dense(r) => {
            let slice = &vals[r.clone()];
            let count = slice.iter().filter(|&&v| pred(v)).count();
            if count == 0 {
                return Ok(Candidates::none());
            }
            if count == slice.len() {
                return Ok(Candidates::Dense(r));
            }
            // One slot of slack lets the fill loop write unconditionally:
            // `k` stops at `count`, and trailing non-matches land in the
            // sacrificial last slot.
            let mut out = vec![0usize; count + 1];
            let mut k = 0usize;
            for (i, &v) in slice.iter().enumerate() {
                out[k] = r.start + i;
                k += pred(v) as usize;
            }
            out.truncate(count);
            Ok(Candidates::from_sorted_unchecked(out))
        }
        CandView::Positions(pos) => {
            let mut out = vec![0usize; pos.len() + 1];
            let mut k = 0usize;
            for &p in pos {
                out[k] = p;
                k += pred(vals[p]) as usize;
            }
            out.truncate(k);
            Ok(Candidates::from_sorted_unchecked(out))
        }
    }
}

fn bound_int(v: Option<&Value>, op: &str) -> Result<Option<i64>> {
    match v {
        None => Ok(None),
        Some(x) => x
            .as_int()
            .map(Some)
            .ok_or_else(|| BatError::Invalid(format!("{op}: expected integer bound, got {x:?}"))),
    }
}

fn bound_float(v: Option<&Value>, op: &str) -> Result<Option<f64>> {
    match v {
        None => Ok(None),
        Some(x) => x
            .as_float()
            .map(Some)
            .ok_or_else(|| BatError::Invalid(format!("{op}: expected float bound, got {x:?}"))),
    }
}

fn bound_str<'a>(v: Option<&'a Value>, op: &str) -> Result<Option<&'a str>> {
    match v {
        None => Ok(None),
        Some(x) => x
            .as_str()
            .map(Some)
            .ok_or_else(|| BatError::Invalid(format!("{op}: expected string bound, got {x:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::Bat;
    use crate::types::NIL_INT;

    fn ints(v: Vec<i64>) -> Bat {
        Bat::from_ints(v)
    }

    #[test]
    fn range_inclusive_int() {
        let b = ints(vec![1, 5, 10, 15, 20]);
        let c = select_range(
            &b,
            Some(&Value::Int(5)),
            Some(&Value::Int(15)),
            true,
            true,
            false,
            None,
        )
        .unwrap();
        assert_eq!(c.to_positions(), vec![1, 2, 3]);
    }

    #[test]
    fn range_exclusive_and_anti() {
        let b = ints(vec![1, 5, 10, 15, 20]);
        let c = select_range(
            &b,
            Some(&Value::Int(5)),
            Some(&Value::Int(15)),
            false,
            false,
            false,
            None,
        )
        .unwrap();
        assert_eq!(c.to_positions(), vec![2]);
        let anti = select_range(
            &b,
            Some(&Value::Int(5)),
            Some(&Value::Int(15)),
            true,
            true,
            true,
            None,
        )
        .unwrap();
        assert_eq!(anti.to_positions(), vec![0, 4]);
    }

    #[test]
    fn range_unbounded_sides() {
        let b = ints(vec![3, 7, 11]);
        let lo_only =
            select_range(&b, Some(&Value::Int(7)), None, true, true, false, None).unwrap();
        assert_eq!(lo_only.to_positions(), vec![1, 2]);
        let hi_only =
            select_range(&b, None, Some(&Value::Int(7)), true, false, false, None).unwrap();
        assert_eq!(hi_only.to_positions(), vec![0]);
    }

    #[test]
    fn nil_never_qualifies_even_anti() {
        let b = ints(vec![1, NIL_INT, 3]);
        let c = select_range(
            &b,
            Some(&Value::Int(0)),
            Some(&Value::Int(10)),
            true,
            true,
            false,
            None,
        )
        .unwrap();
        assert_eq!(c.to_positions(), vec![0, 2]);
        let anti = select_range(
            &b,
            Some(&Value::Int(2)),
            Some(&Value::Int(10)),
            true,
            true,
            true,
            None,
        )
        .unwrap();
        assert_eq!(anti.to_positions(), vec![0]);
    }

    #[test]
    fn composes_with_candidates() {
        let b = ints(vec![1, 2, 3, 4, 5, 6]);
        let first = theta_select(&b, CmpOp::Gt, &Value::Int(2), None).unwrap();
        assert_eq!(first.to_positions(), vec![2, 3, 4, 5]);
        let second = theta_select(&b, CmpOp::Lt, &Value::Int(6), Some(&first)).unwrap();
        assert_eq!(second.to_positions(), vec![2, 3, 4]);
    }

    #[test]
    fn theta_all_ops() {
        let b = ints(vec![1, 2, 3]);
        let v = Value::Int(2);
        assert_eq!(
            theta_select(&b, CmpOp::Eq, &v, None)
                .unwrap()
                .to_positions(),
            vec![1]
        );
        assert_eq!(
            theta_select(&b, CmpOp::Ne, &v, None)
                .unwrap()
                .to_positions(),
            vec![0, 2]
        );
        assert_eq!(
            theta_select(&b, CmpOp::Lt, &v, None)
                .unwrap()
                .to_positions(),
            vec![0]
        );
        assert_eq!(
            theta_select(&b, CmpOp::Le, &v, None)
                .unwrap()
                .to_positions(),
            vec![0, 1]
        );
        assert_eq!(
            theta_select(&b, CmpOp::Gt, &v, None)
                .unwrap()
                .to_positions(),
            vec![2]
        );
        assert_eq!(
            theta_select(&b, CmpOp::Ge, &v, None)
                .unwrap()
                .to_positions(),
            vec![1, 2]
        );
    }

    #[test]
    fn theta_with_null_matches_nothing() {
        let b = ints(vec![1, 2, 3]);
        assert!(theta_select(&b, CmpOp::Eq, &Value::Nil, None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn string_select_dictionary_fast_path() {
        let b = Bat::from_strs(&["ab", "cd", "ab", "ef"]);
        let eq = theta_select(&b, CmpOp::Eq, &Value::Str("ab".into()), None).unwrap();
        assert_eq!(eq.to_positions(), vec![0, 2]);
        let missing = theta_select(&b, CmpOp::Eq, &Value::Str("zz".into()), None).unwrap();
        assert!(missing.is_empty());
        let lt = theta_select(&b, CmpOp::Lt, &Value::Str("cd".into()), None).unwrap();
        assert_eq!(lt.to_positions(), vec![0, 2]);
    }

    #[test]
    fn float_range() {
        let b = Bat::from_floats(vec![0.5, 1.5, 2.5, f64::NAN]);
        let c = select_range(
            &b,
            Some(&Value::Float(1.0)),
            Some(&Value::Float(3.0)),
            true,
            true,
            false,
            None,
        )
        .unwrap();
        assert_eq!(c.to_positions(), vec![1, 2]);
    }

    #[test]
    fn bool_theta() {
        let b = Bat::new(Column::from_bools(vec![true, false, true]));
        let c = theta_select(&b, CmpOp::Eq, &Value::Bool(true), None).unwrap();
        assert_eq!(c.to_positions(), vec![0, 2]);
    }

    use crate::column::Column;

    #[test]
    fn int_float_cross_type_theta() {
        let b = Bat::from_floats(vec![1.0, 2.5, 3.0]);
        let c = theta_select(&b, CmpOp::Ge, &Value::Int(2), None).unwrap();
        assert_eq!(c.to_positions(), vec![1, 2]);
    }

    #[test]
    fn candidate_out_of_range_is_error() {
        let b = ints(vec![1]);
        let cand = Candidates::from_positions(vec![5]).unwrap();
        assert!(theta_select(&b, CmpOp::Eq, &Value::Int(1), Some(&cand)).is_err());
    }

    #[test]
    fn op_flip_negate() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.negate(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }

    #[test]
    fn full_selectivity_scan_collapses_to_dense() {
        let b = ints(vec![1, 2, 3, 4]);
        let c = theta_select(&b, CmpOp::Gt, &Value::Int(0), None).unwrap();
        assert!(matches!(c, Candidates::Dense(ref r) if *r == (0..4)));
        // A dense sub-range stays dense when everything in it qualifies.
        let sub = Candidates::Dense(1..3);
        let c = theta_select(&b, CmpOp::Gt, &Value::Int(0), Some(&sub)).unwrap();
        assert!(matches!(c, Candidates::Dense(ref r) if *r == (1..3)));
    }

    #[test]
    fn int_window_extremes() {
        let b = ints(vec![i64::MAX, 0, NIL_INT + 1, NIL_INT]);
        // > MAX is empty; >= MIN+1 is "all non-nil".
        let gt_max = theta_select(&b, CmpOp::Gt, &Value::Int(i64::MAX), None).unwrap();
        assert!(gt_max.is_empty());
        let ge_min = theta_select(&b, CmpOp::Ge, &Value::Int(NIL_INT + 1), None).unwrap();
        assert_eq!(ge_min.to_positions(), vec![0, 1, 2]);
        // Ne over the whole domain still excludes nil.
        let ne = theta_select(&b, CmpOp::Ne, &Value::Int(0), None).unwrap();
        assert_eq!(ne.to_positions(), vec![0, 2]);
    }

    #[test]
    fn float_theta_total_order() {
        let b = Bat::from_floats(vec![-0.0, 0.0, 1.0, f64::NAN]);
        // theta uses total_cmp: -0.0 < 0.0.
        let lt = theta_select(&b, CmpOp::Lt, &Value::Float(0.0), None).unwrap();
        assert_eq!(lt.to_positions(), vec![0]);
        let eq = theta_select(&b, CmpOp::Eq, &Value::Float(0.0), None).unwrap();
        assert_eq!(eq.to_positions(), vec![1]);
        // range uses operator semantics: -0.0 == 0.0.
        let r = select_range(
            &b,
            Some(&Value::Float(0.0)),
            Some(&Value::Float(0.0)),
            true,
            true,
            false,
            None,
        )
        .unwrap();
        assert_eq!(r.to_positions(), vec![0, 1]);
    }
}
