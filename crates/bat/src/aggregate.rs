//! Aggregation kernels: scalar and grouped sum/count/min/max/avg.
//!
//! Nil values are skipped (SQL semantics): `COUNT(col)` counts non-nil rows,
//! `SUM`/`MIN`/`MAX`/`AVG` over an all-nil (or empty) input yield nil.
//! Integer sums overflow-check and report rather than wrap.
//!
//! Int/timestamp and float columns take single-pass specialized folds over
//! the candidate view — no per-row [`Value`] boxing and no materialized
//! position vector (dense candidates fold over a contiguous slice). Nil
//! handling rides the sentinel encoding: for `MAX` the int nil (`i64::MIN`)
//! can never win, for `MIN` it is remapped to `i64::MAX`, and float min/max
//! fold on total-order keys with NaN mapped to the key domain's identity.
//! Bool/str columns (and the float-sum-free timestamp `AVG`) keep the
//! [`Accumulator`] path.

use crate::candidates::{contiguous_run, CandView, Candidates};
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::group::Grouping;
use crate::types::{is_nil_int, nil_float, total_key, DataType, Value, NIL_INT};

/// Aggregate functions supported by the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Row/value count (`COUNT(*)` when `star`, else non-nil count).
    Count {
        /// True for `COUNT(*)` — count rows regardless of nil.
        star: bool,
    },
    /// Sum of non-nil values.
    Sum,
    /// Minimum non-nil value.
    Min,
    /// Maximum non-nil value.
    Max,
    /// Mean of non-nil values (always float).
    Avg,
}

impl AggFunc {
    /// Output type of the aggregate given its input type.
    pub fn output_type(self, input: DataType) -> DataType {
        match self {
            AggFunc::Count { .. } => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum => {
                if input == DataType::Float {
                    DataType::Float
                } else {
                    DataType::Int
                }
            }
            AggFunc::Min | AggFunc::Max => input,
        }
    }

    /// Short lowercase name for plans and error messages.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count { star: true } => "count(*)",
            AggFunc::Count { star: false } => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// Streaming accumulator for one group; also the unit of the incremental
/// basic-window model (summaries per sub-window, §3.1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accumulator {
    /// Rows seen (including nil).
    pub rows: u64,
    /// Non-nil values seen.
    pub non_nil: u64,
    /// Integer sum (valid when the input was integral).
    pub sum_int: i64,
    /// Float sum (always maintained, widened from ints).
    pub sum_float: f64,
    /// Minimum non-nil value.
    pub min: Option<Value>,
    /// Maximum non-nil value.
    pub max: Option<Value>,
    int_overflow: bool,
}

impl Accumulator {
    /// Fresh empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one value in.
    pub fn update(&mut self, v: &Value) {
        self.rows += 1;
        if v.is_nil() {
            return;
        }
        self.non_nil += 1;
        if let Some(i) = v.as_int() {
            match self.sum_int.checked_add(i) {
                Some(s) => self.sum_int = s,
                None => self.int_overflow = true,
            }
        }
        if let Some(f) = v.as_float() {
            self.sum_float += f;
        }
        match &self.min {
            None => self.min = Some(v.clone()),
            Some(m) if v.total_cmp(m) == std::cmp::Ordering::Less => self.min = Some(v.clone()),
            _ => {}
        }
        match &self.max {
            None => self.max = Some(v.clone()),
            Some(m) if v.total_cmp(m) == std::cmp::Ordering::Greater => self.max = Some(v.clone()),
            _ => {}
        }
    }

    /// Merge another accumulator (the basic-window "combine summaries" step).
    pub fn merge(&mut self, other: &Accumulator) {
        self.rows += other.rows;
        self.non_nil += other.non_nil;
        match self.sum_int.checked_add(other.sum_int) {
            Some(s) => self.sum_int = s,
            None => self.int_overflow = true,
        }
        self.int_overflow |= other.int_overflow;
        self.sum_float += other.sum_float;
        if let Some(m) = &other.min {
            match &self.min {
                None => self.min = Some(m.clone()),
                Some(cur) if m.total_cmp(cur) == std::cmp::Ordering::Less => {
                    self.min = Some(m.clone())
                }
                _ => {}
            }
        }
        if let Some(m) = &other.max {
            match &self.max {
                None => self.max = Some(m.clone()),
                Some(cur) if m.total_cmp(cur) == std::cmp::Ordering::Greater => {
                    self.max = Some(m.clone())
                }
                _ => {}
            }
        }
    }

    /// Extract the aggregate value for `func` given the input type.
    pub fn finish(&self, func: AggFunc, input: DataType) -> Result<Value> {
        Ok(match func {
            AggFunc::Count { star: true } => Value::Int(self.rows as i64),
            AggFunc::Count { star: false } => Value::Int(self.non_nil as i64),
            AggFunc::Sum => {
                if self.non_nil == 0 {
                    Value::Nil
                } else if input == DataType::Float {
                    Value::Float(self.sum_float)
                } else {
                    if self.int_overflow {
                        return Err(BatError::Overflow("sum"));
                    }
                    Value::Int(self.sum_int)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Nil),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Nil),
            AggFunc::Avg => {
                if self.non_nil == 0 {
                    Value::Nil
                } else {
                    Value::Float(self.sum_float / self.non_nil as f64)
                }
            }
        })
    }
}

/// Fold every candidate value through `f`. Dense candidates fold over a
/// contiguous sub-slice (vectorizable for branchless accumulators); position
/// lists gather.
#[inline]
fn fold<T: Copy, A>(vals: &[T], sel: &CandView<'_>, init: A, mut f: impl FnMut(A, T) -> A) -> A {
    match sel {
        CandView::Dense(r) => vals[r.clone()].iter().fold(init, |a, &v| f(a, v)),
        CandView::Positions(p) => p.iter().fold(init, |a, &i| f(a, vals[i])),
    }
}

/// Fallible variant of [`fold`] (integer sums can overflow).
#[inline]
fn try_fold<T: Copy, A>(
    vals: &[T],
    sel: &CandView<'_>,
    init: A,
    mut f: impl FnMut(A, T) -> Result<A>,
) -> Result<A> {
    match sel {
        CandView::Dense(r) => vals[r.clone()].iter().try_fold(init, |a, &v| f(a, v)),
        CandView::Positions(p) => p.iter().try_fold(init, |a, &i| f(a, vals[i])),
    }
}

/// Wrap an i64 aggregate result in the column's logical type.
fn int_val(ty: DataType, v: i64) -> Value {
    if ty == DataType::Timestamp {
        Value::Timestamp(v)
    } else {
        Value::Int(v)
    }
}

/// Inverse of [`total_key`] (the key transform is an involution on bits).
#[inline]
fn from_total_key(k: i64) -> f64 {
    f64::from_bits((k ^ (((k >> 63) as u64) >> 1) as i64) as u64)
}

fn int_scalar(func: AggFunc, v: &[i64], sel: &CandView<'_>, ty: DataType) -> Result<Value> {
    Ok(match func {
        AggFunc::Count { star: true } => Value::Int(sel.len() as i64),
        AggFunc::Count { star: false } => {
            Value::Int(fold(v, sel, 0i64, |a, x| a + !is_nil_int(x) as i64))
        }
        AggFunc::Sum => {
            // Running checked sum: an intermediate overflow errors even if a
            // later value would bring the total back in range (the same
            // behavior as the scalar reference).
            let (sum, any) = try_fold(v, sel, (0i64, false), |(s, any), x| {
                if is_nil_int(x) {
                    Ok((s, any))
                } else {
                    Ok((s.checked_add(x).ok_or(BatError::Overflow("sum"))?, true))
                }
            })?;
            if any {
                Value::Int(sum)
            } else {
                Value::Nil
            }
        }
        AggFunc::Min => {
            // Remap nil (i64::MIN) to i64::MAX so it can never win the min.
            let (m, cnt) = fold(v, sel, (i64::MAX, 0u64), |(m, c), x| {
                let k = if is_nil_int(x) { i64::MAX } else { x };
                (m.min(k), c + !is_nil_int(x) as u64)
            });
            if cnt == 0 {
                Value::Nil
            } else {
                int_val(ty, m)
            }
        }
        AggFunc::Max => {
            // Nil is i64::MIN — it can never win the max, so no remap needed.
            let (m, cnt) = fold(v, sel, (NIL_INT, 0u64), |(m, c), x| {
                (m.max(x), c + !is_nil_int(x) as u64)
            });
            if cnt == 0 {
                Value::Nil
            } else {
                int_val(ty, m)
            }
        }
        AggFunc::Avg => {
            let (s, c) = fold(v, sel, (0f64, 0u64), |(s, c), x| {
                if is_nil_int(x) {
                    (s, c)
                } else {
                    (s + x as f64, c + 1)
                }
            });
            if c == 0 {
                Value::Nil
            } else {
                Value::Float(s / c as f64)
            }
        }
    })
}

fn float_scalar(func: AggFunc, v: &[f64], sel: &CandView<'_>) -> Result<Value> {
    Ok(match func {
        AggFunc::Count { star: true } => Value::Int(sel.len() as i64),
        AggFunc::Count { star: false } => {
            Value::Int(fold(v, sel, 0i64, |a, x| a + !x.is_nan() as i64))
        }
        AggFunc::Sum => {
            // Sequential accumulation in candidate order: bit-identical to
            // the scalar reference (float addition is not reassociated).
            let (sum, any) = fold(v, sel, (0f64, false), |(s, any), x| {
                if x.is_nan() {
                    (s, any)
                } else {
                    (s + x, true)
                }
            });
            if any {
                Value::Float(sum)
            } else {
                Value::Nil
            }
        }
        AggFunc::Min => {
            // Fold on total-order keys (-0.0 < 0.0, like the Value fold);
            // NaN maps to the fold identity.
            let (mk, cnt) = fold(v, sel, (i64::MAX, 0u64), |(mk, c), x| {
                let nn = !x.is_nan();
                let k = if nn { total_key(x) } else { i64::MAX };
                (mk.min(k), c + nn as u64)
            });
            if cnt == 0 {
                Value::Nil
            } else {
                Value::Float(from_total_key(mk))
            }
        }
        AggFunc::Max => {
            let (mk, cnt) = fold(v, sel, (i64::MIN, 0u64), |(mk, c), x| {
                let nn = !x.is_nan();
                let k = if nn { total_key(x) } else { i64::MIN };
                (mk.max(k), c + nn as u64)
            });
            if cnt == 0 {
                Value::Nil
            } else {
                Value::Float(from_total_key(mk))
            }
        }
        AggFunc::Avg => {
            let (s, c) = fold(v, sel, (0f64, 0u64), |(s, c), x| {
                if x.is_nan() {
                    (s, c)
                } else {
                    (s + x, c + 1)
                }
            });
            if c == 0 {
                Value::Nil
            } else {
                Value::Float(s / c as f64)
            }
        }
    })
}

/// Aggregate `col` (restricted to `cand`) to a single value.
pub fn scalar_agg(func: AggFunc, col: &Column, cand: Option<&Candidates>) -> Result<Value> {
    let sel = Candidates::resolve(cand, col.len())?;
    match col {
        Column::Int(v) => int_scalar(func, v, &sel, DataType::Int),
        // Timestamp AVG historically never fed the float sum (Value::as_float
        // rejects timestamps), so it keeps the Accumulator path verbatim.
        Column::Timestamp(v) if func != AggFunc::Avg => {
            int_scalar(func, v, &sel, DataType::Timestamp)
        }
        Column::Float(v) => float_scalar(func, v, &sel),
        _ => {
            let mut acc = Accumulator::new();
            match sel {
                CandView::Dense(r) => {
                    for p in r {
                        acc.update(&col.get(p)?);
                    }
                }
                CandView::Positions(ps) => {
                    for &p in ps {
                        acc.update(&col.get(p)?);
                    }
                }
            }
            acc.finish(func, col.data_type())
        }
    }
}

fn int_grouped(
    func: AggFunc,
    ids: &[usize],
    vals: impl Iterator<Item = i64>,
    n: usize,
    ty: DataType,
) -> Result<Column> {
    let rows = ids.iter().copied().zip(vals);
    Ok(match func {
        AggFunc::Count { star: true } => {
            let mut cnt = vec![0i64; n];
            for (gid, _) in rows {
                cnt[gid] += 1;
            }
            Column::Int(cnt)
        }
        AggFunc::Count { star: false } => {
            let mut cnt = vec![0i64; n];
            for (gid, x) in rows {
                cnt[gid] += !is_nil_int(x) as i64;
            }
            Column::Int(cnt)
        }
        AggFunc::Sum => {
            let mut sum = vec![0i64; n];
            let mut any = vec![false; n];
            for (gid, x) in rows {
                if !is_nil_int(x) {
                    sum[gid] = sum[gid].checked_add(x).ok_or(BatError::Overflow("sum"))?;
                    any[gid] = true;
                }
            }
            Column::Int(
                sum.iter()
                    .zip(&any)
                    .map(|(&s, &a)| if a { s } else { NIL_INT })
                    .collect(),
            )
        }
        AggFunc::Min => {
            let mut m = vec![i64::MAX; n];
            let mut cnt = vec![0u64; n];
            for (gid, x) in rows {
                let k = if is_nil_int(x) { i64::MAX } else { x };
                m[gid] = m[gid].min(k);
                cnt[gid] += !is_nil_int(x) as u64;
            }
            let vals = m
                .iter()
                .zip(&cnt)
                .map(|(&x, &c)| if c == 0 { NIL_INT } else { x })
                .collect();
            if ty == DataType::Timestamp {
                Column::Timestamp(vals)
            } else {
                Column::Int(vals)
            }
        }
        AggFunc::Max => {
            let mut m = vec![NIL_INT; n];
            let mut cnt = vec![0u64; n];
            for (gid, x) in rows {
                m[gid] = m[gid].max(x);
                cnt[gid] += !is_nil_int(x) as u64;
            }
            let vals = m
                .iter()
                .zip(&cnt)
                .map(|(&x, &c)| if c == 0 { NIL_INT } else { x })
                .collect();
            if ty == DataType::Timestamp {
                Column::Timestamp(vals)
            } else {
                Column::Int(vals)
            }
        }
        AggFunc::Avg => {
            let mut sum = vec![0f64; n];
            let mut cnt = vec![0u64; n];
            for (gid, x) in rows {
                if !is_nil_int(x) {
                    sum[gid] += x as f64;
                    cnt[gid] += 1;
                }
            }
            Column::Float(
                sum.iter()
                    .zip(&cnt)
                    .map(|(&s, &c)| if c == 0 { nil_float() } else { s / c as f64 })
                    .collect(),
            )
        }
    })
}

fn float_grouped(
    func: AggFunc,
    ids: &[usize],
    vals: impl Iterator<Item = f64>,
    n: usize,
) -> Result<Column> {
    let rows = ids.iter().copied().zip(vals);
    Ok(match func {
        AggFunc::Count { star: true } => {
            let mut cnt = vec![0i64; n];
            for (gid, _) in rows {
                cnt[gid] += 1;
            }
            Column::Int(cnt)
        }
        AggFunc::Count { star: false } => {
            let mut cnt = vec![0i64; n];
            for (gid, x) in rows {
                cnt[gid] += !x.is_nan() as i64;
            }
            Column::Int(cnt)
        }
        AggFunc::Sum => {
            let mut sum = vec![0f64; n];
            let mut any = vec![false; n];
            for (gid, x) in rows {
                if !x.is_nan() {
                    sum[gid] += x;
                    any[gid] = true;
                }
            }
            Column::Float(
                sum.iter()
                    .zip(&any)
                    .map(|(&s, &a)| if a { s } else { nil_float() })
                    .collect(),
            )
        }
        AggFunc::Min => {
            let mut mk = vec![i64::MAX; n];
            let mut cnt = vec![0u64; n];
            for (gid, x) in rows {
                let nn = !x.is_nan();
                let k = if nn { total_key(x) } else { i64::MAX };
                mk[gid] = mk[gid].min(k);
                cnt[gid] += nn as u64;
            }
            Column::Float(
                mk.iter()
                    .zip(&cnt)
                    .map(|(&k, &c)| {
                        if c == 0 {
                            nil_float()
                        } else {
                            from_total_key(k)
                        }
                    })
                    .collect(),
            )
        }
        AggFunc::Max => {
            let mut mk = vec![i64::MIN; n];
            let mut cnt = vec![0u64; n];
            for (gid, x) in rows {
                let nn = !x.is_nan();
                let k = if nn { total_key(x) } else { i64::MIN };
                mk[gid] = mk[gid].max(k);
                cnt[gid] += nn as u64;
            }
            Column::Float(
                mk.iter()
                    .zip(&cnt)
                    .map(|(&k, &c)| {
                        if c == 0 {
                            nil_float()
                        } else {
                            from_total_key(k)
                        }
                    })
                    .collect(),
            )
        }
        AggFunc::Avg => {
            let mut sum = vec![0f64; n];
            let mut cnt = vec![0u64; n];
            for (gid, x) in rows {
                if !x.is_nan() {
                    sum[gid] += x;
                    cnt[gid] += 1;
                }
            }
            Column::Float(
                sum.iter()
                    .zip(&cnt)
                    .map(|(&s, &c)| if c == 0 { nil_float() } else { s / c as f64 })
                    .collect(),
            )
        }
    })
}

/// Grouped aggregation: one output value per group of `grouping`, in group
/// id order. The `col` must cover the positions in `grouping.rows`.
pub fn grouped_agg(func: AggFunc, col: &Column, grouping: &Grouping) -> Result<Column> {
    let Grouping { ids, rows, .. } = grouping;
    // A contiguous run of rows (an unfiltered or dense-candidate grouping)
    // is folded as a sub-slice; anything else gathers through `rows`.
    let run = contiguous_run(rows);
    let bad = match &run {
        Some(r) => (r.end > col.len()).then(|| r.start.max(col.len())),
        None => rows.iter().copied().find(|&p| p >= col.len()),
    };
    if let Some(pos) = bad {
        return Err(BatError::PositionOutOfRange {
            pos,
            len: col.len(),
        });
    }
    let n = grouping.n_groups;
    match col {
        // Timestamp AVG keeps the Accumulator path, like `scalar_agg`.
        Column::Int(v) | Column::Timestamp(v)
            if !(func == AggFunc::Avg && col.data_type() == DataType::Timestamp) =>
        {
            let ty = col.data_type();
            match run {
                Some(r) => int_grouped(func, ids, v[r].iter().copied(), n, ty),
                None => int_grouped(func, ids, rows.iter().map(|&p| v[p]), n, ty),
            }
        }
        Column::Float(v) => match run {
            Some(r) => float_grouped(func, ids, v[r].iter().copied(), n),
            None => float_grouped(func, ids, rows.iter().map(|&p| v[p]), n),
        },
        _ => {
            let mut accs = vec![Accumulator::new(); n];
            for (&gid, &p) in ids.iter().zip(rows) {
                accs[gid].update(&col.get(p)?);
            }
            let out_ty = func.output_type(col.data_type());
            let mut out = Column::with_capacity(out_ty, n);
            for acc in &accs {
                let v = acc.finish(func, col.data_type())?;
                out.push(&v)?;
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::Bat;
    use crate::group::group_by;

    #[test]
    fn scalar_sum_min_max_avg_count() {
        let b = Bat::from_ints(vec![4, 1, 3, NIL_INT]);
        assert_eq!(scalar_agg(AggFunc::Sum, &b, None).unwrap(), Value::Int(8));
        assert_eq!(scalar_agg(AggFunc::Min, &b, None).unwrap(), Value::Int(1));
        assert_eq!(scalar_agg(AggFunc::Max, &b, None).unwrap(), Value::Int(4));
        assert_eq!(
            scalar_agg(AggFunc::Avg, &b, None).unwrap(),
            Value::Float(8.0 / 3.0)
        );
        assert_eq!(
            scalar_agg(AggFunc::Count { star: false }, &b, None).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            scalar_agg(AggFunc::Count { star: true }, &b, None).unwrap(),
            Value::Int(4)
        );
    }

    #[test]
    fn empty_input_yields_nil_or_zero() {
        let b = Bat::empty(DataType::Int);
        assert_eq!(scalar_agg(AggFunc::Sum, &b, None).unwrap(), Value::Nil);
        assert_eq!(scalar_agg(AggFunc::Min, &b, None).unwrap(), Value::Nil);
        assert_eq!(scalar_agg(AggFunc::Avg, &b, None).unwrap(), Value::Nil);
        assert_eq!(
            scalar_agg(AggFunc::Count { star: true }, &b, None).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn scalar_with_candidates() {
        let b = Bat::from_ints(vec![10, 20, 30]);
        let c = Candidates::from_positions(vec![0, 2]).unwrap();
        assert_eq!(
            scalar_agg(AggFunc::Sum, &b, Some(&c)).unwrap(),
            Value::Int(40)
        );
    }

    #[test]
    fn sum_overflow_detected() {
        let b = Bat::from_ints(vec![i64::MAX, 1]);
        assert_eq!(
            scalar_agg(AggFunc::Sum, &b, None).unwrap_err(),
            BatError::Overflow("sum")
        );
    }

    #[test]
    fn float_min_max_total_order() {
        let b = Bat::from_floats(vec![0.0, -0.0, f64::NAN, 1.0]);
        // total order: -0.0 < 0.0 < 1.0; NaN is nil and is skipped.
        assert_eq!(
            scalar_agg(AggFunc::Min, &b, None).unwrap(),
            Value::Float(-0.0)
        );
        let Value::Float(m) = scalar_agg(AggFunc::Min, &b, None).unwrap() else {
            panic!("expected float");
        };
        assert!(m.is_sign_negative());
        assert_eq!(
            scalar_agg(AggFunc::Max, &b, None).unwrap(),
            Value::Float(1.0)
        );
    }

    #[test]
    fn timestamp_min_keeps_type() {
        let b = Bat::new(Column::from_timestamps(vec![500, 100, 900]));
        assert_eq!(
            scalar_agg(AggFunc::Min, &b, None).unwrap(),
            Value::Timestamp(100)
        );
        assert_eq!(
            scalar_agg(AggFunc::Sum, &b, None).unwrap(),
            Value::Int(1500)
        );
    }

    #[test]
    fn dense_candidate_subrange_sums_slice() {
        let b = Bat::from_ints(vec![1, 2, 3, 4, 5]);
        let c = Candidates::Dense(1..4);
        assert_eq!(
            scalar_agg(AggFunc::Sum, &b, Some(&c)).unwrap(),
            Value::Int(9)
        );
        assert_eq!(
            scalar_agg(AggFunc::Count { star: true }, &b, Some(&c)).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn grouped_sum_and_count() {
        let keys = Bat::from_ints(vec![1, 2, 1, 2, 1]);
        let vals = Bat::from_ints(vec![10, 20, 30, 40, NIL_INT]);
        let g = group_by(&keys, None, None).unwrap();
        let sums = grouped_agg(AggFunc::Sum, &vals, &g).unwrap();
        assert_eq!(sums.as_ints().unwrap(), &[40, 60]);
        let counts = grouped_agg(AggFunc::Count { star: false }, &vals, &g).unwrap();
        assert_eq!(counts.as_ints().unwrap(), &[2, 2]);
        let stars = grouped_agg(AggFunc::Count { star: true }, &vals, &g).unwrap();
        assert_eq!(stars.as_ints().unwrap(), &[3, 2]);
    }

    #[test]
    fn grouped_avg_is_float() {
        let keys = Bat::from_ints(vec![1, 1, 2]);
        let vals = Bat::from_ints(vec![1, 2, 9]);
        let g = group_by(&keys, None, None).unwrap();
        let avgs = grouped_agg(AggFunc::Avg, &vals, &g).unwrap();
        assert_eq!(avgs.as_floats().unwrap(), &[1.5, 9.0]);
    }

    #[test]
    fn grouped_min_max_strings() {
        let keys = Bat::from_ints(vec![1, 1, 2]);
        let vals = Bat::from_strs(&["pear", "apple", "kiwi"]);
        let g = group_by(&keys, None, None).unwrap();
        let mins = grouped_agg(AggFunc::Min, &vals, &g).unwrap();
        assert_eq!(mins.get(0).unwrap(), Value::Str("apple".into()));
        assert_eq!(mins.get(1).unwrap(), Value::Str("kiwi".into()));
        let maxs = grouped_agg(AggFunc::Max, &vals, &g).unwrap();
        assert_eq!(maxs.get(0).unwrap(), Value::Str("pear".into()));
    }

    #[test]
    fn all_nil_group_yields_nil() {
        let keys = Bat::from_ints(vec![1, 1]);
        let vals = Bat::from_ints(vec![NIL_INT, NIL_INT]);
        let g = group_by(&keys, None, None).unwrap();
        let sums = grouped_agg(AggFunc::Sum, &vals, &g).unwrap();
        assert_eq!(sums.get(0).unwrap(), Value::Nil);
    }

    #[test]
    fn grouped_float_min_max_and_nil_groups() {
        let keys = Bat::from_ints(vec![1, 1, 2]);
        let vals = Bat::from_floats(vec![2.5, -0.0, f64::NAN]);
        let g = group_by(&keys, None, None).unwrap();
        let mins = grouped_agg(AggFunc::Min, &vals, &g).unwrap();
        assert_eq!(mins.get(0).unwrap(), Value::Float(-0.0));
        assert_eq!(mins.get(1).unwrap(), Value::Nil);
        let maxs = grouped_agg(AggFunc::Max, &vals, &g).unwrap();
        assert_eq!(maxs.get(0).unwrap(), Value::Float(2.5));
    }

    #[test]
    fn accumulator_merge_equals_bulk() {
        let vals: Vec<i64> = (1..=10).collect();
        let mut whole = Accumulator::new();
        for v in &vals {
            whole.update(&Value::Int(*v));
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for v in &vals[..4] {
            left.update(&Value::Int(*v));
        }
        for v in &vals[4..] {
            right.update(&Value::Int(*v));
        }
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(
            left.finish(AggFunc::Sum, DataType::Int).unwrap(),
            Value::Int(55)
        );
        assert_eq!(
            left.finish(AggFunc::Avg, DataType::Int).unwrap(),
            Value::Float(5.5)
        );
    }

    #[test]
    fn output_types() {
        assert_eq!(AggFunc::Avg.output_type(DataType::Int), DataType::Float);
        assert_eq!(AggFunc::Sum.output_type(DataType::Int), DataType::Int);
        assert_eq!(AggFunc::Sum.output_type(DataType::Float), DataType::Float);
        assert_eq!(AggFunc::Min.output_type(DataType::Str), DataType::Str);
        assert_eq!(
            AggFunc::Count { star: true }.output_type(DataType::Str),
            DataType::Int
        );
    }
}
