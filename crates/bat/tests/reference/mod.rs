//! Row-at-a-time reference kernels.
//!
//! These are deliberately *naive*: one `Value` box per row, one branch per
//! comparison — the shape the vectorized kernels in `datacell-bat` replaced.
//! The property tests in `kernel_properties.rs` drive both implementations
//! over arbitrary data (including nils, NaN/-0.0, empty inputs, and every
//! candidate-list shape) and require bit-identical results, so any semantic
//! drift in the data-parallel rewrites shows up as a differential failure.

use datacell_bat::aggregate::{Accumulator, AggFunc};
use datacell_bat::calc::{ArithOp, Operand};
use datacell_bat::column::NIL_BOOL;
use datacell_bat::group::Grouping;
use datacell_bat::select::CmpOp;
use datacell_bat::types::NIL_INT;
use datacell_bat::{Bat, BatError, Candidates, Column, DataType, Result, Value};

/// Resolve a candidate list to explicit positions (`None` means all rows).
pub fn positions_of(cand: Option<&Candidates>, len: usize) -> Vec<usize> {
    match cand {
        None => (0..len).collect(),
        Some(c) => c.to_positions(),
    }
}

/// Two values are the same iff they occupy the same slot in the total order
/// (distinguishes `-0.0` from `0.0`; treats equal-bit NaNs as equal).
pub fn values_eq(a: &Value, b: &Value) -> bool {
    a.total_cmp(b) == std::cmp::Ordering::Equal
}

fn inside_range(
    val: &Value,
    lo: Option<&Value>,
    hi: Option<&Value>,
    li: bool,
    hi_incl: bool,
) -> bool {
    match val {
        Value::Int(v) | Value::Timestamp(v) => {
            let lo_ok = lo.is_none_or(|b| {
                let l = b.as_int().unwrap();
                if li {
                    *v >= l
                } else {
                    *v > l
                }
            });
            let hi_ok = hi.is_none_or(|b| {
                let h = b.as_int().unwrap();
                if hi_incl {
                    *v <= h
                } else {
                    *v < h
                }
            });
            lo_ok && hi_ok
        }
        Value::Float(v) => {
            // Operator comparisons, not total order: range selects treat
            // -0.0 == 0.0, and an absent bound admits everything non-nil.
            let lo_ok = lo.is_none_or(|b| {
                let l = b.as_float().unwrap();
                if li {
                    *v >= l
                } else {
                    *v > l
                }
            });
            let hi_ok = hi.is_none_or(|b| {
                let h = b.as_float().unwrap();
                if hi_incl {
                    *v <= h
                } else {
                    *v < h
                }
            });
            lo_ok && hi_ok
        }
        Value::Str(s) => {
            let lo_ok = lo.is_none_or(|b| match b {
                Value::Str(t) => {
                    if li {
                        s >= t
                    } else {
                        s > t
                    }
                }
                _ => panic!("reference range: non-string bound on string column"),
            });
            let hi_ok = hi.is_none_or(|b| match b {
                Value::Str(t) => {
                    if hi_incl {
                        s <= t
                    } else {
                        s < t
                    }
                }
                _ => panic!("reference range: non-string bound on string column"),
            });
            lo_ok && hi_ok
        }
        other => panic!("reference range: unsupported value {other:?}"),
    }
}

/// Row-wise `select_range`: nil rows never qualify (even under `anti`).
pub fn ref_select_range(
    bat: &Bat,
    lo: Option<&Value>,
    hi: Option<&Value>,
    li: bool,
    hi_incl: bool,
    anti: bool,
    cand: Option<&Candidates>,
) -> Vec<usize> {
    positions_of(cand, bat.len())
        .into_iter()
        .filter(|&p| {
            let v = bat.get(p).unwrap();
            !v.is_nil() && (inside_range(&v, lo, hi, li, hi_incl) != anti)
        })
        .collect()
}

/// Row-wise `theta_select`: total-order comparison against a scalar pivot
/// (so float comparisons see -0.0 < 0.0, exactly like the kernel).
pub fn ref_theta(bat: &Bat, op: CmpOp, rhs: &Value, cand: Option<&Candidates>) -> Vec<usize> {
    if rhs.is_nil() {
        return Vec::new();
    }
    positions_of(cand, bat.len())
        .into_iter()
        .filter(|&p| {
            let v = bat.get(p).unwrap();
            !v.is_nil() && op.eval(v.total_cmp(rhs))
        })
        .collect()
}

fn value_at(o: &Operand<'_>, i: usize) -> Value {
    match o {
        Operand::Col(c) => c.get(i).unwrap(),
        Operand::Scalar(v) => (*v).clone(),
    }
}

/// Row-wise tri-state compare (`1`/`0`/nil), mirroring the calc kernel's
/// total-order semantics with nil absorption.
pub fn ref_compare(op: CmpOp, a: &Operand<'_>, b: &Operand<'_>, n: usize) -> Vec<i8> {
    (0..n)
        .map(|i| {
            let va = value_at(a, i);
            let vb = value_at(b, i);
            if va.is_nil() || vb.is_nil() {
                NIL_BOOL
            } else {
                i8::from(op.eval(va.total_cmp(&vb)))
            }
        })
        .collect()
}

/// Row-wise arithmetic with the kernel's widening, nil-passthrough,
/// divide-by-zero-is-nil, and checked-overflow rules.
pub fn ref_arith(op: ArithOp, a: &Operand<'_>, b: &Operand<'_>, n: usize) -> Result<Column> {
    let float = |o: &Operand<'_>| match o {
        Operand::Col(c) => c.data_type() == DataType::Float,
        Operand::Scalar(v) => matches!(v, Value::Float(_)),
    };
    if float(a) || float(b) {
        let widen = |v: Value| v.as_float().unwrap_or(f64::NAN);
        let out = (0..n)
            .map(|i| {
                let p = widen(value_at(a, i));
                let q = widen(value_at(b, i));
                match op {
                    ArithOp::Add => p + q,
                    ArithOp::Sub => p - q,
                    ArithOp::Mul => p * q,
                    ArithOp::Div => {
                        if q == 0.0 {
                            f64::NAN
                        } else {
                            p / q
                        }
                    }
                    ArithOp::Mod => {
                        if q == 0.0 {
                            f64::NAN
                        } else {
                            p % q
                        }
                    }
                }
            })
            .collect();
        Ok(Column::from_floats(out))
    } else {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let (va, vb) = (value_at(a, i), value_at(b, i));
            let r = match (va.as_int(), vb.as_int()) {
                (Some(p), Some(q)) => match op {
                    ArithOp::Add => p.checked_add(q).ok_or(BatError::Overflow("add"))?,
                    ArithOp::Sub => p.checked_sub(q).ok_or(BatError::Overflow("sub"))?,
                    ArithOp::Mul => p.checked_mul(q).ok_or(BatError::Overflow("mul"))?,
                    ArithOp::Div if q == 0 => NIL_INT,
                    ArithOp::Div => p.checked_div(q).ok_or(BatError::Overflow("div"))?,
                    ArithOp::Mod if q == 0 => NIL_INT,
                    ArithOp::Mod => p.checked_rem(q).ok_or(BatError::Overflow("mod"))?,
                },
                _ => NIL_INT,
            };
            out.push(r);
        }
        Ok(Column::from_ints(out))
    }
}

/// Accumulator-driven scalar aggregate (the pre-vectorization code path).
pub fn ref_scalar_agg(func: AggFunc, bat: &Bat, cand: Option<&Candidates>) -> Result<Value> {
    let mut acc = Accumulator::new();
    for p in positions_of(cand, bat.len()) {
        acc.update(&bat.get(p)?);
    }
    acc.finish(func, bat.data_type())
}

/// Accumulator-driven grouped aggregate, one value per group id.
pub fn ref_grouped_agg(func: AggFunc, bat: &Bat, g: &Grouping) -> Result<Vec<Value>> {
    let mut accs = vec![Accumulator::new(); g.n_groups];
    for (i, &p) in g.rows.iter().enumerate() {
        accs[g.ids[i]].update(&bat.get(p)?);
    }
    accs.iter()
        .map(|acc| acc.finish(func, bat.data_type()))
        .collect()
}

/// GROUP BY key identity: nil is one key, floats compare by value (so
/// `-0.0` and `0.0` are one key, unlike [`values_eq`]), anything else by
/// equality.
fn same_key(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (x, y) if x.is_nil() || y.is_nil() => x.is_nil() && y.is_nil(),
        (Value::Float(x), Value::Float(y)) => x == y,
        _ => values_eq(a, b),
    }
}

/// Row-wise `group_by`: one linear search through the `(prev id, key)`
/// pairs seen so far per row, so ids are numbered by first appearance and a
/// group's representative is its first member by construction.
pub fn ref_group_by(
    bat: &Bat,
    prev: Option<&Grouping>,
    cand: Option<&Candidates>,
) -> Result<Grouping> {
    let rows = match prev {
        Some(g) => g.rows.clone(),
        None => positions_of(cand, bat.len()),
    };
    if let Some(&pos) = rows.iter().find(|&&p| p >= bat.len()) {
        return Err(BatError::PositionOutOfRange {
            pos,
            len: bat.len(),
        });
    }
    if let Some(g) = prev {
        if g.ids.len() != rows.len() {
            return Err(BatError::Misaligned {
                op: "group_by",
                left: g.ids.len(),
                right: rows.len(),
            });
        }
    }
    let mut seen: Vec<(usize, Value)> = Vec::new();
    let mut ids = Vec::new();
    let mut representatives = Vec::new();
    for (i, &p) in rows.iter().enumerate() {
        let key = (prev.map_or(0, |g| g.ids[i]), bat.get(p)?);
        let id = match seen
            .iter()
            .position(|(g, v)| *g == key.0 && same_key(v, &key.1))
        {
            Some(id) => id,
            None => {
                seen.push(key);
                representatives.push(p);
                seen.len() - 1
            }
        };
        ids.push(id);
    }
    Ok(Grouping {
        n_groups: seen.len(),
        ids,
        representatives,
        rows,
    })
}
