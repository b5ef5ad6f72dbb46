//! Vectorized evaluation of bound scalar expressions over chunks.
//!
//! Two entry points. [`eval`] computes an expression as a column: hot node
//! kinds (arithmetic, comparisons, boolean connectives) map 1:1 onto the
//! kernel's batcalc primitives and stay columnar end to end, a bare column
//! reference is *lent*, not copied, and literal operands are broadcast via
//! scalar operands rather than materialized. Cooler node kinds (LIKE, CASE,
//! scalar functions) evaluate column-wise with per-row value logic — still
//! one tight loop per column, just not a fused kernel.
//!
//! [`eval_predicate`] answers the WHERE question — which rows are exactly
//! `true` — and goes to the `bat::select` kernels wherever it can: a
//! conjunction threads a candidate list from one select into the next, a
//! disjunction unions two, and only the conjuncts no select kernel
//! expresses are computed as a boolean column, over the rows still
//! standing (`docs/kernels.md`, "How the interpreter uses the kernels").

use std::borrow::Cow;

use datacell_bat::calc::{self, Operand};
use datacell_bat::candidates::Candidates;
use datacell_bat::column::{Column, NIL_BOOL};
use datacell_bat::error::Result as BatResult;
use datacell_bat::select::{select_nil, select_range, theta_select, CmpOp};
use datacell_bat::types::{is_nil_float, is_nil_int, nil_float, DataType, Value, NIL_STR_CODE};
use datacell_sql::expr::{eval_func, like_match, ScalarExpr};
use datacell_sql::{Result, SqlError};

use crate::chunk::{gather_column, Chunk};

/// Evaluate `expr` over every row of `chunk`, producing one output column of
/// `chunk.len()` rows — borrowed from the chunk when `expr` is a column
/// reference, owned when it had to be computed.
pub fn eval<'a>(expr: &ScalarExpr, chunk: &'a Chunk) -> Result<Cow<'a, Column>> {
    let cols: Vec<&Column> = chunk.columns.iter().collect();
    eval_cols(expr, &cols, chunk.len())
}

/// [`eval`] over loose column references of `n` rows each (the interpreter
/// passes columns lent by a scan without assembling a [`Chunk`]).
pub(crate) fn eval_cols<'a>(
    expr: &ScalarExpr,
    cols: &[&'a Column],
    n: usize,
) -> Result<Cow<'a, Column>> {
    Ok(Cow::Owned(match expr {
        ScalarExpr::Column { index, .. } => {
            return cols
                .get(*index)
                .map(|c| Cow::Borrowed(*c))
                .ok_or_else(|| SqlError::Plan(format!("column {index} out of range")))
        }
        ScalarExpr::Literal(v) => broadcast(v, n),
        ScalarExpr::Arith {
            op, left, right, ..
        } => with_operands(left, right, cols, n, |l, r| calc::arith(*op, l, r))?,
        ScalarExpr::Cmp { op, left, right } => {
            with_operands(left, right, cols, n, |l, r| calc::compare(*op, l, r))?
        }
        ScalarExpr::And(a, b) => {
            let ca = eval_cols(a, cols, n)?;
            let cb = eval_cols(b, cols, n)?;
            calc::and(&ca, &cb)?
        }
        ScalarExpr::Or(a, b) => {
            let ca = eval_cols(a, cols, n)?;
            let cb = eval_cols(b, cols, n)?;
            calc::or(&ca, &cb)?
        }
        ScalarExpr::Not(e) => {
            let c = eval_cols(e, cols, n)?;
            calc::not(&c)?
        }
        ScalarExpr::Neg(e) => {
            let c = eval_cols(e, cols, n)?;
            calc::neg(&c)?
        }
        ScalarExpr::IsNull { expr, negated } => {
            // One typed pass; the result is never nil.
            let hit = |nil: bool| i8::from(nil != *negated);
            Column::Bool(match &*eval_cols(expr, cols, n)? {
                Column::Int(v) | Column::Timestamp(v) => {
                    v.iter().map(|&x| hit(is_nil_int(x))).collect()
                }
                Column::Float(v) => v.iter().map(|&x| hit(is_nil_float(x))).collect(),
                Column::Bool(v) => v.iter().map(|&x| hit(x != 0 && x != 1)).collect(),
                Column::Str { codes, .. } => {
                    codes.iter().map(|&c| hit(c == NIL_STR_CODE)).collect()
                }
            })
        }
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let c = eval_cols(expr, cols, n)?;
            let (codes, heap) = c.as_strs()?;
            // LIKE over a dictionary column: match each *distinct* string
            // once, then map codes — the classic dictionary-encoding win.
            let mut memo: std::collections::HashMap<u32, bool> = std::collections::HashMap::new();
            let out: Vec<i8> = codes
                .iter()
                .map(|&code| match heap.get(code) {
                    None => NIL_BOOL,
                    Some(s) => {
                        let hit = *memo.entry(code).or_insert_with(|| like_match(pattern, s));
                        i8::from(hit != *negated)
                    }
                })
                .collect();
            Column::Bool(out)
        }
        ScalarExpr::Func { func, args, ty } => {
            let args: Vec<Cow<'_, Column>> = args
                .iter()
                .map(|a| eval_cols(a, cols, n))
                .collect::<Result<_>>()?;
            let mut out = Column::with_capacity(*ty, n);
            let mut argv: Vec<Value> = Vec::with_capacity(args.len());
            for i in 0..n {
                argv.clear();
                for c in &args {
                    argv.push(c.get(i)?);
                }
                let v = eval_func(*func, &argv)?;
                push_coerced(&mut out, &v, *ty)?;
            }
            out
        }
        ScalarExpr::Case {
            when_then,
            else_expr,
            ty,
        } => {
            let conds: Vec<Cow<'_, Column>> = when_then
                .iter()
                .map(|(c, _)| eval_cols(c, cols, n))
                .collect::<Result<_>>()?;
            let results: Vec<Cow<'_, Column>> = when_then
                .iter()
                .map(|(_, r)| eval_cols(r, cols, n))
                .collect::<Result<_>>()?;
            let else_col = match else_expr {
                Some(e) => Some(eval_cols(e, cols, n)?),
                None => None,
            };
            let mut out = Column::with_capacity(*ty, n);
            for i in 0..n {
                let mut taken = false;
                for (c, r) in conds.iter().zip(&results) {
                    if c.as_bools()?[i] == 1 {
                        push_coerced(&mut out, &r.get(i)?, *ty)?;
                        taken = true;
                        break;
                    }
                }
                if !taken {
                    match &else_col {
                        Some(e) => push_coerced(&mut out, &e.get(i)?, *ty)?,
                        None => out.push_nil(),
                    }
                }
            }
            out
        }
        ScalarExpr::Cast { expr, ty } => {
            let c = eval_cols(expr, cols, n)?;
            let mut out = Column::with_capacity(*ty, c.len());
            for i in 0..c.len() {
                let v = datacell_sql::expr::cast_value(&c.get(i)?, *ty)?;
                out.push(&v)?;
            }
            out
        }
    }))
}

/// Evaluate a boolean expression and return the positions where it is
/// exactly `true` (the WHERE contract).
pub fn eval_predicate(expr: &ScalarExpr, chunk: &Chunk) -> Result<Candidates> {
    let cols: Vec<&Column> = chunk.columns.iter().collect();
    select(expr, &cols, chunk.len(), None)
}

/// The rows among `cand` (all `n` when `None`) where `expr` is exactly
/// `true`.
///
/// `true(a AND b) = true(a) ∩ true(b)` and `true(a OR b) = true(a) ∪
/// true(b)` hold in SQL's three-valued logic, so conjunctions chain
/// candidate lists and disjunctions union them. `NOT` has no such law — the
/// rows where `NOT e` is true are those where `e` is *false*, and the
/// complement of `true(e)` would also admit the rows where `e` is unknown —
/// so only a negated comparison is pushed down (as the opposite
/// comparison, which nil fails just the same); any other `NOT` is computed
/// as a boolean column.
pub(crate) fn select(
    expr: &ScalarExpr,
    cols: &[&Column],
    n: usize,
    cand: Option<&Candidates>,
) -> Result<Candidates> {
    match expr {
        ScalarExpr::And(a, b) => {
            if let Some(range) = select_bounded(a, b, cols, cand) {
                return Ok(range?);
            }
            let first = select(a, cols, n, cand)?;
            select(b, cols, n, Some(&first))
        }
        ScalarExpr::Or(a, b) => Ok(select(a, cols, n, cand)?.union(&select(b, cols, n, cand)?)),
        ScalarExpr::IsNull {
            expr: inner,
            negated,
        } => match &**inner {
            ScalarExpr::Column { index, .. } if *index < cols.len() => {
                Ok(select_nil(cols[*index], !*negated, cand)?)
            }
            _ => select_computed(expr, cols, n, cand),
        },
        _ => match comparison(expr, cols) {
            Some((_, col, op, lit)) => Ok(theta_select(col, op, lit, cand)?),
            None => select_computed(expr, cols, n, cand),
        },
    }
}

/// `expr` as one comparison of a column with a literal, if it is one:
/// `(column index, column, op with the column on the left, literal)`.
/// `NOT (col <op> lit)` is the opposite comparison — nil fails both.
fn comparison<'a, 'e>(
    expr: &'e ScalarExpr,
    cols: &[&'a Column],
) -> Option<(usize, &'a Column, CmpOp, &'e Value)> {
    match expr {
        ScalarExpr::Cmp { op, left, right } => column_vs_literal(*op, left, right, cols),
        ScalarExpr::Not(inner) => match &**inner {
            ScalarExpr::Cmp { op, left, right } => column_vs_literal(*op, left, right, cols)
                .map(|(index, col, op, lit)| (index, col, op.negate(), lit)),
            _ => None,
        },
        _ => None,
    }
}

/// `column <op> literal`, the literal on either side — when the select
/// kernels compare this column type with this literal type exactly as
/// [`calc::compare`] does. A literal of another numeric type (an int column
/// against `2.5`) widens the column in `compare`, which no select does, so
/// it is left to the computed path.
fn column_vs_literal<'a, 'e>(
    op: CmpOp,
    left: &'e ScalarExpr,
    right: &'e ScalarExpr,
    cols: &[&'a Column],
) -> Option<(usize, &'a Column, CmpOp, &'e Value)> {
    let (index, op, lit) = match (left, right) {
        (ScalarExpr::Column { index, .. }, ScalarExpr::Literal(v)) => (*index, op, v),
        (ScalarExpr::Literal(v), ScalarExpr::Column { index, .. }) => (*index, op.flip(), v),
        _ => return None,
    };
    let col = *cols.get(index)?;
    let comparable = lit.is_nil()
        || matches!(
            (col.data_type(), lit),
            (
                DataType::Int | DataType::Timestamp,
                Value::Int(_) | Value::Timestamp(_)
            ) | (DataType::Float, Value::Float(_) | Value::Int(_))
                | (DataType::Str, Value::Str(_))
                | (DataType::Bool, Value::Bool(_))
        );
    comparable.then_some((index, col, op, lit))
}

/// A lower and an upper bound on one column — what `BETWEEN` desugars to —
/// as a single [`select_range`]. Float columns are left to two chained
/// theta selects: those order `-0.0` below `0.0` like [`calc::compare`],
/// the float range select does not.
fn select_bounded(
    a: &ScalarExpr,
    b: &ScalarExpr,
    cols: &[&Column],
    cand: Option<&Candidates>,
) -> Option<BatResult<Candidates>> {
    let (ia, col, op_a, lit_a) = comparison(a, cols)?;
    let (ib, _, op_b, lit_b) = comparison(b, cols)?;
    if ia != ib || col.data_type() == DataType::Float || lit_a.is_nil() || lit_b.is_nil() {
        return None;
    }
    let is_lower = |op| matches!(op, CmpOp::Gt | CmpOp::Ge);
    let is_upper = |op| matches!(op, CmpOp::Lt | CmpOp::Le);
    let ((lo_op, lo), (hi_op, hi)) = if is_lower(op_a) && is_upper(op_b) {
        ((op_a, lit_a), (op_b, lit_b))
    } else if is_upper(op_a) && is_lower(op_b) {
        ((op_b, lit_b), (op_a, lit_a))
    } else {
        return None;
    };
    Some(select_range(
        col,
        Some(lo),
        Some(hi),
        lo_op == CmpOp::Ge,
        hi_op == CmpOp::Le,
        false,
        cand,
    ))
}

/// The general path: compute `expr` as a boolean column — over the rows of
/// `cand` only, gathering the columns it references — and keep the rows
/// that are `true`.
fn select_computed(
    expr: &ScalarExpr,
    cols: &[&Column],
    n: usize,
    cand: Option<&Candidates>,
) -> Result<Candidates> {
    let cand = match cand {
        Some(c) if !is_all(c, n) => c,
        _ => {
            let truth = eval_cols(expr, cols, n)?;
            return Ok(calc::true_candidates(&truth)?);
        }
    };
    let referenced = expr.referenced_columns();
    let gathered: Vec<Column> = referenced
        .iter()
        .map(|&i| match cols.get(i) {
            Some(c) => gather_column(c, cand).map_err(SqlError::Kernel),
            None => Err(SqlError::Plan(format!("column {i} out of range"))),
        })
        .collect::<Result<_>>()?;
    // Unreferenced columns keep their full-length originals; nothing reads them.
    let mut view = cols.to_vec();
    for (&i, c) in referenced.iter().zip(&gathered) {
        view[i] = c;
    }
    let truth = eval_cols(expr, &view, cand.len())?;
    Ok(cand.pick(&calc::true_candidates(&truth)?)?)
}

/// True iff `cand` selects every one of `n` rows.
pub(crate) fn is_all(cand: &Candidates, n: usize) -> bool {
    matches!(cand, Candidates::Dense(r) if r.start == 0 && r.end >= n)
}

fn push_coerced(out: &mut Column, v: &Value, ty: DataType) -> Result<()> {
    if v.is_nil() {
        out.push_nil();
        return Ok(());
    }
    let coerced = v
        .coerce_to(ty)
        .ok_or_else(|| SqlError::Type(format!("cannot coerce {v:?} to {ty}")))?;
    out.push(&coerced)?;
    Ok(())
}

/// Evaluate the two operands of a binary kernel, keeping literal sides as
/// scalar operands (broadcast-free).
fn with_operands(
    left: &ScalarExpr,
    right: &ScalarExpr,
    cols: &[&Column],
    n: usize,
    kernel: impl FnOnce(Operand<'_>, Operand<'_>) -> BatResult<Column>,
) -> Result<Column> {
    match (left, right) {
        (ScalarExpr::Literal(l), ScalarExpr::Literal(r)) => {
            // Both constant (rare after folding): materialize one side so
            // the kernel has a column to size its output from.
            let lc = broadcast(l, n);
            Ok(kernel(Operand::Col(&lc), Operand::Scalar(r))?)
        }
        (ScalarExpr::Literal(l), r) => {
            let rc = eval_cols(r, cols, n)?;
            Ok(kernel(Operand::Scalar(l), Operand::Col(&rc))?)
        }
        (l, ScalarExpr::Literal(r)) => {
            let lc = eval_cols(l, cols, n)?;
            Ok(kernel(Operand::Col(&lc), Operand::Scalar(r))?)
        }
        (l, r) => {
            let lc = eval_cols(l, cols, n)?;
            let rc = eval_cols(r, cols, n)?;
            Ok(kernel(Operand::Col(&lc), Operand::Col(&rc))?)
        }
    }
}

/// A literal as a column of `n` equal rows (an untyped NULL as nil bools).
fn broadcast(v: &Value, n: usize) -> Column {
    match v {
        Value::Int(x) => Column::Int(vec![*x; n]),
        Value::Timestamp(x) => Column::Timestamp(vec![*x; n]),
        Value::Float(x) if is_nil_float(*x) => Column::Float(vec![nil_float(); n]),
        Value::Float(x) => Column::Float(vec![*x; n]),
        Value::Bool(b) => Column::Bool(vec![i8::from(*b); n]),
        Value::Str(s) => {
            let mut heap = datacell_bat::heap::StrHeap::new();
            let code = heap.intern(s);
            Column::Str {
                codes: vec![code; n],
                heap: std::sync::Arc::new(heap),
            }
        }
        Value::Nil => Column::Bool(vec![NIL_BOOL; n]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_bat::calc::ArithOp;
    use datacell_bat::select::CmpOp;
    use datacell_bat::types::DataType;
    use datacell_sql::expr::ScalarFunc;
    use datacell_sql::Schema;

    fn chunk() -> Chunk {
        Chunk::new(
            Schema::new(vec![
                ("a".into(), DataType::Int),
                ("s".into(), DataType::Str),
            ]),
            vec![
                Column::from_ints(vec![1, 2, 3, 4]),
                Column::from_strs(&["apple", "pear", "avocado", "plum"]),
            ],
        )
        .unwrap()
    }

    fn col(i: usize, ty: DataType) -> ScalarExpr {
        ScalarExpr::Column { index: i, ty }
    }

    #[test]
    fn column_and_literal() {
        let c = chunk();
        let out = eval(&col(0, DataType::Int), &c).unwrap();
        assert_eq!(out.as_ints().unwrap(), &[1, 2, 3, 4]);
        let lit = eval(&ScalarExpr::Literal(Value::Int(7)), &c).unwrap();
        assert_eq!(lit.as_ints().unwrap(), &[7, 7, 7, 7]);
    }

    #[test]
    fn vectorized_arith_with_scalar() {
        let c = chunk();
        let e = ScalarExpr::Arith {
            op: ArithOp::Mul,
            left: Box::new(col(0, DataType::Int)),
            right: Box::new(ScalarExpr::Literal(Value::Int(10))),
            ty: DataType::Int,
        };
        assert_eq!(eval(&e, &c).unwrap().as_ints().unwrap(), &[10, 20, 30, 40]);
    }

    #[test]
    fn predicate_candidates() {
        let c = chunk();
        let e = ScalarExpr::Cmp {
            op: CmpOp::Ge,
            left: Box::new(col(0, DataType::Int)),
            right: Box::new(ScalarExpr::Literal(Value::Int(3))),
        };
        assert_eq!(eval_predicate(&e, &c).unwrap().to_positions(), vec![2, 3]);
    }

    #[test]
    fn not_over_unknown_is_not_a_complement() {
        // a: 1, nil, 3. `a between 2 and 3` is false, unknown, true; its
        // negation is true only for the first row — the complement of the
        // pushed-down range would have admitted the nil row too.
        let c = Chunk::new(
            Schema::new(vec![("a".into(), DataType::Int)]),
            vec![Column::from_ints(vec![1, datacell_bat::types::NIL_INT, 3])],
        )
        .unwrap();
        let bound = |op, v| ScalarExpr::Cmp {
            op,
            left: Box::new(col(0, DataType::Int)),
            right: Box::new(ScalarExpr::Literal(Value::Int(v))),
        };
        let between = ScalarExpr::And(Box::new(bound(CmpOp::Ge, 2)), Box::new(bound(CmpOp::Le, 3)));
        assert_eq!(
            eval_predicate(&between, &c).unwrap().to_positions(),
            vec![2]
        );
        let negated = ScalarExpr::Not(Box::new(between));
        assert_eq!(
            eval_predicate(&negated, &c).unwrap().to_positions(),
            vec![0]
        );
    }

    #[test]
    fn like_with_dictionary_memo() {
        let c = chunk();
        let e = ScalarExpr::Like {
            expr: Box::new(col(1, DataType::Str)),
            pattern: "a%".into(),
            negated: false,
        };
        let out = eval(&e, &c).unwrap();
        assert_eq!(out.as_bools().unwrap(), &[1, 0, 1, 0]);
    }

    #[test]
    fn case_vectorized() {
        let c = chunk();
        let e = ScalarExpr::Case {
            when_then: vec![(
                ScalarExpr::Cmp {
                    op: CmpOp::Lt,
                    left: Box::new(col(0, DataType::Int)),
                    right: Box::new(ScalarExpr::Literal(Value::Int(3))),
                },
                ScalarExpr::Literal(Value::Int(0)),
            )],
            else_expr: Some(Box::new(col(0, DataType::Int))),
            ty: DataType::Int,
        };
        assert_eq!(eval(&e, &c).unwrap().as_ints().unwrap(), &[0, 0, 3, 4]);
    }

    #[test]
    fn case_without_else_yields_nil() {
        let c = chunk();
        let e = ScalarExpr::Case {
            when_then: vec![(
                ScalarExpr::Literal(Value::Bool(false)),
                col(0, DataType::Int),
            )],
            else_expr: None,
            ty: DataType::Int,
        };
        let out = eval(&e, &c).unwrap();
        assert!(out.is_nil_at(0));
    }

    #[test]
    fn func_and_cast() {
        let c = chunk();
        let e = ScalarExpr::Func {
            func: ScalarFunc::Length,
            args: vec![col(1, DataType::Str)],
            ty: DataType::Int,
        };
        assert_eq!(eval(&e, &c).unwrap().as_ints().unwrap(), &[5, 4, 7, 4]);
        let cast = ScalarExpr::Cast {
            expr: Box::new(col(0, DataType::Int)),
            ty: DataType::Float,
        };
        assert_eq!(
            eval(&cast, &c).unwrap().as_floats().unwrap(),
            &[1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn is_null_vectorized() {
        let c = Chunk::new(
            Schema::new(vec![("a".into(), DataType::Int)]),
            vec![Column::from_ints(vec![1, datacell_bat::types::NIL_INT])],
        )
        .unwrap();
        let e = ScalarExpr::IsNull {
            expr: Box::new(col(0, DataType::Int)),
            negated: false,
        };
        assert_eq!(eval(&e, &c).unwrap().as_bools().unwrap(), &[0, 1]);
    }
}
