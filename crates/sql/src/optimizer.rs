//! Rule-based logical optimizer.
//!
//! The point the paper makes in §1 — that building on a DBMS kernel gives
//! streams "a direct hook into the sophisticated algorithms and techniques
//! of the DBMS" — only holds if continuous plans actually pass through the
//! same optimizer as one-time plans. They do: DataCell's factory compiler
//! calls [`optimize`] on every continuous plan.
//!
//! Rules:
//! 1. **constant folding** — constant sub-expressions are evaluated once at
//!    compile time;
//! 2. **trivial-filter elimination** — `WHERE true` disappears, `WHERE
//!    false`/`WHERE NULL` collapses the input to an empty scan of the same
//!    schema;
//! 3. **column pruning** — scans read only the columns a query touches:
//!    *the* column-store advantage (§2.2: "a query needs to read and
//!    process only the attributes required and not all attributes of a
//!    table").
//!
//! Predicate pushdown and equi-join extraction happen at bind time (see
//! `resolve`), so plans arriving here already have selection fused into
//! scans.

use datacell_bat::types::Value;

use crate::expr::ScalarExpr;
use crate::logical::{AggSpec, LogicalPlan};

/// Run all rewrite rules to fixpoint-enough (each rule is applied once; the
/// rules are confluent for this rule set).
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    let plan = fold_constants_in_plan(plan);
    let plan = eliminate_trivial_filters(plan);
    let width = plan.schema().len();
    prune_to(plan, &(0..width).collect::<Vec<_>>())
}

/// Extract the shareable prefix of a continuous plan for multi-query plan
/// sharing: the single consuming [`LogicalPlan::Scan`] (basket expression)
/// with its fused predicate window intact. Two queries whose extracted
/// prefixes compare equal read exactly the same tuples from the same
/// basket and can therefore consume one shared intermediate materialized
/// once per firing.
///
/// Returns `None` when the plan has no consuming scan or more than one
/// (self-joins of a basket against itself interleave removal with the
/// join and cannot safely share a materialized prefix), or when the scan
/// carries a window clause — windowed scans are served by the windowed
/// evaluator, whose buffered re-evaluation state is per-query and cannot
/// ride a shared consume-once head factory.
pub fn shared_prefix(plan: &LogicalPlan) -> Option<LogicalPlan> {
    let mut consuming: Vec<&LogicalPlan> = Vec::new();
    plan.walk(&mut |p| {
        if matches!(p, LogicalPlan::Scan { consume: true, .. }) {
            consuming.push(p);
        }
    });
    match consuming.as_slice() {
        [scan] if matches!(scan, LogicalPlan::Scan { window: None, .. }) => Some((*scan).clone()),
        _ => None,
    }
}

/// The complement of [`shared_prefix`]: rewrite every consuming scan of
/// `from` into a predicate-free consuming scan of `to`, leaving the rest of
/// the plan — projections, schemas, non-consuming scans — as it is. With
/// `to` an intermediate basket that carries the prefix's survivors (same
/// user columns + `ts`), the result is the query's *tail* (§3.2): its
/// predicate window was already applied by the head.
pub fn retarget(mut plan: LogicalPlan, from: &str, to: &str) -> LogicalPlan {
    fn visit(p: &mut LogicalPlan, from: &str, to: &str) {
        match p {
            LogicalPlan::Scan {
                table,
                consume: true,
                predicate,
                ..
            } if table == from => {
                *table = to.to_string();
                *predicate = None;
            }
            LogicalPlan::Scan { .. } | LogicalPlan::ConstRow { .. } => {}
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => visit(input, from, to),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Cross { left, right } => {
                visit(left, from, to);
                visit(right, from, to);
            }
        }
    }
    visit(&mut plan, from, to);
    plan
}

// ---------------- rule 1: constant folding ----------------

/// Fold constant sub-expressions bottom-up. Expressions that error at fold
/// time (overflow in dead code, bad cast) are left unfolded so the error
/// surfaces — if ever — at run time with row context.
pub fn fold_expr(e: &ScalarExpr) -> ScalarExpr {
    // First fold children.
    let folded = map_children(e, &fold_expr);
    if !matches!(folded, ScalarExpr::Literal(_)) && folded.is_constant() {
        if let Ok(v) = folded.eval_row(&[]) {
            return ScalarExpr::Literal(v);
        }
    }
    folded
}

fn map_children(e: &ScalarExpr, f: &dyn Fn(&ScalarExpr) -> ScalarExpr) -> ScalarExpr {
    match e {
        ScalarExpr::Column { .. } | ScalarExpr::Literal(_) => e.clone(),
        ScalarExpr::Arith {
            op,
            left,
            right,
            ty,
        } => ScalarExpr::Arith {
            op: *op,
            left: Box::new(f(left)),
            right: Box::new(f(right)),
            ty: *ty,
        },
        ScalarExpr::Cmp { op, left, right } => ScalarExpr::Cmp {
            op: *op,
            left: Box::new(f(left)),
            right: Box::new(f(right)),
        },
        ScalarExpr::And(a, b) => ScalarExpr::And(Box::new(f(a)), Box::new(f(b))),
        ScalarExpr::Or(a, b) => ScalarExpr::Or(Box::new(f(a)), Box::new(f(b))),
        ScalarExpr::Not(x) => ScalarExpr::Not(Box::new(f(x))),
        ScalarExpr::Neg(x) => ScalarExpr::Neg(Box::new(f(x))),
        ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
            expr: Box::new(f(expr)),
            negated: *negated,
        },
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => ScalarExpr::Like {
            expr: Box::new(f(expr)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        ScalarExpr::Func { func, args, ty } => ScalarExpr::Func {
            func: *func,
            args: args.iter().map(f).collect(),
            ty: *ty,
        },
        ScalarExpr::Case {
            when_then,
            else_expr,
            ty,
        } => ScalarExpr::Case {
            when_then: when_then.iter().map(|(c, r)| (f(c), f(r))).collect(),
            else_expr: else_expr.as_ref().map(|x| Box::new(f(x))),
            ty: *ty,
        },
        ScalarExpr::Cast { expr, ty } => ScalarExpr::Cast {
            expr: Box::new(f(expr)),
            ty: *ty,
        },
    }
}

fn fold_constants_in_plan(plan: LogicalPlan) -> LogicalPlan {
    map_plan_exprs(plan, &fold_expr)
}

fn map_plan_exprs(plan: LogicalPlan, f: &dyn Fn(&ScalarExpr) -> ScalarExpr) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            schema,
            consume,
            predicate,
            projection,
            window,
        } => LogicalPlan::Scan {
            table,
            schema,
            consume,
            predicate: predicate.as_ref().map(f),
            projection,
            window,
        },
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(map_plan_exprs(*input, f)),
            predicate: f(&predicate),
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(map_plan_exprs(*input, f)),
            exprs: exprs.into_iter().map(|(e, n)| (f(&e), n)).collect(),
        },
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => LogicalPlan::Join {
            left: Box::new(map_plan_exprs(*left, f)),
            right: Box::new(map_plan_exprs(*right, f)),
            left_keys: left_keys.iter().map(f).collect(),
            right_keys: right_keys.iter().map(f).collect(),
            residual: residual.as_ref().map(f),
        },
        LogicalPlan::Cross { left, right } => LogicalPlan::Cross {
            left: Box::new(map_plan_exprs(*left, f)),
            right: Box::new(map_plan_exprs(*right, f)),
        },
        LogicalPlan::Aggregate { input, group, aggs } => LogicalPlan::Aggregate {
            input: Box::new(map_plan_exprs(*input, f)),
            group: group.into_iter().map(|(e, n)| (f(&e), n)).collect(),
            aggs: aggs
                .into_iter()
                .map(|a| AggSpec {
                    func: a.func,
                    arg: a.arg.as_ref().map(f),
                    name: a.name,
                })
                .collect(),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(map_plan_exprs(*input, f)),
            keys,
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(map_plan_exprs(*input, f)),
            n,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(map_plan_exprs(*input, f)),
        },
        LogicalPlan::ConstRow { exprs } => LogicalPlan::ConstRow {
            exprs: exprs.into_iter().map(|(e, n)| (f(&e), n)).collect(),
        },
    }
}

// ---------------- rule 2: trivial filters ----------------

fn eliminate_trivial_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = eliminate_trivial_filters(*input);
            match &predicate {
                ScalarExpr::Literal(Value::Bool(true)) => input,
                ScalarExpr::Literal(Value::Bool(false)) | ScalarExpr::Literal(Value::Nil) => {
                    // WHERE false: the plan produces no rows; keep the scan
                    // shape (consumption side effects must still not fire —
                    // a never-true predicate window consumes nothing).
                    LogicalPlan::Limit {
                        input: Box::new(input),
                        n: 0,
                    }
                }
                _ => LogicalPlan::Filter {
                    input: Box::new(input),
                    predicate,
                },
            }
        }
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(eliminate_trivial_filters(*input)),
            exprs,
        },
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => LogicalPlan::Join {
            left: Box::new(eliminate_trivial_filters(*left)),
            right: Box::new(eliminate_trivial_filters(*right)),
            left_keys,
            right_keys,
            residual,
        },
        LogicalPlan::Cross { left, right } => LogicalPlan::Cross {
            left: Box::new(eliminate_trivial_filters(*left)),
            right: Box::new(eliminate_trivial_filters(*right)),
        },
        LogicalPlan::Aggregate { input, group, aggs } => LogicalPlan::Aggregate {
            input: Box::new(eliminate_trivial_filters(*input)),
            group,
            aggs,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(eliminate_trivial_filters(*input)),
            keys,
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(eliminate_trivial_filters(*input)),
            n,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(eliminate_trivial_filters(*input)),
        },
        leaf => leaf,
    }
}

// ---------------- rule 3: column pruning ----------------

/// Rewrite `plan` to produce exactly the columns `required` (input-relative
/// indices, in the given order), pushing column pruning into scans.
fn prune_to(plan: LogicalPlan, required: &[usize]) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            schema,
            consume,
            predicate,
            projection,
            window,
        } => {
            // Compose with an existing projection if present.
            let base: Vec<usize> = match &projection {
                None => required.to_vec(),
                Some(p) => required.iter().map(|&i| p[i]).collect(),
            };
            let identity =
                base.len() == schema.len() && base.iter().enumerate().all(|(i, &c)| i == c);
            LogicalPlan::Scan {
                table,
                schema,
                consume,
                predicate,
                projection: if identity { None } else { Some(base) },
                window,
            }
        }
        LogicalPlan::Project { input, exprs } => {
            let kept: Vec<(ScalarExpr, String)> =
                required.iter().map(|&i| exprs[i].clone()).collect();
            let mut needs: Vec<usize> = Vec::new();
            for (e, _) in &kept {
                for c in e.referenced_columns() {
                    if !needs.contains(&c) {
                        needs.push(c);
                    }
                }
            }
            needs.sort_unstable();
            let input = prune_to(*input, &needs);
            let pos = |c: usize| needs.iter().position(|&x| x == c).expect("collected above");
            LogicalPlan::Project {
                input: Box::new(input),
                exprs: kept
                    .into_iter()
                    .map(|(e, n)| (e.remap_columns(&pos), n))
                    .collect(),
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut needs: Vec<usize> = required.to_vec();
            for c in predicate.referenced_columns() {
                if !needs.contains(&c) {
                    needs.push(c);
                }
            }
            needs.sort_unstable();
            let inner = prune_to(*input, &needs);
            let pos = |c: usize| needs.iter().position(|&x| x == c).expect("collected above");
            let filtered = LogicalPlan::Filter {
                input: Box::new(inner),
                predicate: predicate.remap_columns(&pos),
            };
            narrow(filtered, required, &needs)
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => {
            let lwidth = left.schema().len();
            let mut lneeds: Vec<usize> = Vec::new();
            let mut rneeds: Vec<usize> = Vec::new();
            let mut need = |c: usize| {
                if c < lwidth {
                    if !lneeds.contains(&c) {
                        lneeds.push(c);
                    }
                } else if !rneeds.contains(&(c - lwidth)) {
                    rneeds.push(c - lwidth);
                }
            };
            for &c in required {
                need(c);
            }
            for k in left_keys.iter() {
                for c in k.referenced_columns() {
                    need(c);
                }
            }
            for k in right_keys.iter() {
                for c in k.referenced_columns() {
                    need(c + lwidth);
                }
            }
            if let Some(r) = &residual {
                for c in r.referenced_columns() {
                    need(c);
                }
            }
            lneeds.sort_unstable();
            rneeds.sort_unstable();
            let new_left = prune_to(*left, &lneeds);
            let new_right = prune_to(*right, &rneeds);
            let lpos = |c: usize| lneeds.iter().position(|&x| x == c).expect("left col");
            let rpos = |c: usize| rneeds.iter().position(|&x| x == c).expect("right col");
            let joint = |c: usize| {
                if c < lwidth {
                    lpos(c)
                } else {
                    lneeds.len() + rpos(c - lwidth)
                }
            };
            let joined = LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                left_keys: left_keys.iter().map(|k| k.remap_columns(&lpos)).collect(),
                right_keys: right_keys.iter().map(|k| k.remap_columns(&rpos)).collect(),
                residual: residual.map(|r| r.remap_columns(&joint)),
            };
            // Output of the pruned join, in old flat indices:
            let produced: Vec<usize> = lneeds
                .iter()
                .copied()
                .chain(rneeds.iter().map(|&c| c + lwidth))
                .collect();
            narrow(joined, required, &produced)
        }
        LogicalPlan::Cross { left, right } => {
            let lwidth = left.schema().len();
            let mut lneeds: Vec<usize> = Vec::new();
            let mut rneeds: Vec<usize> = Vec::new();
            for &c in required {
                if c < lwidth {
                    if !lneeds.contains(&c) {
                        lneeds.push(c);
                    }
                } else if !rneeds.contains(&(c - lwidth)) {
                    rneeds.push(c - lwidth);
                }
            }
            lneeds.sort_unstable();
            rneeds.sort_unstable();
            let crossed = LogicalPlan::Cross {
                left: Box::new(prune_to(*left, &lneeds)),
                right: Box::new(prune_to(*right, &rneeds)),
            };
            let produced: Vec<usize> = lneeds
                .iter()
                .copied()
                .chain(rneeds.iter().map(|&c| c + lwidth))
                .collect();
            narrow(crossed, required, &produced)
        }
        LogicalPlan::Aggregate { input, group, aggs } => {
            // Group keys always stay (they define the groups); unused
            // aggregates are dropped.
            let n_group = group.len();
            let kept_aggs: Vec<(usize, AggSpec)> = aggs
                .into_iter()
                .enumerate()
                .filter(|(i, _)| required.contains(&(n_group + i)))
                .collect();
            let mut needs: Vec<usize> = Vec::new();
            for (e, _) in &group {
                for c in e.referenced_columns() {
                    if !needs.contains(&c) {
                        needs.push(c);
                    }
                }
            }
            for (_, a) in &kept_aggs {
                if let Some(e) = &a.arg {
                    for c in e.referenced_columns() {
                        if !needs.contains(&c) {
                            needs.push(c);
                        }
                    }
                }
            }
            needs.sort_unstable();
            let inner = prune_to(*input, &needs);
            let pos = |c: usize| needs.iter().position(|&x| x == c).expect("agg col");
            let produced: Vec<usize> = (0..n_group)
                .chain(kept_aggs.iter().map(|(i, _)| n_group + i))
                .collect();
            let agg = LogicalPlan::Aggregate {
                input: Box::new(inner),
                group: group
                    .into_iter()
                    .map(|(e, n)| (e.remap_columns(&pos), n))
                    .collect(),
                aggs: kept_aggs
                    .into_iter()
                    .map(|(_, a)| AggSpec {
                        func: a.func,
                        arg: a.arg.map(|e| e.remap_columns(&pos)),
                        name: a.name,
                    })
                    .collect(),
            };
            narrow(agg, required, &produced)
        }
        LogicalPlan::Sort { input, keys } => {
            let mut needs: Vec<usize> = required.to_vec();
            for (k, _) in &keys {
                if !needs.contains(k) {
                    needs.push(*k);
                }
            }
            needs.sort_unstable();
            let inner = prune_to(*input, &needs);
            let pos = |c: usize| needs.iter().position(|&x| x == c).expect("sort col");
            let sorted = LogicalPlan::Sort {
                input: Box::new(inner),
                keys: keys.into_iter().map(|(k, asc)| (pos(k), asc)).collect(),
            };
            narrow(sorted, required, &needs)
        }
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(prune_to(*input, required)),
            n,
        },
        // DISTINCT semantics depend on the exact column set: narrow first.
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(prune_to(*input, required)),
        },
        LogicalPlan::ConstRow { exprs } => LogicalPlan::ConstRow {
            exprs: required.iter().map(|&i| exprs[i].clone()).collect(),
        },
    }
}

/// If `produced` (old indices, in output order) differs from `required`,
/// add a narrowing column-only Project.
fn narrow(plan: LogicalPlan, required: &[usize], produced: &[usize]) -> LogicalPlan {
    if produced == required {
        return plan;
    }
    let schema = plan.schema();
    let exprs: Vec<(ScalarExpr, String)> = required
        .iter()
        .map(|&want| {
            let at = produced
                .iter()
                .position(|&p| p == want)
                .expect("required column was collected into needs");
            (
                ScalarExpr::Column {
                    index: at,
                    ty: schema.columns[at].ty,
                },
                schema.columns[at].name.clone(),
            )
        })
        .collect();
    LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::resolve::bind_query;
    use crate::schema::{Schema, StaticProvider};
    use datacell_bat::types::DataType;

    fn provider() -> StaticProvider {
        StaticProvider::new().with_table(
            "t",
            Schema::new(vec![
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Float),
                ("c".into(), DataType::Str),
                ("d".into(), DataType::Int),
            ]),
        )
    }

    fn plan(sql: &str) -> LogicalPlan {
        let stmt = parse(sql).unwrap();
        let q = match stmt {
            crate::ast::Statement::Select(q) => q,
            _ => unreachable!(),
        };
        optimize(bind_query(&q, &provider()).unwrap())
    }

    #[test]
    fn shared_prefix_extracts_single_consuming_scan() {
        let p = StaticProvider::new()
            .with_basket(
                "r",
                Schema::new(vec![
                    ("a".into(), DataType::Int),
                    ("b".into(), DataType::Int),
                ]),
            )
            .with_basket("r2", Schema::new(vec![("a".into(), DataType::Int)]));
        let bound = |sql: &str| {
            let stmt = parse(sql).unwrap();
            match stmt {
                crate::ast::Statement::Select(q) => bind_query(&q, &p).unwrap(),
                other => panic!("expected SELECT, got {other:?}"),
            }
        };

        // Identical basket expressions → equal prefixes (and fingerprints).
        let q1 = bound("select s.a + 1 as x from [select * from r where r.b < 20] as s");
        let q2 = bound("select s.a * 2 as y from [select * from r where r.b < 20] as s");
        let p1 = shared_prefix(&q1).expect("single consuming scan");
        let p2 = shared_prefix(&q2).expect("single consuming scan");
        assert_eq!(p1, p2);
        assert_eq!(p1.fingerprint(), p2.fingerprint());
        assert!(matches!(
            &p1,
            LogicalPlan::Scan {
                consume: true,
                predicate: Some(_),
                ..
            }
        ));

        // Different predicate windows must not compare equal.
        let q3 = bound("select s.a from [select * from r where r.b < 30] as s");
        assert_ne!(p1, shared_prefix(&q3).unwrap());

        // No consuming scan → nothing to share.
        assert!(shared_prefix(&plan("select a from t")).is_none());

        // Two consuming scans → refuse to share.
        let joined = bound("select * from [select r.a from r join r2 on r.a = r2.a] as s");
        assert!(shared_prefix(&joined).is_none());

        // Windowed scans → refuse to share (served by the windowed
        // evaluator, not a shared head factory).
        let windowed = bound("select r.a from r [rows 10]");
        assert!(shared_prefix(&windowed).is_none());
        let window_join = bound("select r.a from r [range 10s], r2 [range 5s] where r.a = r2.a");
        assert!(shared_prefix(&window_join).is_none());
    }

    fn scans(plan: &LogicalPlan) -> Vec<LogicalPlan> {
        let mut out = Vec::new();
        plan.walk(&mut |p| {
            if matches!(p, LogicalPlan::Scan { .. }) {
                out.push(p.clone());
            }
        });
        out
    }

    #[test]
    fn retarget_rewrites_only_the_consuming_scan() {
        // The basket `r` is read twice: consumed through a predicate
        // window, and inspected as a plain table (§2.6) on the join side.
        let p = StaticProvider::new().with_basket(
            "r",
            Schema::new(vec![
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Int),
            ]),
        );
        let q = match parse(
            "select s.a, t.b from [select * from r where r.b < 20] as s \
             join r t on s.a = t.a where t.b > 5",
        )
        .unwrap()
        {
            crate::ast::Statement::Select(q) => q,
            other => panic!("expected SELECT, got {other:?}"),
        };
        let before = optimize(bind_query(&q, &p).unwrap());
        let after = retarget(before.clone(), "r", "mid");
        assert_eq!(after.schema(), before.schema());

        let (old, new) = (scans(&before), scans(&after));
        assert_eq!(old.len(), 2, "{}", before.display());
        let mut rewritten = 0;
        for (o, n) in old.iter().zip(&new) {
            match (o, n) {
                (
                    LogicalPlan::Scan {
                        table,
                        consume: true,
                        predicate: Some(_),
                        schema,
                        projection,
                        window,
                    },
                    LogicalPlan::Scan {
                        table: new_table,
                        consume: true,
                        predicate: None,
                        schema: new_schema,
                        projection: new_projection,
                        window: new_window,
                    },
                ) => {
                    assert_eq!((table.as_str(), new_table.as_str()), ("r", "mid"));
                    assert_eq!(schema, new_schema);
                    assert_eq!(projection, new_projection);
                    assert!(projection.is_some(), "pruning narrowed the scan");
                    assert_eq!(window, new_window);
                    rewritten += 1;
                }
                (o, n) => {
                    assert!(matches!(
                        o,
                        LogicalPlan::Scan {
                            consume: false,
                            predicate: Some(_),
                            ..
                        }
                    ));
                    assert_eq!(o, n, "a non-consuming scan of r is untouched");
                }
            }
        }
        assert_eq!(rewritten, 1);

        // A basket the plan does not consume: nothing changes.
        assert_eq!(retarget(before.clone(), "other", "mid"), before);
    }

    #[test]
    fn constant_folding() {
        let p = plan("select 1 + 2 * 3 as x");
        match p {
            LogicalPlan::ConstRow { exprs } => {
                assert_eq!(exprs[0].0, ScalarExpr::Literal(Value::Int(7)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fold_preserves_types_across_plan() {
        let p = plan("select a + (1 + 1) from t");
        let schema = p.schema();
        assert_eq!(schema.columns[0].ty, DataType::Int);
    }

    #[test]
    fn where_true_removed() {
        let p = plan("select a from t where 1 = 1");
        let mut filters = 0;
        p.walk(&mut |n| {
            if matches!(n, LogicalPlan::Filter { .. }) {
                filters += 1;
            }
            if let LogicalPlan::Scan { predicate, .. } = n {
                assert!(predicate.is_none(), "constant predicate not eliminated");
            }
        });
        assert_eq!(filters, 0, "{}", p.display());
    }

    #[test]
    fn where_false_becomes_limit_zero() {
        // The pushdown at bind time keeps constant predicates out of scans,
        // so fold → Literal(false) → Limit 0.
        let p = plan("select a from t where 1 = 2");
        let mut saw_limit0 = false;
        p.walk(&mut |n| {
            if matches!(n, LogicalPlan::Limit { n: 0, .. }) {
                saw_limit0 = true;
            }
        });
        assert!(saw_limit0, "{}", p.display());
    }

    #[test]
    fn scan_pruned_to_used_columns() {
        let p = plan("select b from t where a > 1");
        let mut projection = None;
        p.walk(&mut |n| {
            if let LogicalPlan::Scan { projection: pr, .. } = n {
                projection = pr.clone();
            }
        });
        // Scan keeps full-schema predicate but outputs only column b (1).
        assert_eq!(projection, Some(vec![1]), "{}", p.display());
    }

    #[test]
    fn join_sides_pruned() {
        let p2 = StaticProvider::new()
            .with_table(
                "l",
                Schema::new(vec![
                    ("k".into(), DataType::Int),
                    ("x".into(), DataType::Int),
                    ("pad1".into(), DataType::Str),
                ]),
            )
            .with_table(
                "r",
                Schema::new(vec![
                    ("k".into(), DataType::Int),
                    ("y".into(), DataType::Int),
                    ("pad2".into(), DataType::Str),
                ]),
            );
        let stmt = parse("select l.x, r.y from l join r on l.k = r.k").unwrap();
        let q = match stmt {
            crate::ast::Statement::Select(q) => q,
            _ => unreachable!(),
        };
        let p = optimize(bind_query(&q, &p2).unwrap());
        let mut projections = Vec::new();
        p.walk(&mut |n| {
            if let LogicalPlan::Scan { projection, .. } = n {
                projections.push(projection.clone());
            }
        });
        // Both sides read only {k, x} / {k, y}, not the pad columns.
        assert_eq!(projections.len(), 2);
        for pr in projections {
            assert_eq!(pr, Some(vec![0, 1]));
        }
    }

    #[test]
    fn unused_aggregates_dropped() {
        // Bind a query with two aggs, then prune to only the first output.
        let stmt = parse("select a, sum(b) as s, count(*) as n from t group by a").unwrap();
        let q = match stmt {
            crate::ast::Statement::Select(q) => q,
            _ => unreachable!(),
        };
        let bound = bind_query(&q, &provider()).unwrap();
        // Prune to group key + first agg only.
        let pruned = prune_to(bound, &[0, 1]);
        let mut agg_count = None;
        pruned.walk(&mut |n| {
            if let LogicalPlan::Aggregate { aggs, .. } = n {
                agg_count = Some(aggs.len());
            }
        });
        assert_eq!(agg_count, Some(1));
    }

    #[test]
    fn optimized_plan_schema_unchanged() {
        for sql in [
            "select a, b from t where a > 1 and c = 'x'",
            "select a + 1 as e, b from t order by e limit 3",
            "select a, sum(d) as s from t group by a having sum(d) > 0",
            "select distinct c from t",
        ] {
            let stmt = parse(sql).unwrap();
            let q = match stmt {
                crate::ast::Statement::Select(q) => q,
                _ => unreachable!(),
            };
            let bound = bind_query(&q, &provider()).unwrap();
            let before = bound.schema();
            let after = optimize(bound).schema();
            assert_eq!(before, after, "schema changed for {sql}");
        }
    }

    use datacell_bat::types::Value;
}
