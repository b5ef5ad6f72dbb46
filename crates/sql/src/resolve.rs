//! Name resolution and semantic analysis: AST → [`LogicalPlan`].
//!
//! Binding also performs the rewrites that give DataCell its semantics:
//!
//! * **basket expressions** become consuming [`LogicalPlan::Scan`]s with the
//!   predicate window fused in, so consumption (which tuples get removed)
//!   is decided by exactly the predicate the user wrote (§2.6);
//! * single-relation WHERE conjuncts are pushed into their scans at bind
//!   time (classic predicate pushdown — "reuse the optimizer", §1);
//! * equi-join conditions are extracted into hash-join keys; the rest stays
//!   as residual predicates.

use datacell_bat::aggregate::AggFunc;
use datacell_bat::calc::ArithOp;
use datacell_bat::select::CmpOp;
use datacell_bat::types::{DataType, Value};

use crate::ast::{self, BinaryOp, Expr, Join, JoinKind, Query, SelectItem, TableRef, TableSource};
use crate::error::{Result, SqlError};
use crate::expr::{ScalarExpr, ScalarFunc};
use crate::logical::{AggSpec, LogicalPlan};
use crate::schema::{Schema, SchemaProvider};

/// Bind a full query against the catalog, producing a logical plan.
pub fn bind_query(query: &Query, provider: &dyn SchemaProvider) -> Result<LogicalPlan> {
    Binder { provider }.query(query, false)
}

/// Bind the VALUES rows of an INSERT against the target schema, evaluating
/// the (constant) expressions and coercing to column types.
pub fn bind_insert_rows(
    rows: &[Vec<Expr>],
    columns: Option<&[String]>,
    schema: &Schema,
) -> Result<Vec<Vec<Value>>> {
    // Map provided columns (or all, in order) to schema positions.
    let target: Vec<usize> = match columns {
        None => (0..schema.len()).collect(),
        Some(names) => names
            .iter()
            .map(|n| {
                schema
                    .index_of(n)
                    .ok_or_else(|| SqlError::Bind(format!("unknown column {n} in INSERT")))
            })
            .collect::<Result<_>>()?,
    };
    let scope = Scope::default();
    let binder_provider = crate::schema::StaticProvider::new();
    let binder = Binder {
        provider: &binder_provider,
    };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != target.len() {
            return Err(SqlError::Bind(format!(
                "INSERT row has {} values, expected {}",
                row.len(),
                target.len()
            )));
        }
        let mut full = vec![Value::Nil; schema.len()];
        for (expr, &pos) in row.iter().zip(&target) {
            let bound = binder.expr(expr, &scope)?;
            if !bound.is_constant() {
                return Err(SqlError::Bind(
                    "INSERT values must be constant expressions".into(),
                ));
            }
            let v = bound.eval_row(&[])?;
            let ty = schema.columns[pos].ty;
            let coerced = if v.is_nil() {
                Value::Nil
            } else {
                v.coerce_to(ty).ok_or_else(|| {
                    SqlError::Type(format!(
                        "cannot store {v:?} into column {} of type {ty}",
                        schema.columns[pos].name
                    ))
                })?
            };
            full[pos] = coerced;
        }
        out.push(full);
    }
    Ok(out)
}

/// One visible relation during binding.
#[derive(Debug, Clone)]
struct Relation {
    alias: Option<String>,
    schema: Schema,
}

/// The set of relations visible to expressions, with flat column offsets.
#[derive(Debug, Clone, Default)]
struct Scope {
    relations: Vec<Relation>,
}

impl Scope {
    fn push(&mut self, alias: Option<String>, schema: Schema) {
        self.relations.push(Relation { alias, schema });
    }

    fn flat_len(&self) -> usize {
        self.relations.iter().map(|r| r.schema.len()).sum()
    }

    /// Resolve `qualifier.name` to (flat index, type).
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<(usize, DataType)> {
        let mut found: Option<(usize, DataType)> = None;
        let mut offset = 0usize;
        for rel in &self.relations {
            let matches_rel = match qualifier {
                None => true,
                Some(q) => rel.alias.as_deref() == Some(q),
            };
            if matches_rel {
                if let Some(i) = rel.schema.index_of(name) {
                    if found.is_some() {
                        return Err(SqlError::Bind(format!("ambiguous column {name}")));
                    }
                    found = Some((offset + i, rel.schema.columns[i].ty));
                }
            }
            offset += rel.schema.len();
        }
        found.ok_or_else(|| {
            let full = match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            };
            SqlError::Bind(format!("unknown column {full}"))
        })
    }

    /// Flat (offset, schema) of relation with alias `q`.
    fn relation_range(&self, q: &str) -> Option<(usize, &Schema)> {
        let mut offset = 0usize;
        for rel in &self.relations {
            if rel.alias.as_deref() == Some(q) {
                return Some((offset, &rel.schema));
            }
            offset += rel.schema.len();
        }
        None
    }
}

struct Binder<'a> {
    provider: &'a dyn SchemaProvider,
}

impl Binder<'_> {
    // ---------------- query pipeline ----------------

    fn query(&self, q: &Query, consume_scans: bool) -> Result<LogicalPlan> {
        // SELECT without FROM: a single constant row.
        if q.from.is_empty() {
            return self.const_row(q);
        }

        // 1. FROM clause.
        let (mut plan, scope) = self.bind_from(&q.from, consume_scans)?;

        // 2. WHERE: split conjuncts, push single-leaf ones into scans.
        if let Some(where_ast) = &q.where_clause {
            let pred = self.expr_bool(where_ast, &scope, "WHERE")?;
            plan = push_predicate(plan, pred)?;
        }

        // 3. Aggregation?
        let has_agg = !q.group_by.is_empty()
            || q.items.iter().any(|it| match it {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
            || q.having.as_ref().is_some_and(Expr::contains_aggregate);

        let (mut plan, bound_items): (LogicalPlan, Vec<(ScalarExpr, String)>) = if has_agg {
            self.bind_aggregate_query(q, plan, &scope)?
        } else {
            if q.having.is_some() {
                return Err(SqlError::Bind(
                    "HAVING requires GROUP BY or aggregates".into(),
                ));
            }
            let items = self.bind_items(&q.items, &scope)?;
            (plan, items)
        };

        // 4. Projection.
        let projected_exprs = bound_items.clone();
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: bound_items,
        };
        let out_schema = plan.schema();

        // 5. DISTINCT.
        if q.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }

        // 6. ORDER BY over the output schema.
        if !q.order_by.is_empty() {
            let mut keys = Vec::new();
            for k in &q.order_by {
                let idx =
                    self.resolve_order_key(&k.expr, &out_schema, &projected_exprs, &scope, q)?;
                keys.push((idx, k.asc));
            }
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }

        // 7. LIMIT.
        if let Some(n) = q.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    fn const_row(&self, q: &Query) -> Result<LogicalPlan> {
        if q.where_clause.is_some() || !q.group_by.is_empty() || q.having.is_some() {
            return Err(SqlError::Bind(
                "WHERE/GROUP BY/HAVING require a FROM clause".into(),
            ));
        }
        let scope = Scope::default();
        let mut exprs = Vec::new();
        for (i, item) in q.items.iter().enumerate() {
            match item {
                SelectItem::Expr { expr, alias } => {
                    let bound = self.expr(expr, &scope)?;
                    let name = alias.clone().unwrap_or_else(|| derive_name(expr, i));
                    exprs.push((bound, name));
                }
                _ => return Err(SqlError::Bind("wildcard requires a FROM clause".into())),
            }
        }
        Ok(LogicalPlan::ConstRow { exprs })
    }

    // ---------------- FROM ----------------

    fn bind_from(&self, from: &[TableRef], consume_scans: bool) -> Result<(LogicalPlan, Scope)> {
        let mut plan: Option<LogicalPlan> = None;
        let mut scope = Scope::default();
        for tref in from {
            let (p, alias, schema) = self.bind_source(
                &tref.source,
                tref.alias.clone(),
                tref.window.as_ref(),
                consume_scans,
            )?;
            plan = Some(match plan {
                None => p,
                Some(prev) => LogicalPlan::Cross {
                    left: Box::new(prev),
                    right: Box::new(p),
                },
            });
            scope.push(alias, schema);
            for join in &tref.joins {
                let p = self.bind_join(
                    plan.take().expect("plan set above"),
                    &mut scope,
                    join,
                    consume_scans,
                )?;
                plan = Some(p);
            }
        }
        Ok((plan.expect("FROM not empty"), scope))
    }

    fn bind_source(
        &self,
        source: &TableSource,
        alias: Option<String>,
        window: Option<&ast::WindowSpec>,
        consume_scans: bool,
    ) -> Result<(LogicalPlan, Option<String>, Schema)> {
        match source {
            TableSource::Named(name) => {
                let schema = self
                    .provider
                    .get_schema(name)
                    .ok_or_else(|| SqlError::Bind(format!("unknown table or basket {name}")))?;
                if consume_scans && !self.provider.is_basket(name) {
                    return Err(SqlError::Bind(format!(
                        "basket expressions may only consume baskets; {name} is a table"
                    )));
                }
                if let Some(w) = window {
                    if !self.provider.is_basket(name) {
                        return Err(SqlError::Bind(format!(
                            "window clauses apply to stream baskets; {name} is a table"
                        )));
                    }
                    w.validate().map_err(SqlError::Bind)?;
                }
                // A window clause implies a consuming stream read: the
                // windowed evaluator owns a private reader cursor and
                // advances it past served tuples.
                let plan = LogicalPlan::Scan {
                    table: name.clone(),
                    schema: schema.clone(),
                    consume: consume_scans || window.is_some(),
                    predicate: None,
                    projection: None,
                    window: window.copied(),
                };
                Ok((plan, alias.or_else(|| Some(name.clone())), schema))
            }
            TableSource::Subquery(sub) => {
                if window.is_some() {
                    return Err(SqlError::Bind(
                        "window clauses apply only to named stream sources".into(),
                    ));
                }
                let alias = alias
                    .ok_or_else(|| SqlError::Bind("derived table requires an alias".into()))?;
                let plan = self.query(sub, false)?;
                let schema = plan.schema();
                Ok((plan, Some(alias), schema))
            }
            TableSource::BasketExpr(sub) => {
                if window.is_some() {
                    return Err(SqlError::Bind(
                        "window clauses apply only to named stream sources".into(),
                    ));
                }
                let alias = alias.ok_or_else(|| {
                    SqlError::Bind("basket expression requires an alias (… as S)".into())
                })?;
                // The whole inner query binds with consuming scans: every
                // tuple its WHERE references is removed from its basket.
                let plan = self.query(sub, true)?;
                let schema = plan.schema();
                Ok((plan, Some(alias), schema))
            }
        }
    }

    fn bind_join(
        &self,
        left: LogicalPlan,
        scope: &mut Scope,
        join: &Join,
        consume_scans: bool,
    ) -> Result<LogicalPlan> {
        let left_width = scope.flat_len();
        let (right, alias, schema) = self.bind_source(
            &join.source,
            join.alias.clone(),
            join.window.as_ref(),
            consume_scans,
        )?;
        scope.push(alias, schema);
        match join.kind {
            JoinKind::Cross => Ok(LogicalPlan::Cross {
                left: Box::new(left),
                right: Box::new(right),
            }),
            JoinKind::Inner => {
                let on_ast = join
                    .on
                    .as_ref()
                    .ok_or_else(|| SqlError::Bind("INNER JOIN requires ON".into()))?;
                let on = self.expr_bool(on_ast, scope, "ON")?;
                build_equi_join(left, right, left_width, on)
            }
        }
    }

    // ---------------- aggregation ----------------

    fn bind_aggregate_query(
        &self,
        q: &Query,
        input: LogicalPlan,
        scope: &Scope,
    ) -> Result<(LogicalPlan, Vec<(ScalarExpr, String)>)> {
        // Bind group keys over the input scope.
        let mut group: Vec<(ScalarExpr, String)> = Vec::new();
        for (i, g) in q.group_by.iter().enumerate() {
            let bound = self.expr(g, scope)?;
            group.push((bound, derive_name(g, i)));
        }

        // Collect aggregate calls from items, HAVING and ORDER BY.
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut collect = |e: &Expr| -> Result<()> {
            let mut res = Ok(());
            e.walk(&mut |node| {
                if res.is_err() {
                    return;
                }
                if let Expr::Function { name, args, star } = node {
                    if ast::is_aggregate_name(name) {
                        res = self.collect_aggregate(name, args, *star, scope, &mut aggs);
                    }
                }
            });
            res
        };
        for item in &q.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect(expr)?;
            }
        }
        if let Some(h) = &q.having {
            collect(h)?;
        }
        for k in &q.order_by {
            collect(&k.expr)?;
        }

        let agg_plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group: group.clone(),
            aggs: aggs.clone(),
        };

        // Rebind items/HAVING over the aggregate output.
        let ctx = AggContext {
            binder: self,
            scope,
            group: &group,
            aggs: &aggs,
        };
        let mut plan = agg_plan;
        if let Some(h) = &q.having {
            let pred = ctx.rebind(h)?;
            if pred.data_type() != DataType::Bool {
                return Err(SqlError::Type("HAVING must be boolean".into()));
            }
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: pred,
            };
        }
        let mut items = Vec::new();
        for (i, item) in q.items.iter().enumerate() {
            match item {
                SelectItem::Expr { expr, alias } => {
                    let bound = ctx.rebind(expr)?;
                    let name = alias.clone().unwrap_or_else(|| derive_name(expr, i));
                    items.push((bound, name));
                }
                _ => {
                    return Err(SqlError::Bind(
                        "wildcards are not allowed with GROUP BY / aggregates".into(),
                    ))
                }
            }
        }
        Ok((plan, items))
    }

    fn collect_aggregate(
        &self,
        name: &str,
        args: &[Expr],
        star: bool,
        scope: &Scope,
        aggs: &mut Vec<AggSpec>,
    ) -> Result<()> {
        let func = agg_func_by_name(name, star)?;
        let arg = if star {
            None
        } else {
            if args.len() != 1 {
                return Err(SqlError::Bind(format!(
                    "aggregate {name} takes exactly one argument"
                )));
            }
            if args[0].contains_aggregate() {
                return Err(SqlError::Bind("nested aggregates are not allowed".into()));
            }
            let bound = self.expr(&args[0], scope)?;
            if !matches!(func, AggFunc::Count { .. } | AggFunc::Min | AggFunc::Max)
                && !bound.data_type().is_numeric()
            {
                return Err(SqlError::Type(format!(
                    "aggregate {name} requires a numeric argument, got {}",
                    bound.data_type()
                )));
            }
            Some(bound)
        };
        if !aggs.iter().any(|a| a.func == func && a.arg == arg) {
            let agg_name = format!("{}_{}", name, aggs.len());
            aggs.push(AggSpec {
                func,
                arg,
                name: agg_name,
            });
        }
        Ok(())
    }

    // ---------------- items & order keys ----------------

    fn bind_items(&self, items: &[SelectItem], scope: &Scope) -> Result<Vec<(ScalarExpr, String)>> {
        let mut out = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    let mut offset = 0usize;
                    for rel in &scope.relations {
                        for (j, col) in rel.schema.columns.iter().enumerate() {
                            out.push((
                                ScalarExpr::Column {
                                    index: offset + j,
                                    ty: col.ty,
                                },
                                col.name.clone(),
                            ));
                        }
                        offset += rel.schema.len();
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let (offset, schema) = scope
                        .relation_range(q)
                        .ok_or_else(|| SqlError::Bind(format!("unknown relation {q} in {q}.*")))?;
                    for (j, col) in schema.columns.iter().enumerate() {
                        out.push((
                            ScalarExpr::Column {
                                index: offset + j,
                                ty: col.ty,
                            },
                            col.name.clone(),
                        ));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.expr(expr, scope)?;
                    let name = alias.clone().unwrap_or_else(|| derive_name(expr, i));
                    out.push((bound, name));
                }
            }
        }
        Ok(out)
    }

    fn resolve_order_key(
        &self,
        key: &Expr,
        out_schema: &Schema,
        projected: &[(ScalarExpr, String)],
        scope: &Scope,
        q: &Query,
    ) -> Result<usize> {
        // 1. A (possibly qualified) name matching an output column: the
        //    qualifier is irrelevant once projection has renamed columns,
        //    so `ORDER BY s.a` finds output column `a`.
        if let Expr::Column { name, .. } = key {
            if let Some(i) = out_schema.index_of(name) {
                return Ok(i);
            }
        }
        // 2. An ordinal (ORDER BY 2).
        if let Expr::Literal(Value::Int(n)) = key {
            let idx = *n - 1;
            if idx >= 0 && (idx as usize) < out_schema.len() {
                return Ok(idx as usize);
            }
            return Err(SqlError::Bind(format!("ORDER BY ordinal {n} out of range")));
        }
        // 3. Structural match against a projected expression.
        let has_agg = !q.group_by.is_empty()
            || projected.is_empty()
            || q.items.iter().any(|it| match it {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            });
        let bound = if has_agg && !q.group_by.is_empty() {
            // Aggregate context: rebind over agg output. Rebuilding the agg
            // context here would duplicate state; instead compare against
            // projected expressions bound the same way — the caller passes
            // those in `projected`.
            None
        } else {
            self.expr(key, scope).ok()
        };
        if let Some(b) = bound {
            if let Some(i) = projected.iter().position(|(e, _)| *e == b) {
                return Ok(i);
            }
        }
        Err(SqlError::Bind(
            "ORDER BY expression must reference an output column (alias, ordinal, or a \
             projected expression)"
                .into(),
        ))
    }

    // ---------------- expressions ----------------

    fn expr_bool(&self, e: &Expr, scope: &Scope, clause: &str) -> Result<ScalarExpr> {
        if e.contains_aggregate() {
            return Err(SqlError::Bind(format!(
                "aggregates are not allowed in {clause}"
            )));
        }
        let bound = self.expr(e, scope)?;
        if bound.data_type() != DataType::Bool {
            return Err(SqlError::Type(format!(
                "{clause} must be boolean, got {}",
                bound.data_type()
            )));
        }
        Ok(bound)
    }

    fn expr(&self, e: &Expr, scope: &Scope) -> Result<ScalarExpr> {
        Ok(match e {
            Expr::Column { qualifier, name } => {
                let (index, ty) = scope.resolve(qualifier.as_deref(), name)?;
                ScalarExpr::Column { index, ty }
            }
            Expr::Literal(v) => ScalarExpr::Literal(v.clone()),
            Expr::Binary { op, left, right } => {
                let l = self.expr(left, scope)?;
                let r = self.expr(right, scope)?;
                self.bind_binary(*op, l, r)?
            }
            Expr::Neg(inner) => {
                let b = self.expr(inner, scope)?;
                if !b.data_type().is_numeric() {
                    return Err(SqlError::Type(format!("cannot negate {}", b.data_type())));
                }
                ScalarExpr::Neg(Box::new(b))
            }
            Expr::Not(inner) => {
                let b = self.expr(inner, scope)?;
                if b.data_type() != DataType::Bool {
                    return Err(SqlError::Type("NOT requires a boolean".into()));
                }
                ScalarExpr::Not(Box::new(b))
            }
            Expr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(self.expr(expr, scope)?),
                negated: *negated,
            },
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let e = self.expr(expr, scope)?;
                let lo = self.expr(lo, scope)?;
                let hi = self.expr(hi, scope)?;
                let ge = self.bind_cmp(CmpOp::Ge, e.clone(), lo)?;
                let le = self.bind_cmp(CmpOp::Le, e, hi)?;
                let both = ScalarExpr::And(Box::new(ge), Box::new(le));
                if *negated {
                    ScalarExpr::Not(Box::new(both))
                } else {
                    both
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let e = self.expr(expr, scope)?;
                let mut result: Option<ScalarExpr> = None;
                for item in list {
                    let rhs = self.expr(item, scope)?;
                    let eq = self.bind_cmp(CmpOp::Eq, e.clone(), rhs)?;
                    result = Some(match result {
                        None => eq,
                        Some(prev) => ScalarExpr::Or(Box::new(prev), Box::new(eq)),
                    });
                }
                let any = result.ok_or_else(|| SqlError::Bind("IN list cannot be empty".into()))?;
                if *negated {
                    ScalarExpr::Not(Box::new(any))
                } else {
                    any
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let b = self.expr(expr, scope)?;
                if b.data_type() != DataType::Str {
                    return Err(SqlError::Type("LIKE requires a string operand".into()));
                }
                ScalarExpr::Like {
                    expr: Box::new(b),
                    pattern: pattern.clone(),
                    negated: *negated,
                }
            }
            Expr::Function { name, args, star } => {
                if ast::is_aggregate_name(name) {
                    return Err(SqlError::Bind(format!(
                        "aggregate {name} is not allowed in this context"
                    )));
                }
                if *star {
                    return Err(SqlError::Bind("only count(*) may use *".into()));
                }
                let func = ScalarFunc::by_name(name)
                    .ok_or_else(|| SqlError::Bind(format!("unknown function {name}")))?;
                if args.len() != func.arity() {
                    return Err(SqlError::Bind(format!(
                        "function {name} takes {} argument(s), got {}",
                        func.arity(),
                        args.len()
                    )));
                }
                let bound: Vec<ScalarExpr> = args
                    .iter()
                    .map(|a| self.expr(a, scope))
                    .collect::<Result<_>>()?;
                let tys: Vec<DataType> = bound.iter().map(ScalarExpr::data_type).collect();
                self.check_func_types(func, &tys)?;
                let ty = func.output_type(&tys);
                ScalarExpr::Func {
                    func,
                    args: bound,
                    ty,
                }
            }
            Expr::Case {
                when_then,
                else_expr,
            } => {
                let mut arms = Vec::new();
                let mut result_ty: Option<DataType> = None;
                for (c, r) in when_then {
                    let cond = self.expr(c, scope)?;
                    if cond.data_type() != DataType::Bool {
                        return Err(SqlError::Type("CASE WHEN condition must be boolean".into()));
                    }
                    let res = self.expr(r, scope)?;
                    result_ty = unify_result(result_ty, res.data_type())?;
                    arms.push((cond, res));
                }
                let else_bound = match else_expr {
                    None => None,
                    Some(e) => {
                        let b = self.expr(e, scope)?;
                        result_ty = unify_result(result_ty, b.data_type())?;
                        Some(b)
                    }
                };
                let ty = result_ty.ok_or_else(|| SqlError::Bind("empty CASE".into()))?;
                // Coerce arms whose type differs from the unified type.
                let coerce = |e: ScalarExpr| -> ScalarExpr {
                    if e.data_type() != ty {
                        ScalarExpr::Cast {
                            expr: Box::new(e),
                            ty,
                        }
                    } else {
                        e
                    }
                };
                ScalarExpr::Case {
                    when_then: arms.into_iter().map(|(c, r)| (c, coerce(r))).collect(),
                    else_expr: else_bound.map(|e| Box::new(coerce(e))),
                    ty,
                }
            }
            Expr::Cast { expr, ty } => ScalarExpr::Cast {
                expr: Box::new(self.expr(expr, scope)?),
                ty: *ty,
            },
        })
    }

    fn bind_binary(&self, op: BinaryOp, l: ScalarExpr, r: ScalarExpr) -> Result<ScalarExpr> {
        match op {
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                let (lt, rt) = (l.data_type(), r.data_type());
                if !lt.is_numeric() && lt != DataType::Timestamp {
                    return Err(SqlError::Type(format!("arithmetic on {lt}")));
                }
                if !rt.is_numeric() && rt != DataType::Timestamp {
                    return Err(SqlError::Type(format!("arithmetic on {rt}")));
                }
                let aop = match op {
                    BinaryOp::Add => ArithOp::Add,
                    BinaryOp::Sub => ArithOp::Sub,
                    BinaryOp::Mul => ArithOp::Mul,
                    BinaryOp::Div => ArithOp::Div,
                    _ => ArithOp::Mod,
                };
                let ty = if lt == DataType::Float || rt == DataType::Float {
                    DataType::Float
                } else {
                    DataType::Int
                };
                Ok(ScalarExpr::Arith {
                    op: aop,
                    left: Box::new(l),
                    right: Box::new(r),
                    ty,
                })
            }
            BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge => {
                let cop = match op {
                    BinaryOp::Eq => CmpOp::Eq,
                    BinaryOp::Ne => CmpOp::Ne,
                    BinaryOp::Lt => CmpOp::Lt,
                    BinaryOp::Le => CmpOp::Le,
                    BinaryOp::Gt => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                self.bind_cmp(cop, l, r)
            }
            BinaryOp::And => {
                self.require_bool(&l, "AND")?;
                self.require_bool(&r, "AND")?;
                Ok(ScalarExpr::And(Box::new(l), Box::new(r)))
            }
            BinaryOp::Or => {
                self.require_bool(&l, "OR")?;
                self.require_bool(&r, "OR")?;
                Ok(ScalarExpr::Or(Box::new(l), Box::new(r)))
            }
        }
    }

    fn bind_cmp(&self, op: CmpOp, l: ScalarExpr, r: ScalarExpr) -> Result<ScalarExpr> {
        let (lt, rt) = (l.data_type(), r.data_type());
        let nil_side = matches!(l, ScalarExpr::Literal(Value::Nil))
            || matches!(r, ScalarExpr::Literal(Value::Nil));
        if !nil_side && lt.unify(rt).is_none() {
            return Err(SqlError::Type(format!("cannot compare {lt} with {rt}")));
        }
        Ok(ScalarExpr::Cmp {
            op,
            left: Box::new(l),
            right: Box::new(r),
        })
    }

    fn require_bool(&self, e: &ScalarExpr, ctx: &str) -> Result<()> {
        if e.data_type() != DataType::Bool {
            return Err(SqlError::Type(format!(
                "{ctx} requires boolean operands, got {}",
                e.data_type()
            )));
        }
        Ok(())
    }

    fn check_func_types(&self, func: ScalarFunc, tys: &[DataType]) -> Result<()> {
        let ok = match func {
            ScalarFunc::Abs | ScalarFunc::Floor | ScalarFunc::Ceil | ScalarFunc::Round => {
                tys[0].is_numeric()
            }
            ScalarFunc::Length | ScalarFunc::Lower | ScalarFunc::Upper => tys[0] == DataType::Str,
            ScalarFunc::Least | ScalarFunc::Greatest => tys[0].unify(tys[1]).is_some(),
        };
        if ok {
            Ok(())
        } else {
            Err(SqlError::Type(format!(
                "invalid argument types {tys:?} for {func:?}"
            )))
        }
    }
}

/// Context for rebinding expressions over an Aggregate node's output.
struct AggContext<'a> {
    binder: &'a Binder<'a>,
    scope: &'a Scope,
    group: &'a [(ScalarExpr, String)],
    aggs: &'a [AggSpec],
}

impl AggContext<'_> {
    /// Rebind an AST expression over the aggregate output schema
    /// (group keys first, then aggregate results).
    fn rebind(&self, e: &Expr) -> Result<ScalarExpr> {
        // Aggregate call → output column.
        if let Expr::Function { name, args, star } = e {
            if ast::is_aggregate_name(name) {
                let func = agg_func_by_name(name, *star)?;
                let arg = if *star {
                    None
                } else {
                    Some(self.binder.expr(&args[0], self.scope)?)
                };
                let pos = self
                    .aggs
                    .iter()
                    .position(|a| a.func == func && a.arg == arg)
                    .ok_or_else(|| SqlError::Bind(format!("aggregate {name} was not collected")))?;
                let in_ty = arg.map(|a| a.data_type()).unwrap_or(DataType::Int);
                return Ok(ScalarExpr::Column {
                    index: self.group.len() + pos,
                    ty: func.output_type(in_ty),
                });
            }
        }
        // Whole expression equals a group key → its output column.
        if let Ok(bound) = self.binder.expr(e, self.scope) {
            if let Some(pos) = self.group.iter().position(|(g, _)| *g == bound) {
                return Ok(ScalarExpr::Column {
                    index: pos,
                    ty: bound.data_type(),
                });
            }
            // A constant is fine as-is.
            if bound.is_constant() {
                return Ok(bound);
            }
        }
        // Otherwise recurse structurally.
        match e {
            Expr::Column { qualifier, name } => {
                let full = match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.clone(),
                };
                Err(SqlError::Bind(format!(
                    "column {full} must appear in GROUP BY or inside an aggregate"
                )))
            }
            Expr::Literal(v) => Ok(ScalarExpr::Literal(v.clone())),
            Expr::Binary { op, left, right } => {
                let l = self.rebind(left)?;
                let r = self.rebind(right)?;
                self.binder.bind_binary(*op, l, r)
            }
            Expr::Neg(inner) => Ok(ScalarExpr::Neg(Box::new(self.rebind(inner)?))),
            Expr::Not(inner) => Ok(ScalarExpr::Not(Box::new(self.rebind(inner)?))),
            Expr::IsNull { expr, negated } => Ok(ScalarExpr::IsNull {
                expr: Box::new(self.rebind(expr)?),
                negated: *negated,
            }),
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let e = self.rebind(expr)?;
                let lo = self.rebind(lo)?;
                let hi = self.rebind(hi)?;
                let ge = self.binder.bind_cmp(CmpOp::Ge, e.clone(), lo)?;
                let le = self.binder.bind_cmp(CmpOp::Le, e, hi)?;
                let both = ScalarExpr::And(Box::new(ge), Box::new(le));
                Ok(if *negated {
                    ScalarExpr::Not(Box::new(both))
                } else {
                    both
                })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let e = self.rebind(expr)?;
                let mut result: Option<ScalarExpr> = None;
                for item in list {
                    let rhs = self.rebind(item)?;
                    let eq = self.binder.bind_cmp(CmpOp::Eq, e.clone(), rhs)?;
                    result = Some(match result {
                        None => eq,
                        Some(prev) => ScalarExpr::Or(Box::new(prev), Box::new(eq)),
                    });
                }
                let any = result.ok_or_else(|| SqlError::Bind("IN list cannot be empty".into()))?;
                Ok(if *negated {
                    ScalarExpr::Not(Box::new(any))
                } else {
                    any
                })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Ok(ScalarExpr::Like {
                expr: Box::new(self.rebind(expr)?),
                pattern: pattern.clone(),
                negated: *negated,
            }),
            Expr::Function { name, args, .. } => {
                let func = ScalarFunc::by_name(name)
                    .ok_or_else(|| SqlError::Bind(format!("unknown function {name}")))?;
                let bound: Vec<ScalarExpr> =
                    args.iter().map(|a| self.rebind(a)).collect::<Result<_>>()?;
                let tys: Vec<DataType> = bound.iter().map(ScalarExpr::data_type).collect();
                self.binder.check_func_types(func, &tys)?;
                let ty = func.output_type(&tys);
                Ok(ScalarExpr::Func {
                    func,
                    args: bound,
                    ty,
                })
            }
            Expr::Case {
                when_then,
                else_expr,
            } => {
                let mut arms = Vec::new();
                let mut result_ty: Option<DataType> = None;
                for (c, r) in when_then {
                    let cond = self.rebind(c)?;
                    let res = self.rebind(r)?;
                    result_ty = unify_result(result_ty, res.data_type())?;
                    arms.push((cond, res));
                }
                let else_bound = match else_expr {
                    None => None,
                    Some(e) => {
                        let b = self.rebind(e)?;
                        result_ty = unify_result(result_ty, b.data_type())?;
                        Some(Box::new(b))
                    }
                };
                let ty = result_ty.ok_or_else(|| SqlError::Bind("empty CASE".into()))?;
                Ok(ScalarExpr::Case {
                    when_then: arms,
                    else_expr: else_bound,
                    ty,
                })
            }
            Expr::Cast { expr, ty } => Ok(ScalarExpr::Cast {
                expr: Box::new(self.rebind(expr)?),
                ty: *ty,
            }),
        }
    }
}

fn unify_result(acc: Option<DataType>, next: DataType) -> Result<Option<DataType>> {
    match acc {
        None => Ok(Some(next)),
        Some(t) => t
            .unify(next)
            .map(Some)
            .ok_or_else(|| SqlError::Type(format!("CASE arms mix {t} and {next}"))),
    }
}

fn agg_func_by_name(name: &str, star: bool) -> Result<AggFunc> {
    Ok(match name {
        "count" => AggFunc::Count { star },
        "sum" => AggFunc::Sum,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        "avg" => AggFunc::Avg,
        other => return Err(SqlError::Bind(format!("unknown aggregate {other}"))),
    })
}

/// Derive an output name for an unaliased select item.
fn derive_name(e: &Expr, ordinal: usize) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => format!("col{ordinal}"),
    }
}

/// Split a predicate into its AND-ed conjuncts.
pub fn split_conjuncts(e: &ScalarExpr) -> Vec<ScalarExpr> {
    match e {
        ScalarExpr::And(a, b) => {
            let mut out = split_conjuncts(a);
            out.extend(split_conjuncts(b));
            out
        }
        other => vec![other.clone()],
    }
}

/// Re-assemble conjuncts into a single AND tree.
pub fn conjoin(mut preds: Vec<ScalarExpr>) -> Option<ScalarExpr> {
    let first = preds.pop()?;
    Some(
        preds
            .into_iter()
            .rev()
            .fold(first, |acc, p| ScalarExpr::And(Box::new(p), Box::new(acc))),
    )
}

/// Push a bound predicate down into the plan: conjuncts that reference only
/// one leaf scan's columns are fused into that scan (where they also define
/// basket-consumption for consuming scans); an `=` between the two inputs
/// of a cross product, over keys of one non-float type (where the
/// hash-join kernel's equality is exactly the engine's `=`), turns that
/// [`LogicalPlan::Cross`] into a [`LogicalPlan::Join`] keyed on it; the
/// rest become a Filter node.
///
/// Keys go to the narrowest cross product covering both of their sides
/// (the plan is rebuilt innermost-first), so a three-way comma join puts
/// each key on the pair it relates. Rows keep the nested loop's order —
/// left-major, then right ascending — which is also [`hash_join`]'s, and
/// consumption is unchanged because only scans report consumed rows.
///
/// [`hash_join`]: datacell_bat::join::hash_join
pub fn push_predicate(plan: LogicalPlan, pred: ScalarExpr) -> Result<LogicalPlan> {
    // Collect leaf column ranges (left-deep order).
    let mut leaves: Vec<(usize, usize)> = Vec::new(); // (start, len)
    fn collect(plan: &LogicalPlan, offset: &mut usize, leaves: &mut Vec<(usize, usize)>) {
        match plan {
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Cross { left, right } => {
                collect(left, offset, leaves);
                collect(right, offset, leaves);
            }
            other => {
                let len = other.schema().len();
                leaves.push((*offset, len));
                *offset += len;
            }
        }
    }
    let mut off = 0;
    collect(&plan, &mut off, &mut leaves);

    let mut residual: Vec<ScalarExpr> = Vec::new();
    let mut per_leaf: Vec<Vec<ScalarExpr>> = vec![Vec::new(); leaves.len()];
    for conj in split_conjuncts(&pred) {
        let cols = conj.referenced_columns();
        let target = leaves
            .iter()
            .position(|&(start, len)| cols.iter().all(|&c| c >= start && c < start + len));
        match target {
            Some(i) if !cols.is_empty() => {
                let start = leaves[i].0;
                per_leaf[i].push(conj.remap_columns(&|c| c - start));
            }
            _ => residual.push(conj),
        }
    }

    /// What `apply` threads through the plan: the next leaf's ordinal, the
    /// per-leaf predicates, and the conjuncts no leaf took.
    struct Pushdown {
        next: usize,
        per_leaf: Vec<Vec<ScalarExpr>>,
        residual: Vec<ScalarExpr>,
    }

    // Apply per-leaf predicates and join keys; `start` is the first flat
    // column of `plan`.
    fn apply(plan: LogicalPlan, start: usize, st: &mut Pushdown) -> LogicalPlan {
        match plan {
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                residual,
            } => {
                let left_width = left.schema().len();
                let l = apply(*left, start, st);
                let r = apply(*right, start + left_width, st);
                LogicalPlan::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    left_keys,
                    right_keys,
                    residual,
                }
            }
            LogicalPlan::Cross { left, right } => {
                let (left_width, right_width) = (left.schema().len(), right.schema().len());
                let l = apply(*left, start, st);
                let r = apply(*right, start + left_width, st);
                let mid = start + left_width;
                let (mut left_keys, mut right_keys) = (Vec::new(), Vec::new());
                st.residual.retain(|conj| {
                    match equi_key(conj, start..mid, mid..mid + right_width) {
                        Some((lk, rk)) => {
                            left_keys.push(lk);
                            right_keys.push(rk);
                            false
                        }
                        _ => true,
                    }
                });
                if left_keys.is_empty() {
                    LogicalPlan::Cross {
                        left: Box::new(l),
                        right: Box::new(r),
                    }
                } else {
                    LogicalPlan::Join {
                        left: Box::new(l),
                        right: Box::new(r),
                        left_keys,
                        right_keys,
                        residual: None,
                    }
                }
            }
            other => {
                let i = st.next;
                st.next += 1;
                let preds = std::mem::take(&mut st.per_leaf[i]);
                if preds.is_empty() {
                    return other;
                }
                let combined = conjoin(preds).expect("non-empty");
                match other {
                    // Fuse into the scan: required for consuming scans
                    // (defines the predicate window) and a win for others.
                    LogicalPlan::Scan {
                        table,
                        schema,
                        consume,
                        predicate,
                        projection,
                        window,
                    } if projection.is_none() => {
                        let merged = match predicate {
                            None => combined,
                            Some(p) => ScalarExpr::And(Box::new(p), Box::new(combined)),
                        };
                        LogicalPlan::Scan {
                            table,
                            schema,
                            consume,
                            predicate: Some(merged),
                            projection,
                            window,
                        }
                    }
                    node => LogicalPlan::Filter {
                        input: Box::new(node),
                        predicate: combined,
                    },
                }
            }
        }
    }
    let mut st = Pushdown {
        next: 0,
        per_leaf,
        residual,
    };
    let mut plan = apply(plan, 0, &mut st);
    if let Some(res) = conjoin(st.residual) {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: res,
        };
    }
    Ok(plan)
}

/// `conj` as a hash-join key pair for a join whose left input holds the
/// flat columns `left` and whose right input holds `right`: an `=` with one
/// side over left columns only and the other over right columns only, each
/// remapped to its own input, whose key types the kernel compares exactly
/// ([`hash_key_types`]). `JOIN … ON` and comma joins both extract keys
/// here, so the two forms plan the same predicate the same way.
fn equi_key(
    conj: &ScalarExpr,
    left: std::ops::Range<usize>,
    right: std::ops::Range<usize>,
) -> Option<(ScalarExpr, ScalarExpr)> {
    let ScalarExpr::Cmp {
        op: CmpOp::Eq,
        left: a,
        right: b,
    } = conj
    else {
        return None;
    };
    let within = |e: &ScalarExpr, cols: &std::ops::Range<usize>| {
        let refs = e.referenced_columns();
        !refs.is_empty() && refs.iter().all(|c| cols.contains(c))
    };
    let (l, r) = if within(a, &left) && within(b, &right) {
        (a, b)
    } else if within(b, &left) && within(a, &right) {
        (b, a)
    } else {
        return None;
    };
    let (l, r) = (
        l.remap_columns(&|c| c - left.start),
        r.remap_columns(&|c| c - right.start),
    );
    hash_key_types(&l, &r).then_some((l, r))
}

/// Whether the hash-join kernel's key equality *is* the engine's `=` for
/// these keys: both of one type, and not float — the kernel matches `-0.0`
/// with `0.0` while `=` follows `total_cmp`, and a mixed int/float pair
/// would be compared as floats. Nil keys never match on either side.
fn hash_key_types(left: &ScalarExpr, right: &ScalarExpr) -> bool {
    let ty = left.data_type();
    ty == right.data_type() && ty != DataType::Float
}

/// Turn `left × right + ON predicate` into a hash join where possible:
/// equality conjuncts with one side per input become join keys; everything
/// else is a residual predicate evaluated on the concatenated row.
fn build_equi_join(
    left: LogicalPlan,
    right: LogicalPlan,
    left_width: usize,
    on: ScalarExpr,
) -> Result<LogicalPlan> {
    let right_cols = left_width..left_width + right.schema().len();
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual = Vec::new();
    for conj in split_conjuncts(&on) {
        match equi_key(&conj, 0..left_width, right_cols.clone()) {
            Some((lk, rk)) => {
                left_keys.push(lk);
                right_keys.push(rk);
            }
            None => residual.push(conj),
        }
    }
    if left_keys.is_empty() {
        // No equi keys: cross join + filter.
        let plan = LogicalPlan::Cross {
            left: Box::new(left),
            right: Box::new(right),
        };
        return Ok(match conjoin(residual) {
            Some(p) => LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: p,
            },
            None => plan,
        });
    }
    Ok(LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(right),
        left_keys,
        right_keys,
        residual: conjoin(residual),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::schema::StaticProvider;

    fn provider() -> StaticProvider {
        StaticProvider::new()
            .with_table(
                "t",
                Schema::new(vec![
                    ("a".into(), DataType::Int),
                    ("b".into(), DataType::Float),
                    ("c".into(), DataType::Str),
                ]),
            )
            .with_table(
                "u",
                Schema::new(vec![
                    ("k".into(), DataType::Int),
                    ("v".into(), DataType::Int),
                ]),
            )
            .with_basket(
                "r",
                Schema::new(vec![
                    ("a".into(), DataType::Int),
                    ("b".into(), DataType::Int),
                ]),
            )
    }

    fn bind(sql: &str) -> Result<LogicalPlan> {
        let stmt = parse(sql).unwrap();
        match stmt {
            crate::ast::Statement::Select(q) => bind_query(&q, &provider()),
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn simple_select_binds() {
        let plan = bind("select a, b from t where a > 5").unwrap();
        let schema = plan.schema();
        assert_eq!(schema.columns[0].name, "a");
        assert_eq!(schema.columns[1].ty, DataType::Float);
        // Predicate pushed into the scan.
        let mut pushed = false;
        plan.walk(&mut |p| {
            if let LogicalPlan::Scan {
                predicate: Some(_), ..
            } = p
            {
                pushed = true;
            }
        });
        assert!(
            pushed,
            "predicate should be fused into scan:\n{}",
            plan.display()
        );
    }

    #[test]
    fn unknown_names_error() {
        assert!(matches!(bind("select zz from t"), Err(SqlError::Bind(_))));
        assert!(matches!(
            bind("select a from missing"),
            Err(SqlError::Bind(_))
        ));
    }

    #[test]
    fn ambiguity_detected() {
        // `a` exists in both t and r.
        let err = bind("select a from t, r as r2").unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn qualified_columns_resolve() {
        let plan = bind("select t.a, x.k from t, u as x where t.a = x.k").unwrap();
        assert_eq!(plan.schema().len(), 2);
    }

    #[test]
    fn type_errors() {
        assert!(matches!(
            bind("select a + c from t"),
            Err(SqlError::Type(_))
        ));
        assert!(matches!(
            bind("select * from t where a"),
            Err(SqlError::Type(_))
        ));
        // LIKE with a non-string pattern fails already at parse time.
        assert!(parse("select * from t where c like 5").is_err());
        // LIKE on a non-string column is a bind-time type error.
        assert!(matches!(
            bind("select * from t where a like 'x%'"),
            Err(SqlError::Type(_))
        ));
    }

    #[test]
    fn basket_expression_consuming_scan() {
        let plan =
            bind("select * from [select * from r where r.b < 20] as s where s.a > 10").unwrap();
        assert_eq!(plan.consumed_baskets(), vec!["r".to_string()]);
        // The inner predicate must be fused into the consuming scan.
        let mut scan_pred = None;
        plan.walk(&mut |p| {
            if let LogicalPlan::Scan {
                consume: true,
                predicate,
                ..
            } = p
            {
                scan_pred = predicate.clone();
            }
        });
        assert!(scan_pred.is_some(), "{}", plan.display());
    }

    #[test]
    fn basket_expression_on_table_rejected() {
        let err = bind("select * from [select * from t] as s").unwrap_err();
        assert!(err.to_string().contains("baskets"), "{err}");
    }

    #[test]
    fn basket_expression_requires_alias() {
        let err = bind("select * from [select * from r]").unwrap_err();
        assert!(err.to_string().contains("alias"), "{err}");
    }

    #[test]
    fn equi_join_extracted() {
        let plan = bind("select * from t join u on t.a = u.k and t.b > 1.0").unwrap();
        let mut saw_join = false;
        plan.walk(&mut |p| {
            if let LogicalPlan::Join {
                left_keys,
                right_keys,
                ..
            } = p
            {
                saw_join = true;
                assert_eq!(left_keys.len(), 1);
                assert_eq!(right_keys.len(), 1);
            }
        });
        assert!(saw_join, "{}", plan.display());
    }

    #[test]
    fn cross_join_fallback_when_no_equi_keys() {
        let plan = bind("select * from t join u on t.a < u.k").unwrap();
        let mut saw_cross = false;
        plan.walk(&mut |p| {
            if matches!(p, LogicalPlan::Cross { .. }) {
                saw_cross = true;
            }
        });
        assert!(saw_cross, "{}", plan.display());
    }

    #[test]
    fn aggregate_binding() {
        let plan =
            bind("select a, sum(b) as total, count(*) as n from t group by a having sum(b) > 10")
                .unwrap();
        let schema = plan.schema();
        assert_eq!(schema.columns[0].name, "a");
        assert_eq!(schema.columns[1].name, "total");
        assert_eq!(schema.columns[1].ty, DataType::Float);
        assert_eq!(schema.columns[2].ty, DataType::Int);
    }

    #[test]
    fn aggregate_rejects_bare_columns() {
        let err = bind("select a, b from t group by a").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let plan = bind("select count(*), avg(b) from t").unwrap();
        assert_eq!(plan.schema().len(), 2);
    }

    #[test]
    fn order_by_alias_and_ordinal() {
        let plan = bind("select a as x, b from t order by x desc, 2").unwrap();
        let mut keys = None;
        plan.walk(&mut |p| {
            if let LogicalPlan::Sort { keys: k, .. } = p {
                keys = Some(k.clone());
            }
        });
        assert_eq!(keys.unwrap(), vec![(0, false), (1, true)]);
    }

    #[test]
    fn order_by_projected_expression() {
        let plan = bind("select a + 1 from t order by a + 1").unwrap();
        assert!(matches!(plan, LogicalPlan::Sort { .. }));
    }

    #[test]
    fn order_by_unknown_errors() {
        assert!(bind("select a from t order by b").is_err());
        assert!(bind("select a from t order by 5").is_err());
    }

    #[test]
    fn const_row_query() {
        let plan = bind("select 1 + 2 as three, 'x' as s").unwrap();
        match &plan {
            LogicalPlan::ConstRow { exprs } => {
                assert_eq!(exprs.len(), 2);
                assert_eq!(exprs[0].1, "three");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn between_and_in_desugar() {
        let plan = bind("select * from t where a between 1 and 3 or a in (7, 9)").unwrap();
        // No Between/InList survive binding.
        let mut ok = true;
        plan.walk(&mut |p| {
            if let LogicalPlan::Scan {
                predicate: Some(p), ..
            } = p
            {
                p.walk(&mut |e| {
                    if matches!(e, ScalarExpr::Like { .. }) {
                        ok = false;
                    }
                });
            }
        });
        assert!(ok);
    }

    #[test]
    fn insert_rows_bind_and_coerce() {
        let schema = Schema::new(vec![
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Float),
        ]);
        let rows = vec![vec![
            Expr::Literal(Value::Int(1)),
            Expr::Literal(Value::Int(2)),
        ]];
        let bound = bind_insert_rows(&rows, None, &schema).unwrap();
        assert_eq!(bound[0], vec![Value::Int(1), Value::Float(2.0)]);
        // Partial column list: missing columns become NULL.
        let bound = bind_insert_rows(&rows[..], Some(&["b".into(), "a".into()]), &schema).unwrap();
        assert_eq!(bound[0], vec![Value::Int(2), Value::Float(1.0)]);
        // Arity mismatch.
        assert!(bind_insert_rows(&rows, Some(&["a".into()]), &schema).is_err());
    }

    #[test]
    fn windowed_sources_bind_to_consuming_scans() {
        let p = provider().with_basket("r2", Schema::new(vec![("a".into(), DataType::Int)]));
        let stmt = parse("select r.a from r [range 10s slide 5s], r2 [rows 100] where r.a = r2.a")
            .unwrap();
        let q = match stmt {
            crate::ast::Statement::Select(q) => q,
            _ => unreachable!(),
        };
        let plan = bind_query(&q, &p).unwrap();
        let mut consumed = plan.consumed_baskets();
        consumed.sort();
        assert_eq!(consumed, vec!["r".to_string(), "r2".to_string()]);
        let mut windows = Vec::new();
        plan.walk(&mut |pl| {
            if let LogicalPlan::Scan {
                table,
                consume,
                window: Some(w),
                ..
            } = pl
            {
                assert!(*consume, "windowed scans must consume");
                windows.push((table.clone(), *w));
            }
        });
        windows.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            windows,
            vec![
                (
                    "r".to_string(),
                    crate::ast::WindowSpec::Time {
                        size_micros: 10_000_000,
                        slide_micros: 5_000_000,
                    }
                ),
                (
                    "r2".to_string(),
                    crate::ast::WindowSpec::Count {
                        size: 100,
                        slide: 100
                    }
                ),
            ]
        );
    }

    #[test]
    fn window_on_table_rejected() {
        let err = bind("select * from t [range 10s]").unwrap_err();
        assert!(err.to_string().contains("stream baskets"), "{err}");
    }

    #[test]
    fn window_slide_exceeding_size_rejected() {
        let err = bind("select * from r [range 5s slide 10s]").unwrap_err();
        assert!(err.to_string().contains("slide"), "{err}");
    }

    #[test]
    fn window_on_subquery_rejected() {
        // The parser only attaches windows after a source or alias, so the
        // subquery form reaches the binder and must be rejected there.
        let stmt = parse("select * from (select a from t) as s [rows 10]").unwrap();
        let q = match stmt {
            crate::ast::Statement::Select(q) => q,
            _ => unreachable!(),
        };
        let err = bind_query(&q, &provider()).unwrap_err();
        assert!(err.to_string().contains("named stream sources"), "{err}");
    }

    #[test]
    fn multi_basket_join_consumes_both() {
        let p = provider().with_basket("r2", Schema::new(vec![("a".into(), DataType::Int)]));
        let stmt =
            parse("select * from [select r.a from r join r2 on r.a = r2.a where r.b > 0] as s")
                .unwrap();
        let q = match stmt {
            crate::ast::Statement::Select(q) => q,
            _ => unreachable!(),
        };
        let plan = bind_query(&q, &p).unwrap();
        let mut consumed = plan.consumed_baskets();
        consumed.sort();
        assert_eq!(consumed, vec!["r".to_string(), "r2".to_string()]);
    }

    #[test]
    fn distinct_and_limit_nodes() {
        let plan = bind("select distinct a from t limit 10").unwrap();
        assert!(matches!(plan, LogicalPlan::Limit { .. }));
        let mut saw_distinct = false;
        plan.walk(&mut |p| {
            if matches!(p, LogicalPlan::Distinct { .. }) {
                saw_distinct = true;
            }
        });
        assert!(saw_distinct);
    }

    #[test]
    fn case_arm_unification() {
        let plan = bind("select case when a > 0 then 1 when a < 0 then 2.5 else 0 end as v from t")
            .unwrap();
        assert_eq!(plan.schema().columns[0].ty, DataType::Float);
        assert!(matches!(
            bind("select case when a > 0 then 1 else 'x' end from t"),
            Err(SqlError::Type(_))
        ));
    }
}
