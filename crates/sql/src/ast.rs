//! Abstract syntax trees for the supported SQL subset plus DataCell
//! stream extensions.

use datacell_bat::types::{DataType, Value};

/// A parsed top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, ...)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, DataType)>,
    },
    /// `CREATE BASKET name (col type, ...) [CAPACITY n]
    /// [OVERFLOW BLOCK|REJECT|SHED|SPILL n] [PERSISTENT]` — a stream
    /// buffer (§2.2) with optional per-basket storage policy.
    CreateBasket {
        /// Basket name.
        name: String,
        /// Column definitions (a `ts` timestamp column is added implicitly
        /// by the DataCell layer if absent).
        columns: Vec<(String, DataType)>,
        /// Capacity / overflow / durability clauses.
        options: BasketOptions,
    },
    /// `CREATE CONTINUOUS QUERY name AS select` — registers a factory.
    CreateContinuousQuery {
        /// Query (factory) name.
        name: String,
        /// The standing query; must contain ≥1 basket expression.
        query: Query,
    },
    /// `INSERT INTO name [(cols)] VALUES (..), (..)`
    Insert {
        /// Target table/basket.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Row literals.
        rows: Vec<Vec<Expr>>,
    },
    /// `DELETE FROM name [WHERE expr]`
    Delete {
        /// Target table/basket.
        table: String,
        /// Optional predicate; `None` deletes everything.
        predicate: Option<Expr>,
    },
    /// A (possibly continuous) SELECT query.
    Select(Query),
    /// `DROP TABLE name` / `DROP BASKET name` / `DROP CONTINUOUS QUERY name`
    Drop {
        /// What kind of object is dropped.
        kind: DropKind,
        /// Object name.
        name: String,
    },
    /// `PAUSE CONTINUOUS QUERY name` / `RESUME CONTINUOUS QUERY name` —
    /// suspend or re-enable a registered factory without dropping it (the
    /// scheduler skips paused transitions; their baskets keep buffering).
    AlterContinuousQuery {
        /// Query (factory) name.
        name: String,
        /// Pause or resume.
        action: QueryLifecycle,
    },
    /// `SET QUERY WEIGHT name = n` — the query's relative share of
    /// scheduler busy time in the deficit-round-robin ring.
    /// The parser rejects non-positive weights, so `weight ≥ 1` always
    /// holds here (programmatic paths like `QueryHandle::set_weight`
    /// clamp instead).
    SetQueryWeight {
        /// Query (factory) name.
        name: String,
        /// Requested weight.
        weight: u32,
    },
    /// `SET SCHEDULER WORKERS n` — resize the scheduler's execution side:
    /// `1` is the sequential pass loop, more dispatches firings to a
    /// work-stealing worker pool. The parser rejects non-positive counts,
    /// so `workers ≥ 1` always holds here.
    SetSchedulerWorkers {
        /// Requested worker-thread count.
        workers: u32,
    },
    /// `SET PLAN SHARING ON|OFF` — toggle cost-based multi-query plan
    /// sharing: when on, continuous queries whose plans share a common
    /// scan→select→calc prefix over the same basket are rewritten to
    /// consume one shared intermediate basket materialized by a single
    /// head factory.
    SetPlanSharing {
        /// `true` for `ON`, `false` for `OFF`.
        enabled: bool,
    },
    /// `EXPLAIN select` — render the optimized plan.
    Explain(Query),
    /// `EXPLAIN ANALYZE select` — run the plan over the current contents
    /// and render it with per-operator rows-in / rows-out / time.
    ExplainAnalyze(Query),
    /// `SHOW QUERIES` — one row per registered continuous query with its
    /// scheduler state and counters.
    ShowQueries,
    /// `SHOW METRICS [FOR query]` — the session metrics snapshot as
    /// (metric, value) rows; `FOR` narrows to one query's counters.
    ShowMetrics {
        /// Restrict to one continuous query's counters.
        query: Option<String>,
    },
}

/// Optional storage clauses of `CREATE BASKET` (defaults come from the
/// session when a clause is absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BasketOptions {
    /// `CAPACITY n` — tuple capacity; `None` leaves the session default.
    pub capacity: Option<u64>,
    /// `OVERFLOW ...` — what producers meet at capacity; `None` leaves the
    /// session default.
    pub overflow: Option<OverflowSpec>,
    /// `PERSISTENT` — appends are WAL-logged and survive restarts.
    pub persistent: bool,
}

/// The `OVERFLOW` clause of `CREATE BASKET`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowSpec {
    /// `OVERFLOW BLOCK` — producers wait at capacity.
    Block,
    /// `OVERFLOW REJECT` — appends fail at capacity.
    Reject,
    /// `OVERFLOW SHED` — the oldest resident tuples are dropped.
    Shed,
    /// `OVERFLOW SPILL n` — keep at most `n` tuples in memory; the older
    /// head is sealed to disk segments and re-read transparently.
    Spill {
        /// In-memory tuple budget.
        mem_rows: u64,
    },
}

/// Lifecycle actions for [`Statement::AlterContinuousQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryLifecycle {
    /// Stop scheduling the factory; inputs keep buffering.
    Pause,
    /// Re-enable scheduling.
    Resume,
}

/// Object kinds for [`Statement::Drop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// A stored table.
    Table,
    /// A stream basket.
    Basket,
    /// A registered continuous query.
    ContinuousQuery,
}

impl Statement {
    /// Statement kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Statement::CreateTable { .. } => "CREATE TABLE",
            Statement::CreateBasket { .. } => "CREATE BASKET",
            Statement::CreateContinuousQuery { .. } => "CREATE CONTINUOUS QUERY",
            Statement::Insert { .. } => "INSERT",
            Statement::Delete { .. } => "DELETE",
            Statement::Select(_) => "SELECT",
            Statement::Drop { .. } => "DROP",
            Statement::AlterContinuousQuery {
                action: QueryLifecycle::Pause,
                ..
            } => "PAUSE CONTINUOUS QUERY",
            Statement::AlterContinuousQuery {
                action: QueryLifecycle::Resume,
                ..
            } => "RESUME CONTINUOUS QUERY",
            Statement::SetQueryWeight { .. } => "SET QUERY WEIGHT",
            Statement::SetSchedulerWorkers { .. } => "SET SCHEDULER WORKERS",
            Statement::SetPlanSharing { .. } => "SET PLAN SHARING",
            Statement::Explain(_) => "EXPLAIN",
            Statement::ExplainAnalyze(_) => "EXPLAIN ANALYZE",
            Statement::ShowQueries => "SHOW QUERIES",
            Statement::ShowMetrics { .. } => "SHOW METRICS",
        }
    }
}

/// A select query block.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM clause; empty means a single-row constant query.
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY keys.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

impl Query {
    /// True iff any table reference (recursively) is a basket expression or
    /// a windowed stream source — the markers distinguishing continuous from
    /// one-time queries (§2.6: "basket expressions may be part only of
    /// continuous queries, which allows the system to distinguish between
    /// continuous and normal/one-time queries"; a window clause implies the
    /// same consuming stream read).
    pub fn is_continuous(&self) -> bool {
        fn source_has_basket(s: &TableSource, window: Option<&WindowSpec>) -> bool {
            if window.is_some() {
                return true;
            }
            match s {
                TableSource::Named(_) => false,
                TableSource::Subquery(q) => q.is_continuous(),
                TableSource::BasketExpr(_) => true,
            }
        }
        self.from.iter().any(|t| {
            source_has_basket(&t.source, t.window.as_ref())
                || t.joins
                    .iter()
                    .any(|j| source_has_basket(&j.source, j.window.as_ref()))
        })
    }

    /// Collect the names of all baskets consumed through basket expressions
    /// or windowed stream sources (the factory's *input baskets*, §2.3).
    pub fn basket_inputs(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk_source(s: &TableSource, window: Option<&WindowSpec>, out: &mut Vec<String>) {
            match s {
                TableSource::Named(n) => {
                    if window.is_some() {
                        out.push(n.clone());
                    }
                }
                TableSource::Subquery(sub) => walk_query(sub, out),
                TableSource::BasketExpr(sub) => {
                    // The innermost named FROM sources of the basket
                    // expression are the consumed baskets.
                    for it in &sub.from {
                        match &it.source {
                            TableSource::Named(n) => out.push(n.clone()),
                            other => walk_source(other, it.window.as_ref(), out),
                        }
                        for j in &it.joins {
                            match &j.source {
                                TableSource::Named(n) => out.push(n.clone()),
                                other => walk_source(other, j.window.as_ref(), out),
                            }
                        }
                    }
                }
            }
        }
        fn walk_query(q: &Query, out: &mut Vec<String>) {
            for t in &q.from {
                walk_source(&t.source, t.window.as_ref(), &mut *out);
                for j in &t.joins {
                    walk_source(&j.source, j.window.as_ref(), &mut *out);
                }
            }
        }
        walk_query(self, &mut out);
        out
    }

    /// Collect `(basket, window)` pairs for every windowed stream source in
    /// the top-level FROM clause, in syntactic order.
    pub fn windowed_inputs(&self) -> Vec<(String, WindowSpec)> {
        let mut out = Vec::new();
        for t in &self.from {
            if let (TableSource::Named(n), Some(w)) = (&t.source, t.window) {
                out.push((n.clone(), w));
            }
            for j in &t.joins {
                if let (TableSource::Named(n), Some(w)) = (&j.source, j.window) {
                    out.push((n.clone(), w));
                }
            }
        }
        out
    }
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS name]`
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output column name.
        alias: Option<String>,
    },
}

/// A FROM-clause source with optional alias and join chain.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// The underlying source.
    pub source: TableSource,
    /// Alias (`AS s`); required for subqueries and basket expressions.
    pub alias: Option<String>,
    /// Stream window clause (`[RANGE 10s SLIDE 5s]` / `[ROWS 100]`); only
    /// valid on named basket sources, and marks the query continuous.
    pub window: Option<WindowSpec>,
    /// Explicit `JOIN ... ON ...` chain hanging off this source.
    pub joins: Vec<Join>,
}

/// A per-source stream window clause.
///
/// `s [RANGE 10s SLIDE 5s]` re-evaluates over the tuples of the last 10
/// seconds every 5 seconds of stream time; `s [ROWS 100 SLIDE 50]` over
/// the last 100 tuples every 50 arrivals. `SLIDE` defaults to the window
/// size (a tumbling window). Windows attach to named basket sources only:
/// the windowed read is consuming (the stream engine buffers window state
/// itself and advances a private reader cursor past served tuples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// `[ROWS size [SLIDE slide]]` — count-based window.
    Count {
        /// Window size in tuples.
        size: u64,
        /// Advance per evaluation, in tuples.
        slide: u64,
    },
    /// `[RANGE size [SLIDE slide]]` — time-based window over arrival
    /// timestamps, normalized to microseconds.
    Time {
        /// Window length in microseconds.
        size_micros: i64,
        /// Advance per evaluation in microseconds.
        slide_micros: i64,
    },
}

impl WindowSpec {
    /// Check the size/slide invariants: both strictly positive and
    /// `slide ≤ size` (a gap between windows would silently drop tuples).
    pub fn validate(&self) -> std::result::Result<(), String> {
        match *self {
            WindowSpec::Count { size, slide } => {
                if size == 0 || slide == 0 {
                    Err("window size and slide must be positive".into())
                } else if slide > size {
                    Err(format!("window slide {slide} exceeds size {size}"))
                } else {
                    Ok(())
                }
            }
            WindowSpec::Time {
                size_micros,
                slide_micros,
            } => {
                if size_micros <= 0 || slide_micros <= 0 {
                    Err("window size and slide must be positive".into())
                } else if slide_micros > size_micros {
                    Err(format!(
                        "window slide {slide_micros}us exceeds size {size_micros}us"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// What a [`TableRef`] reads from.
#[derive(Debug, Clone, PartialEq)]
pub enum TableSource {
    /// A named table or basket (read-only inspection; tuples are *not*
    /// removed — §2.6: "a basket can also be inspected outside a basket
    /// expression; then it behaves as any temporary table").
    Named(String),
    /// A parenthesized derived table.
    Subquery(Box<Query>),
    /// A DataCell basket expression `[select ...]` — consume-on-read.
    BasketExpr(Box<Query>),
}

/// An explicit join.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join kind.
    pub kind: JoinKind,
    /// Right-hand source.
    pub source: TableSource,
    /// Right-hand alias.
    pub alias: Option<String>,
    /// Stream window clause on the right-hand source (named baskets only).
    pub window: Option<WindowSpec>,
    /// ON predicate (`None` only for CROSS).
    pub on: Option<Expr>,
}

/// Supported join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN`
    Inner,
    /// `CROSS JOIN`
    Cross,
}

/// ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// Ascending?
    pub asc: bool,
}

/// Binary operators in the surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
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
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// Expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, optionally qualified: `a` or `t.a`.
    Column {
        /// Table qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// `NOT expr`
    Not(Box<Expr>),
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr BETWEEN lo AND hi`
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// List elements.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern literal.
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// Function call (aggregate or scalar).
    Function {
        /// Lowercased function name.
        name: String,
        /// Arguments; empty plus `star` for `count(*)`.
        args: Vec<Expr>,
        /// True for `count(*)`.
        star: bool,
    },
    /// `CASE WHEN c1 THEN v1 [WHEN ...] [ELSE e] END`
    Case {
        /// (condition, result) arms.
        when_then: Vec<(Expr, Expr)>,
        /// ELSE result.
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`
    Cast {
        /// Source expression.
        expr: Box<Expr>,
        /// Target type.
        ty: DataType,
    },
}

impl Expr {
    /// Convenience constructor for binary nodes.
    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Depth-first walk over the expression and all children.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Column { .. } | Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Neg(e) | Expr::Not(e) => e.walk(f),
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Between { expr, lo, hi, .. } => {
                expr.walk(f);
                lo.walk(f);
                hi.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Like { expr, .. } => expr.walk(f),
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Case {
                when_then,
                else_expr,
            } => {
                for (c, r) in when_then {
                    c.walk(f);
                    r.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Cast { expr, .. } => expr.walk(f),
        }
    }

    /// True iff the expression contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if is_aggregate_name(name) {
                    found = true;
                }
            }
        });
        found
    }
}

/// True for the aggregate function names the planner recognizes.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "count" | "sum" | "min" | "max" | "avg")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(n: &str) -> TableRef {
        TableRef {
            source: TableSource::Named(n.into()),
            alias: None,
            window: None,
            joins: vec![],
        }
    }

    fn empty_query(from: Vec<TableRef>) -> Query {
        Query {
            distinct: false,
            items: vec![SelectItem::Wildcard],
            from,
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        }
    }

    #[test]
    fn continuity_detection() {
        let plain = empty_query(vec![named("r")]);
        assert!(!plain.is_continuous());

        let basket = empty_query(vec![TableRef {
            source: TableSource::BasketExpr(Box::new(empty_query(vec![named("r")]))),
            alias: Some("s".into()),
            window: None,
            joins: vec![],
        }]);
        assert!(basket.is_continuous());
        assert_eq!(basket.basket_inputs(), vec!["r".to_string()]);
    }

    #[test]
    fn windowed_source_is_continuous() {
        let mut tref = named("s1");
        tref.window = Some(WindowSpec::Time {
            size_micros: 10_000_000,
            slide_micros: 5_000_000,
        });
        tref.joins.push(Join {
            kind: JoinKind::Inner,
            source: TableSource::Named("s2".into()),
            alias: None,
            window: Some(WindowSpec::Count {
                size: 10,
                slide: 10,
            }),
            on: None,
        });
        let q = empty_query(vec![tref]);
        assert!(q.is_continuous());
        assert_eq!(q.basket_inputs(), vec!["s1".to_string(), "s2".to_string()]);
        assert_eq!(q.windowed_inputs().len(), 2);
        assert_eq!(q.windowed_inputs()[0].0, "s1");
    }

    #[test]
    fn nested_subquery_continuity() {
        let inner = empty_query(vec![TableRef {
            source: TableSource::BasketExpr(Box::new(empty_query(vec![named("s")]))),
            alias: Some("x".into()),
            window: None,
            joins: vec![],
        }]);
        let outer = empty_query(vec![TableRef {
            source: TableSource::Subquery(Box::new(inner)),
            alias: Some("y".into()),
            window: None,
            joins: vec![],
        }]);
        assert!(outer.is_continuous());
        assert_eq!(outer.basket_inputs(), vec!["s".to_string()]);
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Function {
            name: "sum".into(),
            args: vec![Expr::Column {
                qualifier: None,
                name: "a".into(),
            }],
            star: false,
        };
        assert!(agg.contains_aggregate());
        let wrapped = Expr::binary(BinaryOp::Add, agg, Expr::Literal(Value::Int(1)));
        assert!(wrapped.contains_aggregate());
        let scalar = Expr::Function {
            name: "abs".into(),
            args: vec![Expr::Literal(Value::Int(-1))],
            star: false,
        };
        assert!(!scalar.contains_aggregate());
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::Between {
            expr: Box::new(Expr::Column {
                qualifier: None,
                name: "x".into(),
            }),
            lo: Box::new(Expr::Literal(Value::Int(1))),
            hi: Box::new(Expr::Literal(Value::Int(2))),
            negated: false,
        };
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 4);
    }
}
