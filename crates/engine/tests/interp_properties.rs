//! Differential oracle for the plan interpreter.
//!
//! The interpreter answers a WHERE clause with candidate lists from the
//! `bat::select` kernels and aggregates through those candidates without
//! first copying the selected rows. Both are shortcuts around the plain
//! meaning of the query, so both are checked here against references that
//! take no shortcut and live in this file:
//!
//! * a predicate's qualifying rows must be the rows where the expression,
//!   evaluated *one row at a time* on boxed values, is exactly `true` — and
//!   also the `true` rows of the expression computed as a boolean column;
//! * `select keys.., aggs.. where .. group by ..` through [`execute`] must
//!   equal filtering the rows, then grouping them in order of first
//!   appearance, then folding each group row by row — same rows, same
//!   order, same error.
//!
//! * a comma join through SQL, or the same conjuncts as a `JOIN … ON` —
//!   which the planner turns into hash joins wherever an `=` between two
//!   inputs is one the join kernel computes exactly — must return the
//!   rows, in the order, of filtering the nested-loop cross product with
//!   the same `WHERE`.
//!
//! Data and predicates are drawn to sit on the kernels' edges: nils in
//! every type, `NaN`, `-0.0` beside `0.0`, `i64` extremes, empty inputs,
//! literals of the other numeric type, reversed `BETWEEN` bounds, and one
//! column-vs-column and one arithmetic term that no select kernel can
//! express.

use datacell_bat::aggregate::AggFunc;
use datacell_bat::calc::{true_candidates, ArithOp};
use datacell_bat::select::CmpOp;
use datacell_bat::types::{DataType, Value, NIL_INT};
use datacell_bat::{BatError, Column};
use datacell_engine::eval::{eval, eval_predicate};
use datacell_engine::{execute, Catalog, Chunk};
use datacell_sql::expr::ScalarExpr;
use datacell_sql::physical::{PhysAgg, PhysicalPlan};
use datacell_sql::{compile_query, Schema, SqlError};
use proptest::prelude::*;

// Columns of the test relation, by position.
const I: usize = 0; // int, with nil and both ends of the domain
const F: usize = 1; // float, with NaN (nil), signed zeros, infinities
const S: usize = 2; // string, with nil
const B: usize = 3; // bool, with nil
const T: usize = 4; // timestamp, with nil
const X: usize = 5; // small int, with nil: safe to add, divide and sum
const Y: usize = 6; // small int, with nil and zero

const TYPES: [DataType; 7] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Bool,
    DataType::Timestamp,
    DataType::Int,
    DataType::Int,
];

const INTS: [i64; 8] = [-3, 0, 1, 2, 5, NIL_INT, i64::MAX, i64::MIN + 1];
const FLOATS: [f64; 8] = [
    -1.5,
    -0.0,
    0.0,
    0.5,
    2.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];
const STRS: [Option<&str>; 5] = [Some("apple"), Some("fig"), Some("kiwi"), Some("pear"), None];
const SMALL: [i64; 6] = [-2, 0, 1, 2, 3, NIL_INT];

fn schema() -> Schema {
    Schema::new(
        ["i", "f", "s", "b", "t", "x", "y"]
            .iter()
            .zip(TYPES)
            .map(|(n, ty)| (n.to_string(), ty))
            .collect(),
    )
}

/// A relation of `codes.len()` rows; each code picks every column's value
/// from its pool, so equal values and nils are frequent.
fn relation(codes: &[u32]) -> Chunk {
    let pick =
        |c: u32, salt: u32, n: usize| (c.wrapping_mul(2654435761).rotate_left(salt) as usize) % n;
    let mut s = Column::empty(DataType::Str);
    let mut b = Column::empty(DataType::Bool);
    for &c in codes {
        match STRS[pick(c, 3, STRS.len())] {
            Some(v) => s.push(&Value::Str(v.into())).unwrap(),
            None => s.push_nil(),
        }
        match pick(c, 5, 3) {
            0 => b.push(&Value::Bool(false)).unwrap(),
            1 => b.push(&Value::Bool(true)).unwrap(),
            _ => b.push_nil(),
        }
    }
    let ints = |salt, pool: &[i64]| {
        codes
            .iter()
            .map(|&c| pool[pick(c, salt, pool.len())])
            .collect()
    };
    let columns = vec![
        Column::from_ints(ints(1, &INTS)),
        Column::from_floats(
            codes
                .iter()
                .map(|&c| FLOATS[pick(c, 2, FLOATS.len())])
                .collect(),
        ),
        s,
        b,
        Column::from_timestamps(ints(7, &SMALL)),
        Column::from_ints(ints(11, &SMALL)),
        Column::from_ints(ints(13, &SMALL)),
    ];
    Chunk::new(schema(), columns).unwrap()
}

fn col(index: usize) -> ScalarExpr {
    ScalarExpr::Column {
        index,
        ty: TYPES[index],
    }
}

fn cmp(op: CmpOp, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Cmp {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn and(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
    ScalarExpr::And(Box::new(a), Box::new(b))
}

fn add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Arith {
        op: ArithOp::Add,
        left: Box::new(a),
        right: Box::new(b),
        ty: DataType::Int,
    }
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A stream of random draws decoded into expressions; running dry yields
/// zeros, which decode to the first alternative everywhere.
struct Draws<'a>(std::slice::Iter<'a, u32>);

impl Draws<'_> {
    fn next(&mut self, n: usize) -> usize {
        self.0.next().map_or(0, |&d| d as usize % n)
    }

    /// A literal a column of `index` is compared with: mostly of the
    /// column's own type, sometimes nil, and for the numeric columns
    /// sometimes of the *other* numeric type.
    fn literal(&mut self, index: usize) -> Value {
        let own = |d: &mut Draws<'_>| match index {
            I => Value::Int(INTS[d.next(5)]),
            F => Value::Float(FLOATS[d.next(5)]),
            S => Value::Str(["apple", "banana", "kiwi", "zebra"][d.next(4)].into()),
            B => Value::Bool(d.next(2) == 1),
            T => Value::Timestamp(SMALL[d.next(5)]),
            _ => Value::Int(SMALL[d.next(5)]),
        };
        match (self.next(8), index) {
            (0, _) => Value::Nil,
            (1, I) => Value::Float([2.5, -0.0, 1.0][self.next(3)]),
            (1, F) => Value::Int([0, 2, -1][self.next(3)]),
            _ => own(self),
        }
    }

    /// `column <op> literal`, the literal on either side.
    fn comparison(&mut self) -> ScalarExpr {
        let index = self.next(TYPES.len());
        let (op, lit) = (OPS[self.next(6)], ScalarExpr::Literal(self.literal(index)));
        if self.next(4) == 0 {
            cmp(op, lit, col(index))
        } else {
            cmp(op, col(index), lit)
        }
    }

    /// What `[NOT] BETWEEN` desugars to; the bounds may be reversed.
    fn between(&mut self) -> ScalarExpr {
        let index = [I, F, S, T, X][self.next(5)];
        let (lo, hi) = (self.literal(index), self.literal(index));
        let both = and(
            cmp(CmpOp::Ge, col(index), ScalarExpr::Literal(lo)),
            cmp(CmpOp::Le, col(index), ScalarExpr::Literal(hi)),
        );
        if self.next(3) == 0 {
            ScalarExpr::Not(Box::new(both))
        } else {
            both
        }
    }

    fn leaf(&mut self) -> ScalarExpr {
        match self.next(8) {
            0..=2 => self.comparison(),
            3 | 4 => self.between(),
            5 => ScalarExpr::IsNull {
                expr: Box::new(col(self.next(TYPES.len()))),
                negated: self.next(2) == 1,
            },
            // No select kernel compares two columns or a computed value.
            6 => cmp(OPS[self.next(6)], col(X), col(Y)),
            _ => cmp(
                OPS[self.next(6)],
                add(col(X), col(Y)),
                ScalarExpr::Literal(Value::Int(SMALL[self.next(5)])),
            ),
        }
    }

    fn predicate(&mut self, depth: usize) -> ScalarExpr {
        if depth == 0 {
            return self.leaf();
        }
        match self.next(6) {
            0 | 1 => and(self.predicate(depth - 1), self.predicate(depth - 1)),
            2 | 3 => ScalarExpr::Or(
                Box::new(self.predicate(depth - 1)),
                Box::new(self.predicate(depth - 1)),
            ),
            4 => ScalarExpr::Not(Box::new(self.predicate(depth - 1))),
            _ => self.leaf(),
        }
    }
}

/// The rows where `expr` is exactly `true`, one boxed row at a time.
fn true_rows(expr: &ScalarExpr, chunk: &Chunk) -> Vec<usize> {
    (0..chunk.len())
        .filter(|&i| expr.eval_row(&chunk.row(i).unwrap()).unwrap() == Value::Bool(true))
        .collect()
}

/// Same slot in the total order (tells `-0.0` from `0.0`), or both nil.
fn same_value(a: &Value, b: &Value) -> bool {
    a.total_cmp(b) == std::cmp::Ordering::Equal
}

/// GROUP BY key identity: nil is one key and `-0.0` groups with `0.0`.
fn same_key(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x == y,
        _ => same_value(a, b),
    }
}

/// One aggregate over one group's argument values, in row order — with the
/// kernel's conventions: nils skipped, an empty fold is nil, integer sums
/// checked as they run, float sums never reassociated.
fn fold(func: AggFunc, vals: &[Value]) -> Result<Value, BatError> {
    let present: Vec<&Value> = vals.iter().filter(|v| !v.is_nil()).collect();
    Ok(match func {
        AggFunc::Count { star: true } => Value::Int(vals.len() as i64),
        AggFunc::Count { star: false } => Value::Int(present.len() as i64),
        _ if present.is_empty() => Value::Nil,
        AggFunc::Sum if matches!(present[0], Value::Float(_)) => {
            Value::Float(present.iter().fold(0.0, |s, v| s + v.as_float().unwrap()))
        }
        AggFunc::Sum => Value::Int(present.iter().try_fold(0i64, |s, v| {
            s.checked_add(v.as_int().unwrap())
                .ok_or(BatError::Overflow("sum"))
        })?),
        AggFunc::Avg => Value::Float(
            present.iter().fold(0.0, |s, v| s + v.as_float().unwrap()) / present.len() as f64,
        ),
        AggFunc::Min => (*present.iter().min_by(|a, b| a.total_cmp(b)).unwrap()).clone(),
        AggFunc::Max => {
            // The first of equal maxima, like a fold that replaces on `>`.
            let mut best = present[0];
            for v in &present[1..] {
                if v.total_cmp(best) == std::cmp::Ordering::Greater {
                    best = v;
                }
            }
            best.clone()
        }
    })
}

/// Filter, group in order of first appearance, fold — on boxed rows.
fn reference_query(
    chunk: &Chunk,
    predicates: &[&ScalarExpr],
    group: &[ScalarExpr],
    aggs: &[(AggFunc, Option<ScalarExpr>)],
) -> Result<Vec<Vec<Value>>, BatError> {
    let rows: Vec<Vec<Value>> = (0..chunk.len())
        .map(|i| chunk.row(i).unwrap())
        .filter(|row| {
            predicates
                .iter()
                .all(|p| p.eval_row(row).unwrap() == Value::Bool(true))
        })
        .collect();
    let mut groups: Vec<(Vec<Value>, Vec<&Vec<Value>>)> = Vec::new();
    if group.is_empty() {
        groups.push((Vec::new(), rows.iter().collect()));
    }
    for row in &rows {
        if group.is_empty() {
            break;
        }
        let key: Vec<Value> = group.iter().map(|e| e.eval_row(row).unwrap()).collect();
        match groups
            .iter_mut()
            .find(|(k, _)| k.iter().zip(&key).all(|(a, b)| same_key(a, b)))
        {
            Some((_, members)) => members.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    groups
        .into_iter()
        .map(|(mut out, members)| {
            for (func, arg) in aggs {
                let vals: Vec<Value> = members
                    .iter()
                    .map(|row| {
                        arg.as_ref()
                            .map_or(Value::Nil, |e| e.eval_row(row).unwrap())
                    })
                    .collect();
                out.push(fold(*func, &vals)?);
            }
            Ok(out)
        })
        .collect()
}

fn named(exprs: &[ScalarExpr]) -> Vec<(ScalarExpr, String)> {
    exprs
        .iter()
        .enumerate()
        .map(|(i, e)| (e.clone(), format!("k{i}")))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn predicate_candidates_are_the_rows_where_it_is_true(
        codes in prop::collection::vec(0u32..100_000, 0..40),
        draws in prop::collection::vec(0u32..1_000_000, 0..60),
    ) {
        let chunk = relation(&codes);
        let expr = Draws(draws.iter()).predicate(3);
        let got = eval_predicate(&expr, &chunk).unwrap().to_positions();
        prop_assert_eq!(&got, &true_rows(&expr, &chunk), "row at a time: {:?}", expr);
        let column = eval(&expr, &chunk).unwrap();
        let as_column = true_candidates(&column).unwrap().to_positions();
        prop_assert_eq!(&got, &as_column, "boolean column: {:?}", expr);
    }

    #[test]
    fn grouped_queries_equal_filter_then_group_then_fold(
        codes in prop::collection::vec(0u32..100_000, 0..40),
        draws in prop::collection::vec(0u32..1_000_000, 0..80),
    ) {
        let chunk = relation(&codes);
        let mut d = Draws(draws.iter());
        let in_scan = d.predicate(2);
        let in_filter = (d.next(2) == 1).then(|| d.predicate(2));
        // Keys: none (one global row), one or two columns, or a computed one.
        let group: Vec<ScalarExpr> = match d.next(6) {
            0 => vec![],
            1 => vec![add(col(X), col(Y))],
            2 => vec![col([I, F, S, B, T, X][d.next(6)]), col([S, B, X][d.next(3)])],
            _ => vec![col([I, F, S, B, T, X][d.next(6)])],
        };
        let aggs: Vec<(AggFunc, Option<ScalarExpr>)> = vec![
            (AggFunc::Count { star: true }, None),
            (AggFunc::Count { star: false }, Some(col(d.next(TYPES.len())))),
            (AggFunc::Sum, Some(col([I, F, X][d.next(3)]))),
            (AggFunc::Min, Some(col([I, F, S, T][d.next(4)]))),
            (AggFunc::Max, Some(col([I, F, S, T][d.next(4)]))),
            (AggFunc::Avg, Some(col([X, F][d.next(2)]))),
            (AggFunc::Sum, Some(add(col(X), col(Y)))),
        ];

        let mut catalog = Catalog::new();
        catalog.create_table("r", schema()).unwrap();
        catalog.table_mut("r").unwrap().append_chunk(&chunk).unwrap();
        let mut input = PhysicalPlan::ScanTable {
            table: "r".into(),
            full_schema: schema(),
            consume: false,
            predicate: Some(in_scan.clone()),
            projection: None,
            window: None,
            schema: schema(),
        };
        if let Some(p) = &in_filter {
            input = PhysicalPlan::Filter {
                input: Box::new(input),
                predicate: p.clone(),
                schema: schema(),
            };
        }
        let out_schema = Schema::new(
            group
                .iter()
                .map(ScalarExpr::data_type)
                .chain(aggs.iter().map(|(f, a)| {
                    f.output_type(a.as_ref().map_or(DataType::Int, ScalarExpr::data_type))
                }))
                .enumerate()
                .map(|(i, ty)| (format!("c{i}"), ty))
                .collect(),
        );
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(input),
            group: named(&group),
            aggs: aggs
                .iter()
                .enumerate()
                .map(|(i, (func, arg))| PhysAgg {
                    func: *func,
                    arg: arg.clone(),
                    name: format!("a{i}"),
                })
                .collect(),
            schema: out_schema,
        };

        let predicates: Vec<&ScalarExpr> = std::iter::once(&in_scan).chain(&in_filter).collect();
        let want = reference_query(&chunk, &predicates, &group, &aggs);
        match (execute(&plan, &catalog), want) {
            (Ok(got), Ok(want)) => {
                let got = got.chunk.rows().unwrap();
                prop_assert_eq!(got.len(), want.len(), "row count for {:?}", plan);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(
                        g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same_value(a, b)),
                        "{:?} != {:?} in {:?}\nfor {:?}", g, w, got, plan
                    );
                }
            }
            (Err(got), Err(want)) => {
                prop_assert_eq!(want.clone(), BatError::Overflow("sum"));
                prop_assert!(matches!(&got, SqlError::Kernel(e) if *e == want), "{:?}", got);
            }
            (got, want) => prop_assert!(false, "{:?} but expected {:?}", got.map(|o| o.chunk), want),
        }
    }
}

// ---------------- comma joins ----------------

const TABLES: [&str; 3] = ["a", "b", "c"];
const COLUMNS: [&str; 7] = ["i", "f", "s", "b", "t", "x", "y"];

impl Draws<'_> {
    /// One `WHERE` conjunct over `tables` comma-joined tables, `col(t, c)`
    /// naming column `c` of table `t`: equalities between two tables on
    /// every column type (the planner's case — or, for floats and int =
    /// float, its exclusion), other comparisons across tables, single-table
    /// terms, an `OR` across tables, and with three tables an equality
    /// spanning all three.
    fn join_conjunct(&mut self, tables: usize, col: &dyn Fn(usize, usize) -> String) -> String {
        let t1 = self.next(tables);
        let t2 = (t1 + 1 + self.next(tables - 1)) % tables;
        let c = self.next(COLUMNS.len());
        match self.next(9) {
            0..=2 => format!("{} = {}", col(t1, c), col(t2, c)),
            3 => format!("{} = {}", col(t1, [I, X][self.next(2)]), col(t2, F)),
            4 => format!("{} = {}", col(t1, X), col(t2, Y)),
            5 => {
                let c = [I, F, S, T, X][self.next(5)];
                let op = ["<", "<=", "<>", ">"][self.next(4)];
                format!("{} {op} {}", col(t1, c), col(t2, c))
            }
            6 => match self.next(3) {
                0 => format!("{} > 0", col(t1, X)),
                1 => format!("{} = 'kiwi'", col(t1, S)),
                _ => format!("{} < 1", col(t1, F)),
            },
            7 => format!("({} = {} or {} < 1)", col(t1, c), col(t2, c), col(t2, Y)),
            _ if tables == 3 => {
                let t3 = 3 - t1 - t2;
                format!("{} + {} = {}", col(t1, X), col(t2, Y), col(t3, X))
            }
            _ => format!("{} + 1 = {}", col(t1, X), col(t2, Y)),
        }
    }
}

/// A catalog holding one generated relation per table name.
fn join_catalog(relations: &[Vec<u32>]) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, codes) in TABLES.iter().zip(relations) {
        catalog.create_table(name, schema()).unwrap();
        catalog
            .table_mut(name)
            .unwrap()
            .append_chunk(&relation(codes))
            .unwrap();
    }
    catalog
}

/// The cross product of `tables` relations as one table `x`, built by
/// nested loops (first table outermost), with column `c` of table `t`
/// named `t_c`.
fn cross_product(catalog: &Catalog, tables: usize) -> Catalog {
    let chunks: Vec<Chunk> = TABLES[..tables]
        .iter()
        .map(|t| catalog.table(t).unwrap().snapshot())
        .collect();
    let mut rows: Vec<Vec<usize>> = vec![Vec::new()];
    for chunk in &chunks {
        rows = rows
            .into_iter()
            .flat_map(|prefix| {
                (0..chunk.len()).map(move |i| {
                    let mut row = prefix.clone();
                    row.push(i);
                    row
                })
            })
            .collect();
    }
    let mut columns = Vec::new();
    let mut names = Vec::new();
    for (t, chunk) in chunks.iter().enumerate() {
        let at: Vec<usize> = rows.iter().map(|r| r[t]).collect();
        for (c, column) in chunk.columns.iter().enumerate() {
            columns.push(column.take(&at).unwrap());
            names.push((format!("{}_{}", TABLES[t], COLUMNS[c]), TYPES[c]));
        }
    }
    let flat = Chunk::new(Schema::new(names), columns).unwrap();
    let mut out = Catalog::new();
    out.create_table("x", flat.schema.clone()).unwrap();
    out.table_mut("x").unwrap().append_chunk(&flat).unwrap();
    out
}

fn where_clause(conds: &[String]) -> String {
    if conds.is_empty() {
        String::new()
    } else {
        format!(" where {}", conds.join(" and "))
    }
}

fn run_sql(sql: &str, catalog: &Catalog) -> Vec<Vec<Value>> {
    let (plan, _) = compile_query(sql, catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
    execute(&plan, catalog).unwrap().chunk.rows().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn comma_joins_equal_the_filtered_nested_loop(
        a in prop::collection::vec(0u32..100_000, 0..10),
        b in prop::collection::vec(0u32..100_000, 0..10),
        c in prop::collection::vec(0u32..100_000, 0..10),
        three in 0u8..2,
        on in 0u8..2,
        conjuncts in 0usize..5,
        draws in prop::collection::vec(0u32..1_000_000, 0..40),
        picks in prop::collection::vec(0usize..21, 0..4),
    ) {
        let tables = 2 + usize::from(three);
        let catalog = join_catalog(&[a, b, c]);
        // The same draws render the query twice: over the joined tables,
        // and over the flattened cross product. No picks selects `*`.
        let render = |col: &dyn Fn(usize, usize) -> String| {
            let items: Vec<String> = picks.iter().map(|&p| col(p / 7 % tables, p % 7)).collect();
            let mut d = Draws(draws.iter());
            let conds: Vec<String> = (0..conjuncts).map(|_| d.join_conjunct(tables, col)).collect();
            let items = if items.is_empty() { "*".to_string() } else { items.join(", ") };
            (items, conds)
        };
        let (items, conds) = render(&|t, c| format!("{}.{}", TABLES[t], COLUMNS[c]));
        // The conjuncts go into `WHERE` over comma-joined tables, or into
        // the `ON` of the last `JOIN`, which sees every table before it.
        let join_sql = if on == 1 {
            let on = if conds.is_empty() { "1 = 1".to_string() } else { conds.join(" and ") };
            let inner = if tables == 3 { "a cross join b join c" } else { "a join b" };
            format!("select {items} from {inner} on {on}")
        } else {
            format!("select {items} from {}{}", TABLES[..tables].join(", "), where_clause(&conds))
        };
        let got = run_sql(&join_sql, &catalog);
        let (items, conds) = render(&|t, c| format!("{}_{}", TABLES[t], COLUMNS[c]));
        let want = run_sql(
            &format!("select {items} from x{}", where_clause(&conds)),
            &cross_product(&catalog, tables),
        );
        prop_assert_eq!(got.len(), want.len(), "row count of {}", join_sql);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!(
                g.len() == w.len() && g.iter().zip(w).all(|(x, y)| same_value(x, y)),
                "{:?} != {:?} for {}", g, w, join_sql
            );
        }
    }
}

/// Regression: column pruning used to drop every column of a comma-joined
/// table the query reads nothing from, and a relation without columns has
/// no rows — so the whole cross product came back empty.
#[test]
fn an_unread_comma_joined_table_still_multiplies_the_rows() {
    let catalog = join_catalog(&[vec![1, 2], vec![3, 4, 5], vec![]]);
    assert_eq!(run_sql("select a.y from a, b", &catalog).len(), 6);
    assert_eq!(
        run_sql("select count(*) from a, b", &catalog)[0][0],
        Value::Int(6)
    );
}

/// `EXPLAIN` pins for the planner's join-key rule: same-typed int and
/// string keys plan hash joins, each on the narrowest cross product that
/// relates its tables; float and int = float keys stay a filtered nested
/// loop, in `WHERE` and in `JOIN … ON` alike, because the join kernel
/// matches `-0.0` with `0.0` and `=` does not.
#[test]
fn comma_join_equalities_plan_hash_joins_except_on_floats() {
    let catalog = join_catalog(&[vec![], vec![], vec![]]);
    let explain = |sql: &str| compile_query(sql, &catalog).unwrap().0.display();
    for sql in [
        "select * from a, b where a.i = b.i",
        "select * from a, b where b.s = a.s and a.x < b.y",
    ] {
        let plan = explain(sql);
        assert!(plan.contains("HashJoin (1 keys)"), "{sql}:\n{plan}");
        assert!(!plan.contains("NestedLoop"), "{sql}:\n{plan}");
    }
    let three = explain("select * from a, b, c where c.t = b.t and b.i = a.i");
    assert_eq!(three.matches("HashJoin (1 keys)").count(), 2, "{three}");
    assert!(!three.contains("NestedLoop"), "{three}");
    for sql in [
        "select * from a, b where a.f = b.f",
        "select * from a, b where a.i = b.f",
        "select * from a join b on a.f = b.f",
        "select * from a join b on b.f = a.i",
    ] {
        let plan = explain(sql);
        assert!(!plan.contains("HashJoin"), "{sql}:\n{plan}");
        assert!(
            plan.contains("NestedLoop") && plan.contains("Filter"),
            "{sql}:\n{plan}"
        );
    }
}
