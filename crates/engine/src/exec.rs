//! The plan interpreter: executes a [`PhysicalPlan`] against a
//! [`DataSource`], column-at-a-time.
//!
//! Operators hand each other a `Rel`: a chunk lent by the data source (or
//! owned by the operator that computed it) plus a candidate list of the rows
//! selected from it, in the MonetDB style. Scans, filters, column-only
//! projections, `LIMIT` and `DISTINCT` only ever narrow the candidates or
//! re-point columns; predicates go to the `bat::select` kernels and grouped
//! aggregation to `group_by`/`grouped_agg` over those candidates. Rows are
//! copied once, where a value has to exist on its own: at the plan root, in
//! a computed projection, and at the pipeline breakers (join, sort).
//!
//! Consuming scans (basket expressions) do not mutate anything here — the
//! engine is side-effect free. Instead, the qualifying positions of every
//! consuming scan are reported in [`ExecOutcome::consumed`]; the DataCell
//! layer, which holds the basket locks for the whole factory step
//! (Algorithm 1 in the paper), applies the deletions. That separation keeps
//! the engine reusable for one-time queries and keeps all locking protocol
//! in one place.

use std::borrow::Cow;
use std::rc::Rc;

use datacell_bat::aggregate::{grouped_agg, scalar_agg};
use datacell_bat::candidates::Candidates;
use datacell_bat::column::Column;
use datacell_bat::error::Result as BatResult;
use datacell_bat::group::{group_by, Grouping};
use datacell_bat::types::Value;
use datacell_sql::expr::ScalarExpr;
use datacell_sql::physical::{OpStats, PhysAgg, PhysicalPlan};
use datacell_sql::{Result, Schema, SqlError};

use crate::chunk::{gather_column, Chunk};
use crate::eval::{eval, eval_cols, eval_predicate, is_all, select};

/// Where scans read their data from.
///
/// The engine's [`crate::Catalog`] implements this for stored tables; the
/// DataCell layer implements it over locked basket snapshots.
pub trait DataSource {
    /// The full contents of `table`: lent when the source holds them as a
    /// chunk (a stored table, a factory's snapshot), owned when it has to
    /// build them. The interpreter reads a lent chunk in place.
    fn scan(&self, table: &str) -> BatResult<Cow<'_, Chunk>>;
}

/// Result of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecOutcome<'a> {
    /// The query result — still the source's own chunk when the plan
    /// selected all of it unchanged (`select * from s`).
    pub chunk: Cow<'a, Chunk>,
    /// For each consuming scan: the basket name and the positions (within
    /// the snapshot served by the data source) that the basket expression
    /// referenced and must therefore be removed (§2.6).
    pub consumed: Vec<(String, Candidates)>,
}

/// Consuming scans seen so far; each shares its candidates with the [`Rel`]
/// it produced.
type Consumed = Vec<(String, Rc<Candidates>)>;

/// Execute `plan` against `src`.
pub fn execute<'a>(plan: &PhysicalPlan, src: &'a dyn DataSource) -> Result<ExecOutcome<'a>> {
    run_root(plan, src, None)
}

/// Execute `plan` against `src`, additionally recording per-operator
/// row counts and wall-clock time — the engine half of `EXPLAIN ANALYZE`.
/// The returned stats vector holds one [`OpStats`] per plan node in
/// depth-first pre-order (the [`PhysicalPlan::walk`] order), ready for
/// [`PhysicalPlan::display_analyzed`]. `rows_out` counts the rows an
/// operator *selected*, whether or not it copied them.
pub fn execute_traced<'a>(
    plan: &PhysicalPlan,
    src: &'a dyn DataSource,
) -> Result<(ExecOutcome<'a>, Vec<OpStats>)> {
    let mut stats = Vec::new();
    let outcome = run_root(plan, src, Some(&mut stats))?;
    Ok((outcome, stats))
}

fn run_root<'a>(
    plan: &PhysicalPlan,
    src: &'a dyn DataSource,
    trace: Option<&mut Vec<OpStats>>,
) -> Result<ExecOutcome<'a>> {
    let mut consumed = Consumed::new();
    let chunk = run(plan, src, &mut consumed, trace)?.materialize(plan.schema())?;
    let consumed = consumed
        .into_iter()
        .map(|(table, c)| (table, Rc::try_unwrap(c).unwrap_or_else(|c| (*c).clone())))
        .collect();
    Ok(ExecOutcome { chunk, consumed })
}

/// What operators pass to each other: a chunk, which of its columns this
/// relation exposes, and which of its rows are selected. Nothing is copied
/// until [`Rel::materialize`].
struct Rel<'a> {
    chunk: Cow<'a, Chunk>,
    /// Exposed columns as positions into `chunk.columns`; `None` = all of
    /// them, in order.
    map: Option<Vec<usize>>,
    /// Selected rows of `chunk`.
    cand: Rc<Candidates>,
}

impl<'a> Rel<'a> {
    /// Every row and column of `chunk`.
    fn whole(chunk: Cow<'a, Chunk>) -> Self {
        let cand = Rc::new(Candidates::all(chunk.len()));
        Rel {
            chunk,
            map: None,
            cand,
        }
    }

    /// Selected row count.
    fn len(&self) -> usize {
        self.cand.len()
    }

    /// Row count of the underlying columns (what `cand` indexes).
    fn rows(&self) -> usize {
        self.chunk.len()
    }

    /// The exposed columns, full length.
    fn cols(&self) -> Vec<&Column> {
        match &self.map {
            None => self.chunk.columns.iter().collect(),
            Some(map) => map.iter().map(|&i| &self.chunk.columns[i]).collect(),
        }
    }

    /// Expose `picks` (positions among the currently exposed columns).
    fn project(mut self, picks: impl Iterator<Item = usize>) -> Result<Self> {
        let width = self.chunk.columns.len();
        let map = picks
            .map(|i| match &self.map {
                None => Some(i).filter(|&i| i < width),
                Some(map) => map.get(i).copied(),
            })
            .collect::<Option<Vec<usize>>>()
            .ok_or_else(|| SqlError::Plan("projected column out of range".into()))?;
        self.map = Some(map).filter(|m| !m.iter().copied().eq(0..width));
        Ok(self)
    }

    /// Keep the same columns with other selected rows.
    fn narrowed(self, cand: Candidates) -> Self {
        Rel {
            cand: Rc::new(cand),
            ..self
        }
    }

    /// This relation with every row selected: itself when that already
    /// holds, its gathered copy otherwise. Computed expressions are
    /// evaluated whole-column, so they want only the selected rows there.
    fn settled(self, schema: &Schema) -> Result<Self> {
        if is_all(&self.cand, self.rows()) {
            return Ok(self);
        }
        Ok(Rel::whole(self.materialize(schema)?))
    }

    /// The selected rows of the exposed columns as a chunk under `schema`
    /// — the one place rows are copied. A relation that is a whole chunk
    /// is handed on as it is (a lent one stays lent), and an owned chunk
    /// gives its columns up instead of copying them.
    fn materialize(self, schema: &Schema) -> Result<Cow<'a, Chunk>> {
        let whole = is_all(&self.cand, self.rows());
        let Rel { chunk, map, cand } = self;
        Ok(Cow::Owned(match (chunk, map) {
            (chunk, None) if whole && chunk.schema == *schema => return Ok(chunk),
            (Cow::Owned(chunk), map) if whole => {
                let map = map.unwrap_or_else(|| (0..chunk.columns.len()).collect());
                let mut columns: Vec<Option<Column>> =
                    chunk.columns.into_iter().map(Some).collect();
                let columns = map
                    .iter()
                    .enumerate()
                    .map(|(at, &i)| {
                        // The last use of a column moves it out.
                        if map[at + 1..].contains(&i) {
                            columns[i].clone()
                        } else {
                            columns[i].take()
                        }
                        .expect("taken only at its last use")
                    })
                    .collect();
                Chunk {
                    schema: schema.clone(),
                    columns,
                }
            }
            (chunk, map) => {
                let columns = match &map {
                    None => chunk
                        .columns
                        .iter()
                        .map(|c| gather_column(c, &cand))
                        .collect::<BatResult<_>>(),
                    Some(map) => map
                        .iter()
                        .map(|&i| gather_column(&chunk.columns[i], &cand))
                        .collect::<BatResult<_>>(),
                }
                .map_err(SqlError::Kernel)?;
                Chunk {
                    schema: schema.clone(),
                    columns,
                }
            }
        }))
    }
}

/// Evaluate one node, reserving its pre-order trace slot before the
/// children run (so slot order matches [`PhysicalPlan::walk`]) and filling
/// it with the observed output count and elapsed time afterwards.
fn run<'a>(
    plan: &PhysicalPlan,
    src: &'a dyn DataSource,
    consumed: &mut Consumed,
    mut trace: Option<&mut Vec<OpStats>>,
) -> Result<Rel<'a>> {
    let slot = trace.as_deref_mut().map(|t| {
        let i = t.len();
        t.push(OpStats::default());
        i
    });
    let start = slot.map(|_| std::time::Instant::now());
    let out = run_node(plan, src, consumed, trace.as_deref_mut())?;
    if let (Some(t), Some(i), Some(s)) = (trace, slot, start) {
        t[i] = OpStats {
            rows_out: out.len() as u64,
            micros: s.elapsed().as_micros() as u64,
        };
    }
    Ok(out)
}

fn run_node<'a>(
    plan: &PhysicalPlan,
    src: &'a dyn DataSource,
    consumed: &mut Consumed,
    mut trace: Option<&mut Vec<OpStats>>,
) -> Result<Rel<'a>> {
    match plan {
        PhysicalPlan::ScanTable {
            table,
            consume,
            predicate,
            projection,
            full_schema,
            // The engine evaluates whatever snapshot the source hands it; the
            // stream layer is responsible for shaping windowed snapshots.
            window: _,
            schema: _,
        } => {
            let raw = src.scan(table).map_err(SqlError::Kernel)?;
            if raw.schema.len() != full_schema.len() {
                return Err(SqlError::Plan(format!(
                    "source {table} width {} does not match planned width {}",
                    raw.schema.len(),
                    full_schema.len()
                )));
            }
            let mut rel = Rel::whole(raw);
            if let Some(p) = predicate {
                let cand = eval_predicate(p, &rel.chunk)?;
                rel = rel.narrowed(cand);
            }
            if *consume {
                consumed.push((table.clone(), Rc::clone(&rel.cand)));
            }
            match projection {
                None => Ok(rel),
                Some(cols) => rel.project(cols.iter().copied()),
            }
        }
        PhysicalPlan::Filter {
            input, predicate, ..
        } => {
            let child = run(input, src, consumed, trace.as_deref_mut())?;
            let cand = select(predicate, &child.cols(), child.rows(), Some(&child.cand))?;
            Ok(child.narrowed(cand))
        }
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let child = run(input, src, consumed, trace.as_deref_mut())?;
            let picks: Option<Vec<usize>> = exprs
                .iter()
                .map(|(e, _)| match e {
                    ScalarExpr::Column { index, .. } => Some(*index),
                    _ => None,
                })
                .collect();
            if let Some(picks) = picks {
                return child.project(picks.into_iter());
            }
            let child = child.settled(input.schema())?;
            let (cols, n) = (child.cols(), child.rows());
            let columns = exprs
                .iter()
                .map(|(e, _)| Ok(eval_cols(e, &cols, n)?.into_owned()))
                .collect::<Result<Vec<_>>>()?;
            Ok(Rel::whole(Cow::Owned(Chunk {
                schema: schema.clone(),
                columns,
            })))
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            schema,
        } => {
            let lchunk =
                run(left, src, consumed, trace.as_deref_mut())?.materialize(left.schema())?;
            let rchunk =
                run(right, src, consumed, trace.as_deref_mut())?.materialize(right.schema())?;
            let lkeys = left_keys
                .iter()
                .map(|k| eval(k, &lchunk))
                .collect::<Result<Vec<_>>>()?;
            let rkeys = right_keys
                .iter()
                .map(|k| eval(k, &rchunk))
                .collect::<Result<Vec<_>>>()?;
            let (lpos, rpos) = multi_key_join(&lkeys, &rkeys, lchunk.len(), rchunk.len())?;
            let joined = materialize_join(&lchunk, &rchunk, &lpos, &rpos, schema)?;
            let cand = residual
                .as_ref()
                .map(|r| eval_predicate(r, &joined))
                .transpose()?;
            let rel = Rel::whole(Cow::Owned(joined));
            Ok(match cand {
                None => rel,
                Some(cand) => rel.narrowed(cand),
            })
        }
        PhysicalPlan::NestedLoop {
            left,
            right,
            schema,
        } => {
            let lchunk =
                run(left, src, consumed, trace.as_deref_mut())?.materialize(left.schema())?;
            let rchunk =
                run(right, src, consumed, trace.as_deref_mut())?.materialize(right.schema())?;
            let (ln, rn) = (lchunk.len(), rchunk.len());
            let mut lpos = Vec::with_capacity(ln * rn);
            let mut rpos = Vec::with_capacity(ln * rn);
            for i in 0..ln {
                for j in 0..rn {
                    lpos.push(i);
                    rpos.push(j);
                }
            }
            let joined = materialize_join(&lchunk, &rchunk, &lpos, &rpos, schema)?;
            Ok(Rel::whole(Cow::Owned(joined)))
        }
        PhysicalPlan::HashAggregate {
            input,
            group,
            aggs,
            schema,
        } => {
            let child = run(input, src, consumed, trace.as_deref_mut())?;
            let out = aggregate(child, input.schema(), group, aggs, schema)?;
            Ok(Rel::whole(Cow::Owned(out)))
        }
        PhysicalPlan::Sort {
            input,
            keys,
            schema,
        } => {
            let child = run(input, src, consumed, trace.as_deref_mut())?;
            Ok(Rel::whole(Cow::Owned(sort_rel(&child, keys, schema)?)))
        }
        PhysicalPlan::Limit { input, n, .. } => {
            let child = run(input, src, consumed, trace.as_deref_mut())?;
            let cand = child.cand.first_n(*n as usize);
            Ok(child.narrowed(cand))
        }
        PhysicalPlan::Distinct { input, .. } => {
            let child = run(input, src, consumed, trace)?;
            distinct_rel(child)
        }
        PhysicalPlan::ConstRow { exprs, schema } => {
            let mut columns = Vec::with_capacity(exprs.len());
            for ((e, _), cd) in exprs.iter().zip(&schema.columns) {
                columns.push(single_value(&e.eval_row(&[])?, cd.ty, "cannot coerce")?);
            }
            Ok(Rel::whole(Cow::Owned(Chunk {
                schema: schema.clone(),
                columns,
            })))
        }
    }
}

/// A one-row column of type `ty` holding `v`.
fn single_value(v: &Value, ty: datacell_bat::DataType, what: &str) -> Result<Column> {
    let mut c = Column::with_capacity(ty, 1);
    if v.is_nil() {
        c.push_nil();
    } else {
        let coerced = v
            .coerce_to(ty)
            .ok_or_else(|| SqlError::Type(format!("{what} {v:?} to {ty}")))?;
        c.push(&coerced).map_err(SqlError::Kernel)?;
    }
    Ok(c)
}

/// Multi-key equi-join over evaluated key columns: single-key joins go
/// straight to the kernel's hash join; composite keys use iterative group
/// refinement to reduce to a single surrogate key first.
fn multi_key_join(
    lkeys: &[Cow<'_, Column>],
    rkeys: &[Cow<'_, Column>],
    ln: usize,
    rn: usize,
) -> Result<(Vec<usize>, Vec<usize>)> {
    if lkeys.len() == 1 {
        return datacell_bat::join::hash_join(&lkeys[0], &rkeys[0], None, None)
            .map_err(SqlError::Kernel);
    }
    // Composite key: group the *concatenation* of both sides' keys column by
    // column; rows in the same final group share a composite key. Then a
    // surrogate-int join on group ids yields the pairs.
    let mut grouping: Option<Grouping> = None;
    for (lk, rk) in lkeys.iter().zip(rkeys) {
        let mut combined = Column::clone(lk);
        combined.append_column(rk).map_err(SqlError::Kernel)?;
        grouping = Some(group_by(&combined, grouping.as_ref(), None).map_err(SqlError::Kernel)?);
    }
    let g = grouping.expect("at least one key");
    // Nil keys never match in SQL; detect rows where any key is nil.
    let is_nil_row = |cols: &[Cow<'_, Column>], i: usize| cols.iter().any(|c| c.is_nil_at(i));
    let lids = Column::from_ints(
        (0..ln)
            .map(|i| {
                if is_nil_row(lkeys, i) {
                    datacell_bat::types::NIL_INT
                } else {
                    g.ids[i] as i64
                }
            })
            .collect(),
    );
    let rids = Column::from_ints(
        (0..rn)
            .map(|j| {
                if is_nil_row(rkeys, j) {
                    datacell_bat::types::NIL_INT
                } else {
                    g.ids[ln + j] as i64
                }
            })
            .collect(),
    );
    datacell_bat::join::hash_join(&lids, &rids, None, None).map_err(SqlError::Kernel)
}

fn materialize_join(
    l: &Chunk,
    r: &Chunk,
    lpos: &[usize],
    rpos: &[usize],
    schema: &Schema,
) -> Result<Chunk> {
    let mut columns = Vec::with_capacity(l.columns.len() + r.columns.len());
    for c in &l.columns {
        columns.push(c.take(lpos).map_err(SqlError::Kernel)?);
    }
    for c in &r.columns {
        columns.push(c.take(rpos).map_err(SqlError::Kernel)?);
    }
    Ok(Chunk {
        schema: schema.clone(),
        columns,
    })
}

/// Aggregate the selected rows of `child`. Keys and arguments that are
/// plain columns are read in place through the candidate list
/// (`group_by`/`grouped_agg`/`scalar_agg` all take positions); only when
/// some expression has to be computed are the selected rows gathered first.
fn aggregate(
    child: Rel<'_>,
    child_schema: &Schema,
    group: &[(ScalarExpr, String)],
    aggs: &[PhysAgg],
    schema: &Schema,
) -> Result<Chunk> {
    let plain = |e: &ScalarExpr| matches!(e, ScalarExpr::Column { .. });
    let in_place = group.iter().all(|(e, _)| plain(e))
        && aggs.iter().all(|a| a.arg.as_ref().is_none_or(plain));
    let child = if in_place {
        child
    } else {
        child.settled(child_schema)?
    };
    let (cols, n) = (child.cols(), child.rows());
    let cand = Some(&*child.cand);
    if group.is_empty() {
        // Global aggregation: exactly one output row, even for empty input.
        let mut columns = Vec::with_capacity(aggs.len());
        for (a, cd) in aggs.iter().zip(&schema.columns) {
            let v = match &a.arg {
                None => Value::Int(child.len() as i64),
                Some(e) => {
                    let arg = eval_cols(e, &cols, n)?;
                    scalar_agg(a.func, &arg, cand).map_err(SqlError::Kernel)?
                }
            };
            columns.push(single_value(&v, cd.ty, "agg type drift:")?);
        }
        return Ok(Chunk {
            schema: schema.clone(),
            columns,
        });
    }
    // Grouped: iterative refinement over evaluated key columns.
    let key_cols = group
        .iter()
        .map(|(e, _)| eval_cols(e, &cols, n))
        .collect::<Result<Vec<_>>>()?;
    let mut grouping: Option<Grouping> = None;
    for k in &key_cols {
        grouping = Some(group_by(k, grouping.as_ref(), cand).map_err(SqlError::Kernel)?);
    }
    let g = grouping.expect("non-empty group keys");
    let mut columns: Vec<Column> = Vec::with_capacity(group.len() + aggs.len());
    // Group key outputs: key value at each group's representative row.
    for k in &key_cols {
        columns.push(k.take(&g.representatives).map_err(SqlError::Kernel)?);
    }
    // count(*) is the histogram of group sizes, whichever aggregate asks.
    let mut sizes: Option<Vec<i64>> = None;
    for a in aggs {
        let col = match &a.arg {
            None => Column::from_ints(
                sizes
                    .get_or_insert_with(|| g.histogram().iter().map(|&n| n as i64).collect())
                    .clone(),
            ),
            Some(e) => {
                let arg = eval_cols(e, &cols, n)?;
                grouped_agg(a.func, &arg, &g).map_err(SqlError::Kernel)?
            }
        };
        columns.push(col);
    }
    Chunk::new(schema.clone(), columns).map_err(SqlError::Kernel)
}

/// The selected rows of `child` in key order: a stable multi-key sort of
/// their positions, then one gather per column.
fn sort_rel(child: &Rel<'_>, keys: &[(usize, bool)], schema: &Schema) -> Result<Chunk> {
    let cols = child.cols();
    let mut perm = child.cand.to_positions();
    if perm.len() > 1 && !keys.is_empty() {
        let key_vals: Vec<(&Column, bool)> = keys.iter().map(|&(k, asc)| (cols[k], asc)).collect();
        perm.sort_by(|&a, &b| {
            for (col, asc) in &key_vals {
                let va = col.get(a).unwrap_or(Value::Nil);
                let vb = col.get(b).unwrap_or(Value::Nil);
                let ord = va.total_cmp(&vb);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let columns = cols
        .iter()
        .map(|c| c.take(&perm))
        .collect::<BatResult<Vec<_>>>()
        .map_err(SqlError::Kernel)?;
    Ok(Chunk {
        schema: schema.clone(),
        columns,
    })
}

/// Keep the first of every set of equal rows: group by every column over
/// the selected rows; the representatives are the new candidates.
fn distinct_rel(child: Rel<'_>) -> Result<Rel<'_>> {
    if child.len() <= 1 {
        return Ok(child);
    }
    let mut grouping: Option<Grouping> = None;
    for c in child.cols() {
        grouping =
            Some(group_by(c, grouping.as_ref(), Some(&child.cand)).map_err(SqlError::Kernel)?);
    }
    let Some(g) = grouping else {
        return Ok(child); // zero-column relation
    };
    let mut reps = g.representatives;
    reps.sort_unstable();
    Ok(child.narrowed(Candidates::from_sorted_unchecked(reps)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use datacell_bat::types::DataType;
    use datacell_sql::compile_query;
    use datacell_sql::Schema;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "t",
            Schema::new(vec![
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Float),
                ("s".into(), DataType::Str),
            ]),
        )
        .unwrap();
        let t = c.table_mut("t").unwrap();
        for (a, b, s) in [
            (1, 10.0, "x"),
            (2, 20.0, "y"),
            (3, 30.0, "x"),
            (4, 40.0, "z"),
            (5, 50.0, "y"),
        ] {
            t.append_row(&[Value::Int(a), Value::Float(b), Value::Str(s.into())])
                .unwrap();
        }
        c.create_table(
            "u",
            Schema::new(vec![
                ("k".into(), DataType::Int),
                ("v".into(), DataType::Str),
            ]),
        )
        .unwrap();
        let u = c.table_mut("u").unwrap();
        for (k, v) in [(2, "two"), (4, "four"), (9, "nine")] {
            u.append_row(&[Value::Int(k), Value::Str(v.into())])
                .unwrap();
        }
        c
    }

    fn query(c: &Catalog, sql: &str) -> Chunk {
        let (plan, _) = compile_query(sql, c).unwrap();
        execute(&plan, c).unwrap().chunk.into_owned()
    }

    #[test]
    fn filter_and_project() {
        let c = catalog();
        let out = query(&c, "select a, b * 2 as bb from t where a >= 3");
        assert_eq!(out.len(), 3);
        assert_eq!(out.columns[0].as_ints().unwrap(), &[3, 4, 5]);
        assert_eq!(out.columns[1].as_floats().unwrap(), &[60.0, 80.0, 100.0]);
    }

    #[test]
    fn join_one_key() {
        let c = catalog();
        let out = query(&c, "select t.a, u.v from t join u on t.a = u.k");
        assert_eq!(out.len(), 2);
        assert_eq!(out.columns[0].as_ints().unwrap(), &[2, 4]);
        assert_eq!(out.row(0).unwrap()[1], Value::Str("two".into()));
    }

    #[test]
    fn join_residual_predicate() {
        let c = catalog();
        let out = query(&c, "select t.a from t join u on t.a = u.k and t.b > 25.0");
        assert_eq!(out.columns[0].as_ints().unwrap(), &[4]);
    }

    #[test]
    fn multi_key_join_works() {
        let mut c = Catalog::new();
        c.create_table(
            "l",
            Schema::new(vec![
                ("x".into(), DataType::Int),
                ("y".into(), DataType::Str),
            ]),
        )
        .unwrap();
        c.create_table(
            "r",
            Schema::new(vec![
                ("x".into(), DataType::Int),
                ("y".into(), DataType::Str),
                ("p".into(), DataType::Int),
            ]),
        )
        .unwrap();
        for (x, y) in [(1, "a"), (1, "b"), (2, "a")] {
            c.table_mut("l")
                .unwrap()
                .append_row(&[Value::Int(x), Value::Str(y.into())])
                .unwrap();
        }
        for (x, y, p) in [(1, "a", 10), (1, "b", 20), (2, "b", 30)] {
            c.table_mut("r")
                .unwrap()
                .append_row(&[Value::Int(x), Value::Str(y.into()), Value::Int(p)])
                .unwrap();
        }
        let out = query(&c, "select r.p from l join r on l.x = r.x and l.y = r.y");
        let mut got = out.columns[0].as_ints().unwrap().to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![10, 20]);
    }

    #[test]
    fn cross_join_counts() {
        let c = catalog();
        let out = query(&c, "select t.a, u.k from t cross join u");
        assert_eq!(out.len(), 15);
    }

    #[test]
    fn group_by_aggregates() {
        let c = catalog();
        let out = query(
            &c,
            "select s, sum(a) as total, count(*) as n from t group by s order by s",
        );
        assert_eq!(out.len(), 3);
        let rows = out.rows().unwrap();
        assert_eq!(
            rows[0],
            vec![Value::Str("x".into()), Value::Int(4), Value::Int(2)]
        );
        assert_eq!(
            rows[1],
            vec![Value::Str("y".into()), Value::Int(7), Value::Int(2)]
        );
        assert_eq!(
            rows[2],
            vec![Value::Str("z".into()), Value::Int(4), Value::Int(1)]
        );
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let c = catalog();
        let out = query(&c, "select count(*) as n, sum(a) as s from t where a > 100");
        assert_eq!(out.len(), 1);
        let row = out.row(0).unwrap();
        assert_eq!(row[0], Value::Int(0));
        assert_eq!(row[1], Value::Nil);
    }

    #[test]
    fn having_filters_groups() {
        let c = catalog();
        let out = query(
            &c,
            "select s, count(*) as n from t group by s having count(*) > 1 order by s",
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let c = catalog();
        let out = query(&c, "select a from t order by a desc limit 2");
        assert_eq!(out.columns[0].as_ints().unwrap(), &[5, 4]);
    }

    #[test]
    fn multi_key_sort() {
        let c = catalog();
        let out = query(&c, "select s, a from t order by s asc, a desc");
        let rows = out.rows().unwrap();
        assert_eq!(rows[0][0], Value::Str("x".into()));
        assert_eq!(rows[0][1], Value::Int(3));
        assert_eq!(rows[1][1], Value::Int(1));
    }

    #[test]
    fn distinct_rows() {
        let c = catalog();
        let out = query(&c, "select distinct s from t order by s");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn const_row() {
        let c = catalog();
        let out = query(&c, "select 2 + 3 as five, 'hi' as greet");
        assert_eq!(out.len(), 1);
        assert_eq!(
            out.row(0).unwrap(),
            vec![Value::Int(5), Value::Str("hi".into())]
        );
    }

    #[test]
    fn case_in_projection() {
        let c = catalog();
        let out = query(
            &c,
            "select a, case when a % 2 = 0 then 'even' else 'odd' end as par from t order by a",
        );
        assert_eq!(out.row(0).unwrap()[1], Value::Str("odd".into()));
        assert_eq!(out.row(1).unwrap()[1], Value::Str("even".into()));
    }

    #[test]
    fn in_and_between_execute() {
        let c = catalog();
        let out = query(&c, "select a from t where a in (1, 4) or a between 5 and 9");
        assert_eq!(out.columns[0].as_ints().unwrap(), &[1, 4, 5]);
    }

    #[test]
    fn identity_scan_lends_the_source_chunk() {
        let c = catalog();
        let (plan, _) = compile_query("select * from t", &c).unwrap();
        let out = execute(&plan, &c).unwrap();
        let stored = c.table("t").unwrap().chunk();
        assert!(
            matches!(out.chunk, Cow::Borrowed(lent) if std::ptr::eq(lent, stored)),
            "no column was copied"
        );
    }

    #[test]
    fn count_star_needs_no_column() {
        // The scan projects nothing; the row count rides the candidates.
        let c = catalog();
        let out = query(&c, "select count(*) as n from t where a > 1");
        assert_eq!(out.row(0).unwrap(), vec![Value::Int(4)]);
    }

    #[test]
    fn limit_and_distinct_only_narrow_candidates() {
        let c = catalog();
        let out = query(&c, "select distinct s from t limit 2");
        assert_eq!(
            out.rows().unwrap(),
            vec![vec![Value::Str("x".into())], vec![Value::Str("y".into())]]
        );
    }

    #[test]
    fn no_consumption_for_plain_tables() {
        let c = catalog();
        let (plan, _) = compile_query("select a from t where a > 2", &c).unwrap();
        let outcome = execute(&plan, &c).unwrap();
        assert!(outcome.consumed.is_empty());
    }
}
