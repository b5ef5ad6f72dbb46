//! A REPL-style session over the catalog: parse → plan → execute.
//!
//! This is the classic "one-time query" path of the underlying DBMS — what
//! MonetDB/SQL gives you before the DataCell extension is loaded. The
//! DataCell layer builds its own session on top that additionally routes
//! `CREATE BASKET` / `CREATE CONTINUOUS QUERY` statements.

use datacell_bat::types::Value;
use datacell_sql::ast::{DropKind, Statement};
use datacell_sql::parser;
use datacell_sql::resolve::{bind_insert_rows, bind_query};
use datacell_sql::{Result, Schema, SqlError};

use crate::catalog::Catalog;
use crate::chunk::Chunk;
use crate::eval::eval_predicate;
use crate::exec::execute;

/// Result of running one statement.
#[derive(Debug, Clone)]
pub enum StatementResult {
    /// DDL acknowledged (created/dropped).
    Ack(String),
    /// Rows affected by INSERT/DELETE.
    Affected(usize),
    /// A query result.
    Rows(Chunk),
    /// An EXPLAIN rendering.
    Plan(String),
}

/// An interactive session over an owned [`Catalog`].
#[derive(Debug, Default)]
pub struct Session {
    catalog: Catalog,
}

impl Session {
    /// Fresh session with an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow the catalog (e.g. to pre-load data programmatically).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutably borrow the catalog.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Execute one SQL statement.
    pub fn run(&mut self, sql: &str) -> Result<StatementResult> {
        let stmt = parser::parse(sql)?;
        self.run_statement(stmt)
    }

    /// Execute a `;`-separated script, returning each statement's result.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<StatementResult>> {
        parser::parse_script(sql)?
            .into_iter()
            .map(|s| self.run_statement(s))
            .collect()
    }

    /// Convenience: run a SELECT and return its rows.
    pub fn query(&mut self, sql: &str) -> Result<Chunk> {
        match self.run(sql)? {
            StatementResult::Rows(c) => Ok(c),
            other => Err(SqlError::Plan(format!("expected rows, got {other:?}"))),
        }
    }

    fn run_statement(&mut self, stmt: Statement) -> Result<StatementResult> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                self.catalog
                    .create_table(&name, Schema::new(columns))
                    .map_err(SqlError::Kernel)?;
                Ok(StatementResult::Ack(format!("created table {name}")))
            }
            Statement::CreateBasket { .. }
            | Statement::CreateContinuousQuery { .. }
            | Statement::AlterContinuousQuery { .. }
            | Statement::SetQueryWeight { .. }
            | Statement::SetSchedulerWorkers { .. }
            | Statement::SetPlanSharing { .. } => Err(SqlError::Plan(
                "stream DDL requires a DataCell session (use datacell::DataCell)".into(),
            )),
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let schema = self
                    .catalog
                    .table(&table)
                    .map_err(SqlError::Kernel)?
                    .schema()
                    .clone();
                let bound = bind_insert_rows(&rows, columns.as_deref(), &schema)?;
                let t = self.catalog.table_mut(&table).map_err(SqlError::Kernel)?;
                let n = bound.len();
                for row in &bound {
                    t.append_row(row).map_err(SqlError::Kernel)?;
                }
                Ok(StatementResult::Affected(n))
            }
            Statement::Delete { table, predicate } => {
                let snapshot = self
                    .catalog
                    .table(&table)
                    .map_err(SqlError::Kernel)?
                    .chunk();
                let cands = match predicate {
                    None => datacell_bat::Candidates::all(snapshot.len()),
                    Some(ast_pred) => {
                        // Bind the predicate as if in `SELECT * FROM table
                        // WHERE pred`, then evaluate it on the snapshot.
                        let sql = render_delete_probe(&table);
                        let stmt = parser::parse(&sql)?;
                        let q = match stmt {
                            Statement::Select(mut q) => {
                                q.where_clause = Some(ast_pred);
                                q
                            }
                            _ => unreachable!(),
                        };
                        let plan = bind_query(&q, &self.catalog)?;
                        // Extract the bound predicate from the plan: it is
                        // fused into the scan by bind-time pushdown.
                        let mut pred = None;
                        plan.walk(&mut |p| {
                            if let datacell_sql::logical::LogicalPlan::Scan {
                                predicate: Some(pr),
                                ..
                            } = p
                            {
                                pred = Some(pr.clone());
                            }
                        });
                        match pred {
                            Some(p) => eval_predicate(&p, snapshot)?,
                            None => datacell_bat::Candidates::all(snapshot.len()),
                        }
                    }
                };
                let t = self.catalog.table_mut(&table).map_err(SqlError::Kernel)?;
                let n = t.delete_positions(&cands).map_err(SqlError::Kernel)?;
                Ok(StatementResult::Affected(n))
            }
            Statement::Select(q) => {
                let bound = bind_query(&q, &self.catalog)?;
                let optimized = datacell_sql::optimizer::optimize(bound);
                let (plan, _) = datacell_sql::physical::plan(optimized)?;
                let outcome = execute(&plan, &self.catalog)?;
                Ok(StatementResult::Rows(outcome.chunk.into_owned()))
            }
            Statement::Drop { kind, name } => match kind {
                DropKind::Table => {
                    self.catalog.drop_table(&name).map_err(SqlError::Kernel)?;
                    Ok(StatementResult::Ack(format!("dropped table {name}")))
                }
                _ => Err(SqlError::Plan(
                    "stream DDL requires a DataCell session".into(),
                )),
            },
            Statement::Explain(q) => {
                let bound = bind_query(&q, &self.catalog)?;
                let optimized = datacell_sql::optimizer::optimize(bound);
                let (plan, _) = datacell_sql::physical::plan(optimized)?;
                Ok(StatementResult::Plan(plan.display()))
            }
            Statement::ExplainAnalyze(q) => {
                let bound = bind_query(&q, &self.catalog)?;
                let optimized = datacell_sql::optimizer::optimize(bound);
                let (plan, _) = datacell_sql::physical::plan(optimized)?;
                let (_, stats) = crate::exec::execute_traced(&plan, &self.catalog)?;
                Ok(StatementResult::Plan(plan.display_analyzed(&stats)))
            }
            Statement::ShowQueries | Statement::ShowMetrics { .. } => Err(SqlError::Plan(
                "stream introspection requires a DataCell session (use datacell::DataCell)".into(),
            )),
        }
    }
}

fn render_delete_probe(table: &str) -> String {
    format!("select * from {table}")
}

/// Render a chunk's first column as values (test helper).
pub fn first_column_values(chunk: &Chunk) -> Vec<Value> {
    (0..chunk.len())
        .map(|i| chunk.columns[0].get(i).unwrap_or(Value::Nil))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddl_dml_query_roundtrip() {
        let mut s = Session::new();
        s.run("create table t (a int, b varchar(10))").unwrap();
        let r = s
            .run("insert into t values (1, 'x'), (2, 'y'), (3, 'x')")
            .unwrap();
        assert!(matches!(r, StatementResult::Affected(3)));
        let rows = s.query("select a from t where b = 'x' order by a").unwrap();
        assert_eq!(rows.columns[0].as_ints().unwrap(), &[1, 3]);
    }

    #[test]
    fn delete_with_predicate() {
        let mut s = Session::new();
        s.run("create table t (a int)").unwrap();
        s.run("insert into t values (1), (2), (3), (4)").unwrap();
        let r = s.run("delete from t where a % 2 = 0").unwrap();
        assert!(matches!(r, StatementResult::Affected(2)));
        let rows = s.query("select a from t order by a").unwrap();
        assert_eq!(rows.columns[0].as_ints().unwrap(), &[1, 3]);
        // Unconditional delete.
        let r = s.run("delete from t").unwrap();
        assert!(matches!(r, StatementResult::Affected(2)));
    }

    #[test]
    fn explain_renders() {
        let mut s = Session::new();
        s.run("create table t (a int)").unwrap();
        match s.run("explain select a from t where a > 3").unwrap() {
            StatementResult::Plan(text) => assert!(text.contains("ScanTable")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stream_ddl_redirects_to_datacell() {
        let mut s = Session::new();
        let err = s.run("create basket b (x int)").unwrap_err();
        assert!(err.to_string().contains("DataCell"), "{err}");
    }

    #[test]
    fn script_execution() {
        let mut s = Session::new();
        let results = s
            .run_script("create table t (a int); insert into t values (5); select a from t")
            .unwrap();
        assert_eq!(results.len(), 3);
        match &results[2] {
            StatementResult::Rows(c) => assert_eq!(c.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_type_mismatch_fails() {
        let mut s = Session::new();
        s.run("create table t (a int)").unwrap();
        assert!(s.run("insert into t values ('nope')").is_err());
    }
}
