//! Multi-query plan splitting (§3.2).
//!
//! "Assume two query plans, a lightweight query q1 and a heavy query q2
//! [sharing a basket]. With the shared baskets strategy we force q1 to wait
//! for q2 to finish […] A simple solution is to split a query plan into
//! multiple parts, such that part of the input can be released as soon as
//! possible, effectively eliminating the need for a fast query to wait for
//! a slow one."
//!
//! [`split`] cuts a compiled continuous plan at its consuming scan: the
//! *head* factory is just the scan + predicate window (cheap — one
//! vectorized selection), writing the surviving tuples into a private
//! intermediate basket; the *tail* factory is the entire remaining plan
//! reading that intermediate basket. On a shared input basket the head
//! advances its reader cursor immediately, so other queries' tuples are
//! released at selection speed rather than full-plan speed.

use std::sync::Arc;

use datacell_sql::logical::LogicalPlan;
use datacell_sql::Schema;

use crate::basket::{Basket, ReaderId};
use crate::catalog::StreamCatalog;
use crate::error::{DataCellError, Result};
use crate::factory::{Factory, FactoryOutput};

/// Result of splitting one continuous query.
#[derive(Debug)]
pub struct SplitQuery {
    /// The cheap head: consuming scan + predicate window → intermediate.
    pub head: Factory,
    /// The heavy tail: the rest of the plan over the intermediate basket.
    pub tail: Factory,
    /// The intermediate basket connecting them.
    pub intermediate: Arc<Basket>,
    /// The consumed source basket (the head's input).
    pub source: Arc<Basket>,
}

impl SplitQuery {
    /// Register a reader on the source basket and switch the head to the
    /// shared-cursor discipline — the §3.2 deployment: the head releases
    /// the shared basket at selection speed (its cursor advances as soon
    /// as the cheap scan has passed), while slower co-resident readers
    /// keep the tuples alive via the low-watermark trim.
    pub fn share_input(&mut self) -> Result<ReaderId> {
        let reader = self.source.register_reader(true);
        self.head.set_shared(self.source.name(), reader)?;
        Ok(reader)
    }
}

/// Split the continuous query `sql` (which must consume exactly one basket)
/// into head and tail factories connected by a fresh intermediate basket
/// named `{name}_mid`, created in `catalog`. The tail delivers to `output`.
pub fn split(
    catalog: &mut StreamCatalog,
    name: &str,
    sql: &str,
    output: FactoryOutput,
) -> Result<SplitQuery> {
    // Split *before* optimization: at bind time the consuming scan still
    // reads the whole tuple, which is exactly what the intermediate basket
    // must carry. Head and tail are optimized independently afterwards.
    let stmt = datacell_sql::parser::parse(sql)?;
    let query = match stmt {
        datacell_sql::ast::Statement::Select(q) => q,
        other => {
            return Err(DataCellError::Wiring(format!(
                "plan splitting expects a SELECT, got {}",
                other.kind()
            )))
        }
    };
    let logical = datacell_sql::resolve::bind_query(&query, &*catalog)?;
    let consumed = logical.consumed_baskets();
    let source = match consumed.as_slice() {
        [one] => one.clone(),
        other => {
            return Err(DataCellError::Wiring(format!(
                "plan splitting expects exactly one consumed basket, found {other:?}"
            )))
        }
    };
    let source_basket = catalog.basket(&source)?;

    // The intermediate basket mirrors the source's user schema; the head
    // carries the arrival timestamp through so end-to-end latency and
    // time windows survive the split.
    let mid_name = format!("{name}_mid");
    let user_schema = Schema {
        columns: source_basket.schema().columns[..source_basket.user_width()].to_vec(),
    };
    let intermediate = catalog.create_basket(&mid_name, user_schema)?;

    // Head plan: the consuming scan node, as-is (predicate window intact),
    // emitting the full tuple including ts.
    let mut head_logical: Option<LogicalPlan> = None;
    logical.walk(&mut |p| {
        if let LogicalPlan::Scan {
            table,
            consume: true,
            ..
        } = p
        {
            if *table == source && head_logical.is_none() {
                head_logical = Some(p.clone());
            }
        }
    });
    let head_logical = head_logical.expect("consumed basket implies consuming scan");
    let (head_plan, head_schema) =
        datacell_sql::physical::plan(datacell_sql::optimizer::optimize(head_logical))?;
    let head = Factory::from_plan(
        format!("{name}_head"),
        head_plan,
        head_schema,
        catalog,
        FactoryOutput::Basket(Arc::clone(&intermediate)),
    )?;

    // Tail plan: the original plan with the consuming scan retargeted to
    // the intermediate basket and its (already applied) predicate removed.
    let tail_logical = retarget(logical, &source, &mid_name);
    let (tail_plan, tail_schema) =
        datacell_sql::physical::plan(datacell_sql::optimizer::optimize(tail_logical))?;
    let tail = Factory::from_plan(
        format!("{name}_tail"),
        tail_plan,
        tail_schema,
        catalog,
        output,
    )?;

    Ok(SplitQuery {
        head,
        tail,
        intermediate,
        source: source_basket,
    })
}

/// Rewrite every consuming scan of `from` into a predicate-free consuming
/// scan of `to` (same schema shape: both carry user columns + ts). Also
/// used by the session's plan-sharing path to point a query's tail at a
/// shared intermediate basket.
pub(crate) fn retarget(plan: LogicalPlan, from: &str, to: &str) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            schema,
            consume,
            predicate,
            projection,
            window,
        } => {
            if consume && table == from {
                LogicalPlan::Scan {
                    table: to.to_string(),
                    schema,
                    consume: true,
                    predicate: None,
                    projection,
                    window,
                }
            } else {
                LogicalPlan::Scan {
                    table,
                    schema,
                    consume,
                    predicate,
                    projection,
                    window,
                }
            }
        }
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(retarget(*input, from, to)),
            predicate,
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(retarget(*input, from, to)),
            exprs,
        },
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => LogicalPlan::Join {
            left: Box::new(retarget(*left, from, to)),
            right: Box::new(retarget(*right, from, to)),
            left_keys,
            right_keys,
            residual,
        },
        LogicalPlan::Cross { left, right } => LogicalPlan::Cross {
            left: Box::new(retarget(*left, from, to)),
            right: Box::new(retarget(*right, from, to)),
        },
        LogicalPlan::Aggregate { input, group, aggs } => LogicalPlan::Aggregate {
            input: Box::new(retarget(*input, from, to)),
            group,
            aggs,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(retarget(*input, from, to)),
            keys,
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(retarget(*input, from, to)),
            n,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(retarget(*input, from, to)),
        },
        leaf @ LogicalPlan::ConstRow { .. } => leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Scheduler;
    use datacell_bat::types::{DataType, Value};
    use parking_lot::RwLock;

    fn setup() -> (Arc<RwLock<StreamCatalog>>, Scheduler) {
        let mut cat = StreamCatalog::new();
        cat.create_basket(
            "s",
            Schema::new(vec![
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Int),
            ]),
        )
        .unwrap();
        cat.create_basket(
            "res",
            Schema::new(vec![
                ("a".into(), DataType::Int),
                ("n".into(), DataType::Int),
            ]),
        )
        .unwrap();
        let catalog = Arc::new(RwLock::new(cat));
        let scheduler = Scheduler::new(Arc::clone(&catalog));
        (catalog, scheduler)
    }

    #[test]
    fn split_preserves_semantics() {
        let (catalog, scheduler) = setup();
        let sql = "select s2.a, count(*) as n \
                   from [select * from s where s.b > 10] as s2 \
                   group by s2.a order by s2.a";
        let (input, res) = {
            let mut cat = catalog.write();
            let res = cat.basket("res").unwrap();
            let sq = split(
                &mut cat,
                "heavy",
                sql,
                FactoryOutput::Basket(Arc::clone(&res)),
            )
            .unwrap();
            scheduler.add_factory(sq.head);
            scheduler.add_factory(sq.tail);
            (cat.basket("s").unwrap(), res)
        };
        let rows: Vec<Vec<Value>> = [(1, 20), (1, 30), (2, 5), (2, 40), (3, 15)]
            .iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect();
        input.append_rows(&rows).unwrap();
        scheduler.run_until_quiescent(100);
        // b > 10 survives: (1,20),(1,30),(2,40),(3,15) → groups 1:2, 2:1, 3:1.
        let snap = res.snapshot();
        assert_eq!(snap.columns[0].as_ints().unwrap(), &[1, 2, 3]);
        assert_eq!(snap.columns[1].as_ints().unwrap(), &[2, 1, 1]);
        // The predicate window consumed only qualifying tuples from the
        // source: (2,5) stays behind.
        assert_eq!(input.len(), 1);
    }

    #[test]
    fn head_releases_shared_basket_early() {
        let (catalog, scheduler) = setup();
        let sql = "select s2.a, count(*) as n \
                   from [select * from s] as s2 group by s2.a";
        let (input, head) = {
            let mut cat = catalog.write();
            let res = cat.basket("res").unwrap();
            let mut sq = split(&mut cat, "q", sql, FactoryOutput::Basket(res)).unwrap();
            sq.share_input().unwrap();
            let source = cat.basket("s").unwrap();
            let head = scheduler.add_factory(sq.head);
            scheduler.add_factory(sq.tail);
            (source, head)
        };
        // Another (slow) reader holds the shared basket.
        let slow = input.register_reader(true);
        input
            .append_rows(&[vec![Value::Int(1), Value::Int(2)]])
            .unwrap();
        // Fire only the head once.
        assert!(head.ready());
        head.step(None).unwrap();
        // Head has passed the tuple (its cursor advanced), the tuple is
        // only retained for the slow reader.
        assert_eq!(input.pending_for(slow), 1);
        let mid = catalog.read().basket("q_mid").unwrap();
        assert_eq!(mid.len(), 1, "tuple copied into the intermediate basket");
    }

    #[test]
    fn split_pipeline_drains_under_budgeted_drr_firings() {
        // A split head/tail chain must stay correct when the DRR policy
        // slices its firings: the head's shared cursor commits only the
        // served prefix, the tail fires off the intermediate basket, and
        // repeated budgeted rounds drain the same answer the Priority
        // sweep produces in one bulk firing.
        use crate::scheduler::Fairness;
        let (catalog, scheduler) = setup();
        scheduler.set_fairness(Fairness::DeficitRoundRobin { quantum: 200 });
        let sql = "select s2.a, count(*) as n \
                   from [select * from s] as s2 group by s2.a";
        let (input, res) = {
            let mut cat = catalog.write();
            let res = cat.basket("res").unwrap();
            let mut sq = split(
                &mut cat,
                "heavy",
                sql,
                FactoryOutput::Basket(Arc::clone(&res)),
            )
            .unwrap();
            sq.share_input().unwrap();
            scheduler.add_factory(sq.head);
            scheduler.add_factory(sq.tail);
            (cat.basket("s").unwrap(), res)
        };
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![Value::Int(i % 5), Value::Int(i)])
            .collect();
        input.append_rows(&rows).unwrap();
        scheduler.run_until_quiescent(10_000);
        // Whatever slicing DRR chose, the aggregate saw all 500 tuples.
        let snap = res.snapshot();
        let counts: i64 = snap.columns[1].as_ints().unwrap().iter().sum();
        assert_eq!(counts, 500, "no tuple lost or duplicated across slices");
        assert!(input.is_empty(), "sole reader passed: source trimmed");
    }

    #[test]
    fn split_rejects_multi_basket_plans() {
        let (catalog, _) = setup();
        let mut cat = catalog.write();
        cat.create_basket("s2", Schema::new(vec![("a".into(), DataType::Int)]))
            .unwrap();
        let err = split(
            &mut cat,
            "j",
            "select x.a from [select s.a from s join s2 on s.a = s2.a] as x",
            FactoryOutput::Discard,
        )
        .unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");
    }
}
