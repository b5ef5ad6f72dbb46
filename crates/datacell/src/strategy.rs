//! Processing strategies for multi-query workloads (§2.5).
//!
//! Given N standing selection queries over one input stream, the DataCell
//! can wire baskets and factories in three ways:
//!
//! * **separate baskets** — "maximum independence to each query and
//!   stream": every query gets a private input basket; the stream is
//!   *copied* into each. No coordination, N× replication cost.
//! * **shared baskets** — one basket, N registered readers; a tuple is
//!   removed once every factory has seen it. No replication, but the basket
//!   holds tuples until the slowest query passes.
//! * **cascading baskets** — for *disjoint* predicates: query `q1` removes
//!   the tuples that qualified its predicate window before `q2` reads, so
//!   later queries scan ever-smaller baskets. Control-token baskets
//!   serialize the chain (the auxiliary places of §2.4); the final stage
//!   drains leftovers no query wants.
//!
//! The deployment helpers here build each topology from the same query
//! specs, so the evaluation harness (bench `exp3_strategies`) compares them
//! on identical workloads.

use std::sync::Arc;

use datacell_bat::types::{DataType, Value};
use datacell_sql::Schema;

use crate::basket::{Basket, OverflowPolicy};
use crate::catalog::StreamCatalog;
use crate::error::{DataCellError, Result};
use crate::factory::{Factory, FactoryOutput};
use crate::scheduler::Scheduler;

/// The three §2.5 strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Private basket per query; stream copied N times.
    SeparateBaskets,
    /// One basket, shared-reader discipline.
    SharedBaskets,
    /// Disjoint predicate windows chained with control tokens.
    CascadingBaskets,
}

impl Strategy {
    /// Lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::SeparateBaskets => "separate",
            Strategy::SharedBaskets => "shared",
            Strategy::CascadingBaskets => "cascading",
        }
    }
}

/// One standing range-selection query: `lo <= column <= hi`.
#[derive(Debug, Clone)]
pub struct RangeQuery {
    /// Query (factory) name.
    pub name: String,
    /// Selected column (must exist in the stream schema).
    pub column: String,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl RangeQuery {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, column: impl Into<String>, lo: i64, hi: i64) -> Self {
        RangeQuery {
            name: name.into(),
            column: column.into(),
            lo,
            hi,
        }
    }
}

/// A deployed multi-query topology.
#[derive(Debug)]
pub struct Deployment {
    /// Which strategy was wired.
    pub strategy: Strategy,
    /// Baskets a receptor must feed. One for shared/cascading; N for
    /// separate (the copy is the receptor's fan-out, §2.1/§2.5).
    pub ingest: Vec<Arc<Basket>>,
    /// Per-query output baskets, in query order.
    pub outputs: Vec<(String, Arc<Basket>)>,
}

impl Deployment {
    /// Append one batch of rows to every ingest basket — for the separate
    /// strategy this performs the N-fold replication the paper charges that
    /// strategy with.
    pub fn ingest_rows(&self, rows: &[Vec<Value>]) -> Result<()> {
        for b in &self.ingest {
            b.append_rows(rows)?;
        }
        Ok(())
    }

    /// Total result tuples across all query outputs.
    pub fn total_output(&self) -> usize {
        self.outputs.iter().map(|(_, b)| b.len()).sum()
    }
}

/// Deploy `queries` over a stream of `user_schema` under `strategy`,
/// creating all baskets in `catalog` (prefixed with `stream`) and
/// registering one factory per query (plus cascade plumbing) with
/// `scheduler`.
///
/// The factories project the tuple's arrival timestamp through to the
/// output baskets, so latency sinks measure true end-to-end delay.
pub fn deploy(
    catalog: &mut StreamCatalog,
    scheduler: &Scheduler,
    strategy: Strategy,
    stream: &str,
    user_schema: Schema,
    queries: &[RangeQuery],
) -> Result<Deployment> {
    if queries.is_empty() {
        return Err(DataCellError::Wiring("no queries to deploy".into()));
    }
    for q in queries {
        if user_schema.index_of(&q.column).is_none() {
            return Err(DataCellError::Wiring(format!(
                "query {}: column {} not in stream schema",
                q.name, q.column
            )));
        }
    }
    match strategy {
        Strategy::SeparateBaskets => {
            deploy_separate(catalog, scheduler, stream, user_schema, queries)
        }
        Strategy::SharedBaskets => deploy_shared(catalog, scheduler, stream, user_schema, queries),
        Strategy::CascadingBaskets => {
            ensure_disjoint(queries)?;
            deploy_cascading(catalog, scheduler, stream, user_schema, queries)
        }
    }
}

/// [`deploy`] with bounded ingest baskets: each basket the receptor feeds
/// gets `capacity` tuples under `policy`, so the engine-level overflow
/// behaviour (block / reject / shed) applies from the very first hop. Used
/// by the backpressure experiment (`exp8_backpressure`).
#[allow(clippy::too_many_arguments)]
pub fn deploy_bounded(
    catalog: &mut StreamCatalog,
    scheduler: &Scheduler,
    strategy: Strategy,
    stream: &str,
    user_schema: Schema,
    queries: &[RangeQuery],
    capacity: usize,
    policy: OverflowPolicy,
) -> Result<Deployment> {
    let d = deploy(catalog, scheduler, strategy, stream, user_schema, queries)?;
    for b in &d.ingest {
        b.set_capacity(Some(capacity), policy);
    }
    Ok(d)
}

fn out_basket(
    catalog: &mut StreamCatalog,
    q: &RangeQuery,
    user_schema: &Schema,
) -> Result<Arc<Basket>> {
    // Output carries the full selected tuple (user columns); ts is carried
    // through separately by the factory.
    catalog.create_basket(&format!("{}_out", q.name), user_schema.clone())
}

fn projection_list(user_schema: &Schema, alias: &str) -> String {
    let mut cols: Vec<String> = user_schema
        .columns
        .iter()
        .map(|c| format!("{alias}.{}", c.name))
        .collect();
    cols.push(format!("{alias}.ts"));
    cols.join(", ")
}

fn deploy_separate(
    catalog: &mut StreamCatalog,
    scheduler: &Scheduler,
    stream: &str,
    user_schema: Schema,
    queries: &[RangeQuery],
) -> Result<Deployment> {
    let mut ingest = Vec::new();
    let mut outputs = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let in_name = format!("{stream}_{i}");
        let input = catalog.create_basket(&in_name, user_schema.clone())?;
        let output = out_basket(catalog, q, &user_schema)?;
        // Plain basket expression: the factory owns its basket, so it
        // consumes everything it reads; the range predicate sits outside.
        let sql = format!(
            "select {} from [select * from {in_name}] as s \
             where s.{} between {} and {}",
            projection_list(&user_schema, "s"),
            q.column,
            q.lo,
            q.hi
        );
        let factory = Factory::compile(
            &q.name,
            &sql,
            catalog,
            FactoryOutput::Basket(Arc::clone(&output)),
        )?;
        scheduler.add_factory(factory);
        ingest.push(input);
        outputs.push((q.name.clone(), output));
    }
    Ok(Deployment {
        strategy: Strategy::SeparateBaskets,
        ingest,
        outputs,
    })
}

fn deploy_shared(
    catalog: &mut StreamCatalog,
    scheduler: &Scheduler,
    stream: &str,
    user_schema: Schema,
    queries: &[RangeQuery],
) -> Result<Deployment> {
    let input = catalog.create_basket(stream, user_schema.clone())?;
    let mut outputs = Vec::new();
    for q in queries {
        let output = out_basket(catalog, q, &user_schema)?;
        let sql = format!(
            "select {} from [select * from {stream}] as s \
             where s.{} between {} and {}",
            projection_list(&user_schema, "s"),
            q.column,
            q.lo,
            q.hi
        );
        let mut factory = Factory::compile(
            &q.name,
            &sql,
            catalog,
            FactoryOutput::Basket(Arc::clone(&output)),
        )?;
        // Shared discipline: register a reader; tuples are removed only
        // once every query has seen them (§2.5).
        let reader = input.register_reader(true);
        factory.set_shared(stream, reader)?;
        scheduler.add_factory(factory);
        outputs.push((q.name.clone(), output));
    }
    Ok(Deployment {
        strategy: Strategy::SharedBaskets,
        ingest: vec![input],
        outputs,
    })
}

fn ensure_disjoint(queries: &[RangeQuery]) -> Result<()> {
    for (i, a) in queries.iter().enumerate() {
        for b in &queries[i + 1..] {
            if a.column == b.column && a.lo <= b.hi && b.lo <= a.hi {
                return Err(DataCellError::Wiring(format!(
                    "cascading strategy requires disjoint predicate windows; {} [{}, {}] \
                     overlaps {} [{}, {}]",
                    a.name, a.lo, a.hi, b.name, b.lo, b.hi
                )));
            }
        }
    }
    Ok(())
}

fn deploy_cascading(
    catalog: &mut StreamCatalog,
    scheduler: &Scheduler,
    stream: &str,
    user_schema: Schema,
    queries: &[RangeQuery],
) -> Result<Deployment> {
    let input = catalog.create_basket(stream, user_schema.clone())?;
    let token_schema = Schema::new(vec![("tok".into(), DataType::Int)]);
    // One token basket per chain edge; the loop-closing token basket
    // (primed with one token) gates the first stage so a new batch starts
    // only after the previous one fully traversed the chain.
    let n = queries.len();
    let mut tokens = Vec::with_capacity(n);
    for i in 0..n {
        tokens.push(catalog.create_basket(&format!("{stream}_tok{i}"), token_schema.clone())?);
    }
    tokens[n - 1].append_rows(&[vec![Value::Int(1)]])?; // prime the loop

    let mut outputs = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let output = out_basket(catalog, q, &user_schema)?;
        // Predicate window *inside* the basket expression: the stage
        // removes exactly the tuples that qualified its range, leaving the
        // rest for the next stage (§2.5).
        let sql = format!(
            "select {} from [select * from {stream} \
             where {stream}.{} between {} and {}] as s",
            projection_list(&user_schema, "s"),
            q.column,
            q.lo,
            q.hi
        );
        let mut factory = Factory::compile(
            &q.name,
            &sql,
            catalog,
            FactoryOutput::Basket(Arc::clone(&output)),
        )?;
        // Wait for the previous stage's token; emit ours afterwards.
        let prev = if i == 0 { n - 1 } else { i - 1 };
        factory.add_control_in(Arc::clone(&tokens[prev]));
        factory.add_control_out(Arc::clone(&tokens[i]));
        if i > 0 {
            // Later stages may face an already-empty basket (everything
            // matched earlier queries); they must still fire to pass the
            // token along.
            factory.set_require_data(false);
        }
        if i == n - 1 {
            // The terminal stage drops the leftovers nobody wants.
            factory.set_drain_inputs(true);
        }
        scheduler.add_factory(factory);
        outputs.push((q.name.clone(), output));
    }
    Ok(Deployment {
        strategy: Strategy::CascadingBaskets,
        ingest: vec![input],
        outputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::RwLock;

    fn schema() -> Schema {
        Schema::new(vec![("v".into(), DataType::Int)])
    }

    fn rows(values: &[i64]) -> Vec<Vec<Value>> {
        values.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    fn setup() -> (Arc<RwLock<StreamCatalog>>, Scheduler) {
        let catalog = Arc::new(RwLock::new(StreamCatalog::new()));
        let scheduler = Scheduler::new(Arc::clone(&catalog));
        (catalog, scheduler)
    }

    fn queries() -> Vec<RangeQuery> {
        vec![
            RangeQuery::new("q0", "v", 0, 9),
            RangeQuery::new("q1", "v", 10, 19),
            RangeQuery::new("q2", "v", 20, 29),
        ]
    }

    fn output_values(d: &Deployment, i: usize) -> Vec<i64> {
        let snap = d.outputs[i].1.snapshot();
        snap.columns[0].as_ints().unwrap().to_vec()
    }

    #[test]
    fn separate_strategy_copies_and_answers() {
        let (catalog, scheduler) = setup();
        let d = {
            let mut cat = catalog.write();
            deploy(
                &mut cat,
                &scheduler,
                Strategy::SeparateBaskets,
                "s",
                schema(),
                &queries(),
            )
            .unwrap()
        };
        assert_eq!(d.ingest.len(), 3, "one private basket per query");
        d.ingest_rows(&rows(&[5, 15, 25, 40])).unwrap();
        // Each basket received a full copy.
        for b in &d.ingest {
            assert_eq!(b.len(), 4);
        }
        scheduler.run_until_quiescent(100);
        assert_eq!(output_values(&d, 0), vec![5]);
        assert_eq!(output_values(&d, 1), vec![15]);
        assert_eq!(output_values(&d, 2), vec![25]);
        // Every private basket fully drained (plain basket expressions).
        for b in &d.ingest {
            assert!(b.is_empty());
        }
    }

    #[test]
    fn shared_strategy_no_copy_trims_after_all_readers() {
        let (catalog, scheduler) = setup();
        let d = {
            let mut cat = catalog.write();
            deploy(
                &mut cat,
                &scheduler,
                Strategy::SharedBaskets,
                "s",
                schema(),
                &queries(),
            )
            .unwrap()
        };
        assert_eq!(d.ingest.len(), 1, "a single shared basket");
        d.ingest_rows(&rows(&[5, 15, 25, 40])).unwrap();
        scheduler.run_until_quiescent(100);
        assert_eq!(output_values(&d, 0), vec![5]);
        assert_eq!(output_values(&d, 1), vec![15]);
        assert_eq!(output_values(&d, 2), vec![25]);
        // All readers have passed: basket trimmed.
        assert!(d.ingest[0].is_empty());
    }

    #[test]
    fn cascading_strategy_prunes_and_drains() {
        let (catalog, scheduler) = setup();
        let d = {
            let mut cat = catalog.write();
            deploy(
                &mut cat,
                &scheduler,
                Strategy::CascadingBaskets,
                "s",
                schema(),
                &queries(),
            )
            .unwrap()
        };
        d.ingest_rows(&rows(&[5, 15, 25, 40, 7])).unwrap();
        scheduler.run_until_quiescent(100);
        assert_eq!(output_values(&d, 0), vec![5, 7]);
        assert_eq!(output_values(&d, 1), vec![15]);
        assert_eq!(output_values(&d, 2), vec![25]);
        // 40 matched nobody; the terminal stage drained it.
        assert!(d.ingest[0].is_empty());
        // Chain is re-armed: a second batch flows through.
        d.ingest_rows(&rows(&[12, 99])).unwrap();
        scheduler.run_until_quiescent(100);
        assert_eq!(output_values(&d, 1), vec![15, 12]);
        assert!(d.ingest[0].is_empty());
    }

    #[test]
    fn cascading_rejects_overlapping_ranges() {
        let (catalog, scheduler) = setup();
        let mut cat = catalog.write();
        let overlapping = vec![
            RangeQuery::new("a", "v", 0, 10),
            RangeQuery::new("b", "v", 5, 15),
        ];
        let err = deploy(
            &mut cat,
            &scheduler,
            Strategy::CascadingBaskets,
            "s",
            schema(),
            &overlapping,
        )
        .unwrap_err();
        assert!(err.to_string().contains("disjoint"), "{err}");
    }

    #[test]
    fn unknown_column_rejected() {
        let (catalog, scheduler) = setup();
        let mut cat = catalog.write();
        let err = deploy(
            &mut cat,
            &scheduler,
            Strategy::SharedBaskets,
            "s",
            schema(),
            &[RangeQuery::new("q", "nope", 0, 1)],
        )
        .unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn all_strategies_agree_on_results() {
        // The invariant behind exp3: same workload, same answers.
        let data: Vec<i64> = (0..100).map(|i| (i * 37) % 60 - 10).collect();
        let mut per_strategy: Vec<Vec<Vec<i64>>> = Vec::new();
        for strategy in [
            Strategy::SeparateBaskets,
            Strategy::SharedBaskets,
            Strategy::CascadingBaskets,
        ] {
            let (catalog, scheduler) = setup();
            let d = {
                let mut cat = catalog.write();
                deploy(&mut cat, &scheduler, strategy, "s", schema(), &queries()).unwrap()
            };
            d.ingest_rows(&rows(&data)).unwrap();
            scheduler.run_until_quiescent(1000);
            let mut outs: Vec<Vec<i64>> = (0..3).map(|i| output_values(&d, i)).collect();
            for o in &mut outs {
                o.sort_unstable();
            }
            per_strategy.push(outs);
        }
        assert_eq!(per_strategy[0], per_strategy[1]);
        assert_eq!(per_strategy[1], per_strategy[2]);
        // Sanity: the workload actually produces output.
        assert!(per_strategy[0].iter().map(Vec::len).sum::<usize>() > 0);
    }
}
