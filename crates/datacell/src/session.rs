//! The DataCell session: the system's front door.
//!
//! A [`DataCell`] owns the stream catalog, the scheduler, and the periphery
//! threads, and accepts the full SQL surface: ordinary statements behave as
//! in the underlying DBMS, while the stream DDL — `CREATE BASKET` and
//! `CREATE CONTINUOUS QUERY` — builds the streaming topology. This is the
//! paper's positioning of DataCell "between the SQL-to-MAL compiler and the
//! MonetDB kernel": one language, one optimizer, two execution regimes.
//!
//! Semantics worth noting (§2.6):
//! * a basket named *outside* a basket expression "behaves as any
//!   (temporary) table" — `SELECT * FROM b` inspects without consuming;
//! * a one-time `SELECT` that *does* contain a basket expression consumes,
//!   once — registration via `CREATE CONTINUOUS QUERY` is what makes it
//!   continual.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use datacell_bat::candidates::Candidates;
use datacell_bat::column::Column;
use datacell_bat::types::{DataType, Value};
use datacell_engine::eval::eval_predicate;
use datacell_engine::{execute, execute_traced, Chunk, DataSource};
use datacell_sql::ast::{BasketOptions, DropKind, OverflowSpec, QueryLifecycle, Statement};
use datacell_sql::expr::ScalarExpr;
use datacell_sql::logical::LogicalPlan;
use datacell_sql::physical::PhysicalPlan;
use datacell_sql::resolve::{bind_insert_rows, bind_query};
use datacell_sql::{parser, Schema, SqlError};
use datacell_storage::{wal, BasketManifest, SegmentStore, WalRecord};
use parking_lot::{Mutex, RwLock};

use crate::basket::{Basket, Durability, ExclusiveAnchor, ReaderId, ReaderLease, TS_COLUMN};
use crate::catalog::{consumed_positions, StreamCatalog};
use crate::client::{
    DataCellBuilder, FromRow, OverflowPolicy, QueryHandle, StreamWriter, Subscription,
    SubscriptionMode, WriterTag,
};
use crate::emitter::{DeliveryMeter, Emitter, EmitterControl, Sink, Subscriber};
use crate::error::{DataCellError, Result};
use crate::events::{EngineEvent, EventKind, EventRing};
use crate::factory::{Factory, FactoryOutput};
use crate::metrics::{LatencyHistogram, MetricsSnapshot, NetMetricsSource, SessionMetrics};
use crate::petri::PetriNet;
use crate::planshare::{PlanShare, SharedNode};
use crate::scheduler::{SchedulePolicy, Scheduler, Transition};
use crate::window_join::WindowJoin;

/// Result of one statement.
#[derive(Debug, Clone)]
pub enum CellResult {
    /// DDL acknowledged.
    Ack(String),
    /// Rows affected.
    Affected(usize),
    /// Query result.
    Rows(Chunk),
    /// EXPLAIN rendering.
    Plan(String),
}

/// The data source of a one-time query over the whole stream catalog.
/// The baskets its basket expressions consume are snapshotted exclusively
/// up front, so [`CatalogSource::consume`] deletes through the snapshots'
/// anchors (§2.6); any other basket is inspected through a plain snapshot.
struct CatalogSource<'a> {
    cat: &'a StreamCatalog,
    consumed: Vec<(Arc<Basket>, Chunk, ExclusiveAnchor)>,
}

impl<'a> CatalogSource<'a> {
    fn new(cat: &'a StreamCatalog, plan: &PhysicalPlan) -> Result<Self> {
        let consumed = plan
            .consumed_baskets()
            .iter()
            .map(|name| {
                let basket = cat.basket(name)?;
                let (chunk, anchor) = basket.snapshot_exclusive(usize::MAX);
                Ok((basket, chunk, anchor))
            })
            .collect::<Result<_>>()?;
        Ok(CatalogSource { cat, consumed })
    }

    /// Delete what the query's basket expressions referenced.
    fn consume(&self, reports: &[(String, Candidates)]) -> Result<()> {
        for (basket, _, anchor) in &self.consumed {
            if let Some(gone) = consumed_positions(reports, basket.name()) {
                basket.consume_exclusive(anchor, &gone)?;
            }
        }
        Ok(())
    }
}

impl DataSource for CatalogSource<'_> {
    fn scan(&self, table: &str) -> datacell_bat::error::Result<Cow<'_, Chunk>> {
        if let Some((_, chunk, _)) = self.consumed.iter().find(|(b, ..)| b.name() == table) {
            return Ok(Cow::Borrowed(chunk));
        }
        if let Ok(b) = self.cat.basket(table) {
            return Ok(Cow::Owned(b.snapshot()));
        }
        self.cat.tables.scan(table)
    }
}

/// Session configuration resolved from [`DataCellBuilder`].
pub(crate) struct CellConfig {
    pub(crate) default_policy: SchedulePolicy,
    pub(crate) writer_batch: usize,
    pub(crate) basket_capacity: Option<usize>,
    pub(crate) overflow: OverflowPolicy,
    pub(crate) metrics: Option<Arc<SessionMetrics>>,
    pub(crate) listen: Option<String>,
    pub(crate) metrics_listen: Option<String>,
    pub(crate) auth_token: Option<String>,
    pub(crate) data_dir: Option<PathBuf>,
    pub(crate) durability: Durability,
}

/// What [`DataCell::recover`] rebuilt from the data directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Names of the baskets restored, in recovery order.
    pub baskets: Vec<String>,
    /// Tuples resident across the restored baskets.
    pub tuples: u64,
    /// Valid WAL bytes replayed.
    pub wal_bytes: u64,
    /// Torn WAL tail bytes dropped (a crash mid-write; the affected
    /// record was never acknowledged durable).
    pub torn_bytes: u64,
}

/// The DataCell system handle (see module docs).
pub struct DataCell {
    catalog: Arc<RwLock<StreamCatalog>>,
    scheduler: Scheduler,
    config: CellConfig,
    /// Continuous query name → output basket.
    query_outputs: Mutex<HashMap<String, Arc<Basket>>>,
    /// Continuous query name → the single competing-consumer reader shared
    /// by every [`SubscriptionMode::Shared`] subscriber of that query. The
    /// subscribers hold the lease; the last one to go deregisters the
    /// reader (an abandoned reader would hold the trim watermark forever).
    shared_readers: Mutex<HashMap<String, Weak<ReaderLease>>>,
    /// Every subscriber by query: in-process subscriptions and sink
    /// emitters alike. Entries die with their subscriber.
    subscribers: Mutex<Vec<(String, Weak<Subscriber>)>>,
    /// Every live [`StreamWriter`] — the receptors of the Petri net,
    /// network `STREAM` connections included. Entries die with their
    /// writer.
    writers: Mutex<Vec<Weak<WriterTag>>>,
    factory_registry: Mutex<Vec<Arc<Factory>>>,
    /// Cross-stream windowed-join transitions, kept so `DROP CONTINUOUS
    /// QUERY` can detach their reader cursors from the input baskets.
    window_joins: Mutex<Vec<Arc<WindowJoin>>>,
    /// Sink emitters, tagged with the continuous query they serve so
    /// dropping the query can stop exactly its emitters.
    emitters: Mutex<Vec<(String, Emitter)>>,
    /// Numbers writer and subscriber names, so they never collide.
    periphery_seq: AtomicU64,
    /// Shed/overflow totals of baskets that have since been dropped, so
    /// the session-level counters stay monotone across `DROP BASKET` /
    /// `DROP CONTINUOUS QUERY`.
    retired_shed: AtomicU64,
    retired_overflow: AtomicU64,
    /// The attached network transport's counter source (a `Weak` so the
    /// transport — which holds an `Arc<DataCell>` — never forms a cycle
    /// with the session).
    net_metrics: Mutex<Option<std::sync::Weak<dyn NetMetricsSource>>>,
    /// The storage subsystem's root (spill segments + WALs), present when
    /// the session has a [`DataCellBuilder::data_dir`].
    storage: Option<Arc<SegmentStore>>,
    /// Baskets rebuilt by [`DataCell::recover`] and not yet re-declared:
    /// `CREATE BASKET` / `CREATE CONTINUOUS QUERY` *adopt* these (same
    /// name, same schema) instead of failing with "already exists", so a
    /// startup script can be re-run unchanged after a crash.
    recovered: Mutex<HashSet<String>>,
    /// Multi-query plan-sharing registry: shared head factories and the
    /// queries subscribed to them. Lock order: `plan_share` before
    /// `catalog`.
    plan_share: Mutex<PlanShare>,
    /// Whether newly registered continuous queries go through the
    /// plan-sharing path ([`DataCellBuilder::plan_sharing`] / `SET PLAN
    /// SHARING ON|OFF`). Toggling affects registration only; queries
    /// already sharing keep their wiring until dropped.
    plan_sharing: AtomicBool,
    /// Ring of recent engine events (firings, overflow/shed, recovery,
    /// connection churn …) — see [`DataCell::recent_events`].
    events: Arc<EventRing>,
    /// Per-query end-to-end latency histograms, fed by every subscription
    /// sink of the query (basket entry → delivery). Kept across
    /// pause/resume; removed on drop.
    query_latency: Mutex<HashMap<String, Arc<LatencyHistogram>>>,
    /// Engine-clock µs stamp taken at session construction
    /// ([`MetricsSnapshot::uptime_micros`]).
    started_micros: i64,
}

impl Default for DataCell {
    fn default() -> Self {
        Self::new()
    }
}

impl DataCell {
    /// Fresh, empty system with default configuration. Equivalent to
    /// `DataCell::builder().build()`.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Configure a session: scheduling policy, writer batching, basket
    /// capacity/backpressure, and metrics. See [`DataCellBuilder`].
    pub fn builder() -> DataCellBuilder {
        DataCellBuilder::new()
    }

    pub(crate) fn from_builder(builder: DataCellBuilder) -> Result<Self> {
        let catalog = Arc::new(RwLock::new(StreamCatalog::new()));
        let scheduler = Scheduler::new(Arc::clone(&catalog));
        scheduler.set_fairness(builder.fairness);
        scheduler.set_workers(builder.workers);
        crate::clock::init();
        let events = Arc::new(EventRing::default());
        scheduler.set_events(Arc::clone(&events));
        let storage = match &builder.data_dir {
            Some(dir) => Some(Arc::new(SegmentStore::open(dir)?)),
            None => None,
        };
        let cell = DataCell {
            catalog,
            scheduler,
            config: CellConfig {
                default_policy: builder.default_policy,
                writer_batch: builder.writer_batch,
                basket_capacity: builder.basket_capacity,
                overflow: builder.overflow,
                metrics: builder.metrics.then(|| Arc::new(SessionMetrics::default())),
                listen: builder.listen,
                metrics_listen: builder.metrics_listen,
                auth_token: builder.auth_token,
                data_dir: builder.data_dir,
                durability: builder.durability,
            },
            query_outputs: Mutex::new(HashMap::new()),
            shared_readers: Mutex::new(HashMap::new()),
            subscribers: Mutex::new(Vec::new()),
            writers: Mutex::new(Vec::new()),
            factory_registry: Mutex::new(Vec::new()),
            window_joins: Mutex::new(Vec::new()),
            emitters: Mutex::new(Vec::new()),
            periphery_seq: AtomicU64::new(0),
            retired_shed: AtomicU64::new(0),
            retired_overflow: AtomicU64::new(0),
            net_metrics: Mutex::new(None),
            storage,
            recovered: Mutex::new(HashSet::new()),
            plan_share: Mutex::new(PlanShare::default()),
            plan_sharing: AtomicBool::new(builder.plan_sharing),
            events,
            query_latency: Mutex::new(HashMap::new()),
            started_micros: crate::clock::now_micros(),
        };
        if cell.config.durability == Durability::Persistent && cell.storage.is_none() {
            return Err(DataCellError::Storage(
                "durability(Persistent) requires a data_dir".into(),
            ));
        }
        if matches!(cell.config.overflow, OverflowPolicy::Spill { .. }) && cell.storage.is_none() {
            return Err(DataCellError::Storage(
                "overflow_policy(Spill) requires a data_dir".into(),
            ));
        }
        if builder.auto_start {
            cell.start();
        }
        Ok(cell)
    }

    /// The configured data directory, if any.
    pub fn data_dir(&self) -> Option<&std::path::Path> {
        self.config.data_dir.as_deref()
    }

    /// The shared catalog (programmatic data loading).
    pub fn catalog(&self) -> Arc<RwLock<StreamCatalog>> {
        Arc::clone(&self.catalog)
    }

    /// The TCP listen address configured through
    /// [`DataCellBuilder::listen`], if any. The session records the
    /// address; the `datacell-net` transport binds it.
    pub fn listen_addr(&self) -> Option<&str> {
        self.config.listen.as_deref()
    }

    /// The HTTP observability listen address configured through
    /// [`DataCellBuilder::metrics_listen`], if any. As with
    /// [`listen_addr`](DataCell::listen_addr) the session only records the
    /// address; `datacell-net`'s `HttpServer` binds it.
    pub fn metrics_listen_addr(&self) -> Option<&str> {
        self.config.metrics_listen.as_deref()
    }

    /// The front-door authentication token configured through
    /// [`DataCellBuilder::auth_token`], if any. Transports compare
    /// `HELLO <token>` / `Authorization: Bearer <token>` against this.
    pub fn auth_token(&self) -> Option<&str> {
        self.config.auth_token.as_deref()
    }

    /// The retained engine events, oldest first (see [`EventRing`]).
    pub fn recent_events(&self) -> Vec<EngineEvent> {
        self.events.recent()
    }

    /// The most recent `n` retained engine events, oldest first.
    pub fn recent_events_n(&self, n: usize) -> Vec<EngineEvent> {
        self.events.recent_n(n)
    }

    /// Total engine events recorded since the session was built (monotone;
    /// unlike [`recent_events`](Self::recent_events), unaffected by the
    /// ring's retention limit).
    pub fn events_recorded(&self) -> u64 {
        self.events.recorded()
    }

    /// Record an engine event into the session's ring. Public so attached
    /// transports (the `datacell-net` servers) can trace connection churn
    /// alongside engine events.
    pub fn record_event(&self, kind: EventKind, detail: impl Into<String>) {
        self.events.record(kind, detail);
    }

    /// True while the scheduler's background thread is running — the
    /// liveness half of the HTTP `/healthz` probe.
    pub fn is_running(&self) -> bool {
        self.scheduler.is_running()
    }

    /// Attach a network transport's counter source so
    /// [`DataCell::metrics`] reports per-connection traffic (the
    /// [`MetricsSnapshot::net`](crate::metrics::MetricsSnapshot) field).
    /// Only a `Weak` reference is kept: the snapshot disappears when the
    /// transport shuts down.
    pub fn register_net_metrics(&self, source: std::sync::Weak<dyn NetMetricsSource>) {
        *self.net_metrics.lock() = Some(source);
    }

    /// The scheduler (policy tuning, manual drive).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Look up a basket.
    pub fn basket(&self, name: &str) -> Result<Arc<Basket>> {
        self.catalog.read().basket(name)
    }

    /// Output basket of a registered continuous query.
    pub fn query_output(&self, query: &str) -> Result<Arc<Basket>> {
        self.query_outputs
            .lock()
            .get(query)
            .cloned()
            .ok_or_else(|| DataCellError::Catalog(format!("unknown continuous query {query}")))
    }

    /// Execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<CellResult> {
        let stmt = parser::parse(sql).map_err(DataCellError::Sql)?;
        self.execute_statement(stmt)
    }

    /// Execute a `;`-separated script.
    pub fn execute_script(&self, sql: &str) -> Result<Vec<CellResult>> {
        parser::parse_script(sql)
            .map_err(DataCellError::Sql)?
            .into_iter()
            .map(|s| self.execute_statement(s))
            .collect()
    }

    /// Convenience: run a one-time SELECT and get its rows.
    pub fn query(&self, sql: &str) -> Result<Chunk> {
        match self.execute(sql)? {
            CellResult::Rows(c) => Ok(c),
            other => Err(DataCellError::Runtime(format!(
                "expected rows, got {other:?}"
            ))),
        }
    }

    fn execute_statement(&self, stmt: Statement) -> Result<CellResult> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                self.catalog
                    .write()
                    .tables
                    .create_table(&name, Schema::new(columns))?;
                Ok(CellResult::Ack(format!("created table {name}")))
            }
            Statement::CreateBasket {
                name,
                columns,
                options,
            } => {
                let user_schema = Schema::new(columns);
                // A basket rebuilt by `recover()` is *adopted* by an
                // identical re-declaration, so startup scripts re-run
                // unchanged after a crash.
                if self.try_adopt(&name, &user_schema, &options)?.is_some() {
                    return Ok(CellResult::Ack(format!("adopted recovered basket {name}")));
                }
                let (capacity, policy, persistent) = self.resolve_basket_config(&options)?;
                let basket = self.catalog.write().create_basket(&name, user_schema)?;
                basket.set_parent_signal(self.scheduler.signal());
                basket.set_events(Arc::clone(&self.events));
                // Engine-level capacity: receptors, factories and writers
                // all hit the same bound.
                basket.set_capacity(capacity, policy);
                self.setup_basket_storage(&basket, capacity, policy, persistent)?;
                Ok(CellResult::Ack(format!("created basket {name}")))
            }
            Statement::CreateContinuousQuery { name, query } => {
                if !query.is_continuous() {
                    return Err(DataCellError::Wiring(format!(
                        "continuous query {name} must contain a basket expression (§2.6)"
                    )));
                }
                // Cost-based multi-query sharing: when enabled and the
                // plan's consuming-scan prefix matches (or can seed) a
                // shared node, register through the shared path instead.
                if self.plan_sharing.load(Ordering::Relaxed) {
                    if let Some(res) = self.try_register_shared(&name, &query)? {
                        return Ok(res);
                    }
                }
                let out_name = format!("{name}_out");
                // Compile against the current catalog.
                let (plan, out_schema) = {
                    let cat = self.catalog.read();
                    let bound = bind_query(&query, &*cat)?;
                    let optimized = datacell_sql::optimizer::optimize(bound);
                    datacell_sql::physical::plan(optimized)?
                };
                let output = self.create_query_output(&out_name, &out_schema)?;
                // Windowed scans route to the WindowJoin evaluator instead
                // of a plain factory: the stream layer shapes the per-source
                // window snapshots, the unchanged plan (and its join
                // kernels) does the rest. Note these plans fell through the
                // plan-sharing path above by construction — a windowed scan
                // is never a shareable prefix.
                if !plan.windowed_scans().is_empty() {
                    let wj = {
                        let cat = self.catalog.read();
                        WindowJoin::from_plan(
                            &name,
                            plan,
                            &cat,
                            FactoryOutput::Basket(Arc::clone(&output)),
                        )?
                    };
                    let wj = Arc::new(wj);
                    self.scheduler.add_transition(
                        Arc::clone(&wj) as Arc<dyn crate::scheduler::Transition>,
                        self.config.default_policy,
                    );
                    self.window_joins.lock().push(wj);
                    self.query_outputs.lock().insert(name.clone(), output);
                    self.events.record(
                        EventKind::QueryRegistered,
                        format!("{name} (windowed, output {out_name})"),
                    );
                    return Ok(CellResult::Ack(format!(
                        "registered continuous windowed query {name} (output basket {out_name})"
                    )));
                }
                let factory = {
                    let cat = self.catalog.read();
                    Factory::from_plan(
                        &name,
                        plan,
                        out_schema,
                        &cat,
                        FactoryOutput::Basket(Arc::clone(&output)),
                    )?
                };
                let handle = self
                    .scheduler
                    .add_factory_with_policy(factory, self.config.default_policy);
                self.factory_registry.lock().push(handle);
                self.query_outputs.lock().insert(name.clone(), output);
                self.events.record(
                    EventKind::QueryRegistered,
                    format!("{name} (output {out_name})"),
                );
                Ok(CellResult::Ack(format!(
                    "registered continuous query {name} (output basket {out_name})"
                )))
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let cat = self.catalog.read();
                if let Ok(basket) = cat.basket(&table) {
                    // Bind against the *user* schema (no ts).
                    let user_schema = Schema {
                        columns: basket.schema().columns[..basket.user_width()].to_vec(),
                    };
                    let bound = bind_insert_rows(&rows, columns.as_deref(), &user_schema)
                        .map_err(DataCellError::Sql)?;
                    basket.append_rows(&bound)?;
                    return Ok(CellResult::Affected(bound.len()));
                }
                drop(cat);
                let mut cat = self.catalog.write();
                let schema = cat.tables.table(&table)?.schema().clone();
                let bound = bind_insert_rows(&rows, columns.as_deref(), &schema)
                    .map_err(DataCellError::Sql)?;
                let t = cat.tables.table_mut(&table)?;
                for row in &bound {
                    t.append_row(row)?;
                }
                Ok(CellResult::Affected(bound.len()))
            }
            Statement::Delete { table, predicate } => {
                let cat = self.catalog.read();
                if let Ok(basket) = cat.basket(&table) {
                    if predicate.is_some() {
                        return Err(DataCellError::Runtime(
                            "DELETE with predicate on stream objects is not supported; \
                             use a consuming basket expression instead"
                                .into(),
                        ));
                    }
                    return Ok(CellResult::Affected(basket.clear()));
                }
                drop(cat);
                let mut cat = self.catalog.write();
                let cands = match predicate {
                    None => Candidates::all(cat.tables.table(&table)?.len()),
                    Some(pred) => {
                        // Bind as `select * from t where pred`: bind-time
                        // pushdown fuses the predicate into the scan, and
                        // conjuncts it cannot place (constants) stay in a
                        // filter over the same full-width schema.
                        let Statement::Select(mut q) =
                            parser::parse(&format!("select * from {table}"))?
                        else {
                            unreachable!("a SELECT parses as a SELECT")
                        };
                        q.where_clause = Some(pred);
                        let mut conjuncts = Vec::new();
                        bind_query(&q, &*cat)?.walk(&mut |p| match p {
                            LogicalPlan::Scan {
                                predicate: Some(e), ..
                            }
                            | LogicalPlan::Filter { predicate: e, .. } => conjuncts.push(e.clone()),
                            _ => {}
                        });
                        let t = cat.tables.table(&table)?;
                        match conjuncts
                            .into_iter()
                            .reduce(|a, b| ScalarExpr::And(Box::new(a), Box::new(b)))
                        {
                            Some(e) => eval_predicate(&e, t.chunk())?,
                            None => Candidates::all(t.len()),
                        }
                    }
                };
                let n = cat.tables.table_mut(&table)?.delete_positions(&cands)?;
                Ok(CellResult::Affected(n))
            }
            Statement::Select(q) => {
                let cat = self.catalog.read();
                let bound = bind_query(&q, &*cat)?;
                let optimized = datacell_sql::optimizer::optimize(bound);
                let (plan, _) = datacell_sql::physical::plan(optimized)?;
                let src = CatalogSource::new(&cat, &plan)?;
                let outcome = execute(&plan, &src).map_err(sql_err)?;
                // One-shot consumption of basket expressions (§2.6).
                src.consume(&outcome.consumed)?;
                Ok(CellResult::Rows(outcome.chunk.into_owned()))
            }
            Statement::Drop { kind, name } => match kind {
                DropKind::Table => {
                    self.catalog.write().tables.drop_table(&name)?;
                    Ok(CellResult::Ack(format!("dropped table {name}")))
                }
                DropKind::Basket => {
                    {
                        let mut cat = self.catalog.write();
                        if let Ok(b) = cat.basket(&name) {
                            self.retire_basket_stats(&b);
                        }
                        cat.drop_basket(&name)?;
                    }
                    self.remove_basket_storage(&name);
                    Ok(CellResult::Ack(format!("dropped basket {name}")))
                }
                DropKind::ContinuousQuery => {
                    self.drop_query(&name)?;
                    Ok(CellResult::Ack(format!("dropped continuous query {name}")))
                }
            },
            Statement::AlterContinuousQuery { name, action } => match action {
                QueryLifecycle::Pause => {
                    self.pause_query(&name)?;
                    Ok(CellResult::Ack(format!("paused continuous query {name}")))
                }
                QueryLifecycle::Resume => {
                    self.resume_query(&name)?;
                    Ok(CellResult::Ack(format!("resumed continuous query {name}")))
                }
            },
            Statement::SetQueryWeight { name, weight } => {
                // The parser guarantees weight >= 1.
                self.set_query_weight(&name, weight)?;
                Ok(CellResult::Ack(format!(
                    "set query {name} weight to {weight}"
                )))
            }
            Statement::SetPlanSharing { enabled } => {
                self.set_plan_sharing(enabled);
                // The toggle scopes to *future* registrations: queries
                // already wired to a shared prefix keep their wiring until
                // dropped. Say so in the ack instead of a bare OK, and
                // count what stays shared, so a client turning sharing off
                // is not misled into thinking existing plans unshared.
                let shared = self.plan_share.lock().nodes.len();
                Ok(CellResult::Ack(format!(
                    "set plan sharing {} (affects future registrations; {} shared subplan{} unchanged)",
                    if enabled { "on" } else { "off" },
                    shared,
                    if shared == 1 { "" } else { "s" },
                )))
            }
            Statement::SetSchedulerWorkers { workers } => {
                // The parser guarantees workers >= 1. If the scheduler is
                // running this restarts its background thread (and worker
                // pool) at the new width; queued firings drain first, so
                // nothing is lost across the resize.
                self.scheduler.set_workers(workers as usize);
                Ok(CellResult::Ack(format!(
                    "set scheduler workers to {workers}"
                )))
            }
            Statement::Explain(q) => {
                let cat = self.catalog.read();
                let bound = bind_query(&q, &*cat)?;
                let optimized = datacell_sql::optimizer::optimize(bound);
                let (plan, _) = datacell_sql::physical::plan(optimized)?;
                Ok(CellResult::Plan(plan.display()))
            }
            Statement::ExplainAnalyze(q) => {
                // Same execution as a one-time SELECT — including the
                // one-shot consumption of basket expressions (§2.6) — but
                // traced, and rendering the annotated plan instead of the
                // rows.
                let cat = self.catalog.read();
                let bound = bind_query(&q, &*cat)?;
                let optimized = datacell_sql::optimizer::optimize(bound);
                let (plan, _) = datacell_sql::physical::plan(optimized)?;
                let src = CatalogSource::new(&cat, &plan)?;
                let (outcome, stats) = execute_traced(&plan, &src).map_err(sql_err)?;
                src.consume(&outcome.consumed)?;
                Ok(CellResult::Plan(plan.display_analyzed(&stats)))
            }
            Statement::ShowQueries => self.show_queries(),
            Statement::ShowMetrics { query } => self.show_metrics(query.as_deref()),
        }
    }

    /// `SHOW QUERIES`: one row per registered continuous query with its
    /// scheduler state and counters, ordered by name.
    fn show_queries(&self) -> Result<CellResult> {
        let queries: Vec<String> = {
            let mut names: Vec<String> = self.query_outputs.lock().keys().cloned().collect();
            names.sort();
            names
        };
        let per_query = self.scheduler.transition_metrics();
        let schema = Schema::new(vec![
            ("query".into(), DataType::Str),
            ("state".into(), DataType::Str),
            ("output".into(), DataType::Str),
            ("firings".into(), DataType::Int),
            ("tuples_in".into(), DataType::Int),
            ("busy_micros".into(), DataType::Int),
            ("deferrals".into(), DataType::Int),
            ("weight".into(), DataType::Int),
        ]);
        let mut columns: Vec<Column> = schema
            .columns
            .iter()
            .map(|c| Column::with_capacity(c.ty, queries.len()))
            .collect();
        for name in &queries {
            let state = match self.scheduler.is_paused(name) {
                Ok(true) => "paused",
                Ok(false) => "running",
                // Shared-prefix tails are scheduled under the query's own
                // name; anything unknown to the scheduler is draining.
                Err(_) => "detached",
            };
            let output = self
                .query_outputs
                .lock()
                .get(name)
                .map(|b| b.name().to_string())
                .unwrap_or_default();
            let m = per_query.iter().find(|m| &m.name == name);
            columns[0]
                .push(&Value::Str(name.clone()))
                .map_err(sql_err_kernel)?;
            columns[1]
                .push(&Value::Str(state.into()))
                .map_err(sql_err_kernel)?;
            columns[2]
                .push(&Value::Str(output))
                .map_err(sql_err_kernel)?;
            let ints = [
                m.map_or(0, |m| m.firings),
                m.map_or(0, |m| m.tuples_in),
                m.map_or(0, |m| m.busy_micros),
                m.map_or(0, |m| m.deferrals),
                m.map_or(1, |m| m.weight as u64),
            ];
            for (col, v) in columns[3..].iter_mut().zip(ints) {
                col.push(&Value::Int(v as i64)).map_err(sql_err_kernel)?;
            }
        }
        Ok(CellResult::Rows(
            Chunk::new(schema, columns).map_err(|e| DataCellError::Sql(SqlError::Kernel(e)))?,
        ))
    }

    /// `SHOW METRICS [FOR query]`: the metrics snapshot as (metric, value)
    /// rows — session-wide without `FOR`, one query's counters with it.
    fn show_metrics(&self, query: Option<&str>) -> Result<CellResult> {
        let snap = self.metrics();
        let mut rows: Vec<(String, f64)> = Vec::new();
        match query {
            None => {
                rows.push(("scheduler_passes".into(), snap.scheduler_passes as f64));
                rows.push(("factory_firings".into(), snap.factory_firings as f64));
                rows.push(("factory_errors".into(), snap.factory_errors as f64));
                rows.push(("factory_deferrals".into(), snap.factory_deferrals as f64));
                rows.push(("workers".into(), snap.workers as f64));
                rows.push(("firings_parallel".into(), snap.firings_parallel as f64));
                rows.push(("worker_steals".into(), snap.steals as f64));
                rows.push(("tuples_ingested".into(), snap.tuples_ingested as f64));
                rows.push(("ingest_rate".into(), snap.ingest_rate));
                rows.push(("tuples_delivered".into(), snap.tuples_delivered as f64));
                rows.push(("delivery_rate".into(), snap.delivery_rate));
                rows.push(("mean_latency_micros".into(), snap.mean_latency_micros));
                rows.push(("p99_latency_micros".into(), snap.p99_latency_micros as f64));
                rows.push(("tuples_shed".into(), snap.tuples_shed as f64));
                rows.push(("overflow_events".into(), snap.overflow_events as f64));
                rows.push(("shared_subplans".into(), snap.shared_subplans as f64));
                rows.push(("events_recorded".into(), self.events.recorded() as f64));
                rows.push(("uptime_micros".into(), snap.uptime_micros as f64));
            }
            Some(q) => {
                let m = snap.per_query.iter().find(|m| m.name == q).ok_or_else(|| {
                    DataCellError::Catalog(format!("unknown continuous query {q}"))
                })?;
                rows.push(("firings".into(), m.firings as f64));
                rows.push(("busy_micros".into(), m.busy_micros as f64));
                rows.push(("tuples_in".into(), m.tuples_in as f64));
                rows.push(("deferrals".into(), m.deferrals as f64));
                rows.push(("weight".into(), m.weight as f64));
                rows.push(("sched_delay_micros".into(), m.sched_delay_micros as f64));
                rows.push(("consecutive_skips".into(), m.consecutive_skips as f64));
                rows.push(("undelivered".into(), m.undelivered as f64));
                rows.push((
                    "firing_p50_micros".into(),
                    m.firing_micros.quantile_micros(0.5) as f64,
                ));
                rows.push((
                    "firing_p99_micros".into(),
                    m.firing_micros.quantile_micros(0.99) as f64,
                ));
                if let Some((_, h)) = snap.per_query_latency.iter().find(|(name, _)| name == q) {
                    rows.push(("delivered_latency_count".into(), h.count as f64));
                    rows.push(("latency_p50_micros".into(), h.quantile_micros(0.5) as f64));
                    rows.push(("latency_p99_micros".into(), h.quantile_micros(0.99) as f64));
                }
            }
        }
        let schema = Schema::new(vec![
            ("metric".into(), DataType::Str),
            ("value".into(), DataType::Float),
        ]);
        let mut metric = Column::with_capacity(DataType::Str, rows.len());
        let mut value = Column::with_capacity(DataType::Float, rows.len());
        for (name, v) in rows {
            metric.push(&Value::Str(name)).map_err(sql_err_kernel)?;
            value.push(&Value::Float(v)).map_err(sql_err_kernel)?;
        }
        Ok(CellResult::Rows(
            Chunk::new(schema, vec![metric, value])
                .map_err(|e| DataCellError::Sql(SqlError::Kernel(e)))?,
        ))
    }

    // ---------------- typed client facade ----------------

    /// A typed, schema-validated, batched [`StreamWriter`] for the named
    /// basket, flushing every
    /// [`writer_batch_size`](crate::DataCellBuilder::writer_batch_size)
    /// rows. Capacity and overflow are the basket's own.
    pub fn writer(&self, basket: &str) -> Result<StreamWriter> {
        self.writer_with(basket, self.config.writer_batch)
    }

    /// A [`StreamWriter`] that flushes every `batch_size` rows
    /// (`usize::MAX`: only when told to).
    pub fn writer_with(&self, basket: &str, batch_size: usize) -> Result<StreamWriter> {
        let b = self.catalog.read().basket(basket)?;
        let seq = self.periphery_seq.fetch_add(1, Ordering::Relaxed);
        let tag = Arc::new(WriterTag {
            name: format!("writer-{basket}#{seq}"),
            basket: basket.to_string(),
        });
        {
            let mut writers = self.writers.lock();
            writers.retain(|w| w.strong_count() > 0);
            writers.push(Arc::downgrade(&tag));
        }
        Ok(StreamWriter::new(
            b,
            batch_size,
            self.config.metrics.clone(),
            tag,
        ))
    }

    /// Subscribe to a continuous query's results, decoding each delivered
    /// tuple into `T` (see [`FromRow`]): tuples of primitives,
    /// `Vec<Value>` for raw rows, or `String` for the textual wire format.
    ///
    /// Subscriptions are **broadcast**: each registers its own reader on
    /// the query's output basket, so with several subscriptions on one
    /// query *every* subscriber sees every tuple, and a tuple leaves the
    /// basket only once all of them have claimed it. For
    /// competing-consumer delivery use [`DataCell::subscribe_with`] and
    /// [`SubscriptionMode::Shared`]. The subscription closes when the query
    /// is dropped or the session stops.
    pub fn subscribe<T: FromRow>(&self, query: &str) -> Result<Subscription<T>> {
        self.subscribe_with(query, SubscriptionMode::Broadcast)
    }

    /// Subscribe with an explicit fan-out mode: [`SubscriptionMode::
    /// Broadcast`] (every subscriber sees every tuple) or
    /// [`SubscriptionMode::Shared`] (the query's shared subscriptions form
    /// a competing-consumer pool; each tuple goes to exactly one of them).
    pub fn subscribe_with<T: FromRow>(
        &self,
        query: &str,
        mode: SubscriptionMode,
    ) -> Result<Subscription<T>> {
        let (subscriber, meter) = self.subscriber(query, mode, "sub")?;
        Ok(Subscription::new(
            query.to_string(),
            subscriber,
            mode,
            meter,
        ))
    }

    /// Deliver a continuous query's results into a caller-supplied
    /// [`Sink`] — how a transport (the `datacell-net` socket subscriber)
    /// subscribes. The sink runs on an engine-side emitter thread with the
    /// same fan-out `mode` as [`DataCell::subscribe_with`]; under
    /// [`SubscriptionMode::Shared`] a claim commits once `deliver` returns
    /// `Ok`, so the sink must return `Ok` only for rows that reached their
    /// consumer, and a failed delivery commits just the prefix its
    /// [`PartialDelivery`](crate::emitter::PartialDelivery) vouches for.
    /// The returned control stops the emitter (rewinding an undelivered
    /// claim); dropping the query or stopping the session stops it too.
    pub fn subscribe_sink(
        &self,
        query: &str,
        mode: SubscriptionMode,
        mut sink: impl Sink + 'static,
    ) -> Result<EmitterControl> {
        let (subscriber, meter) = self.subscriber(query, mode, "emit")?;
        sink.bind_meter(meter);
        let (basket, reader) = (Arc::clone(subscriber.lease.basket()), subscriber.lease.id());
        let emitter = Emitter::spawn(subscriber.name.clone(), basket, reader, sink, move || {
            drop(subscriber)
        })?;
        let control = emitter.control();
        let mut emitters = self.emitters.lock();
        // Subscribers come and go (a connection per network subscriber):
        // forget the emitters that have already exited.
        emitters.retain(|(_, e)| !e.is_finished());
        emitters.push((query.to_string(), emitter));
        Ok(control)
    }

    /// Register one subscriber of `query` — the one place subscriptions
    /// are wired: its reader on the output basket (its own under
    /// [`SubscriptionMode::Broadcast`], the query's one pool reader under
    /// [`SubscriptionMode::Shared`]), its delivery accounts, and its entry
    /// in the subscriber registry (Petri net, `undelivered` metric).
    fn subscriber(
        &self,
        query: &str,
        mode: SubscriptionMode,
        kind: &str,
    ) -> Result<(Arc<Subscriber>, DeliveryMeter)> {
        let out = self.query_output(query)?;
        let lease = match mode {
            SubscriptionMode::Broadcast => Arc::new(ReaderLease::register(out, true)),
            SubscriptionMode::Shared => {
                let mut pools = self.shared_readers.lock();
                match pools.get(query).and_then(Weak::upgrade) {
                    Some(lease) => lease,
                    None => {
                        let lease = Arc::new(ReaderLease::register(out, true));
                        pools.insert(query.to_string(), Arc::downgrade(&lease));
                        lease
                    }
                }
            }
        };
        // The `#seq` suffix is globally unique, so subscriber names can
        // never collide across queries (e.g. a query literally named "q-1").
        let seq = self.periphery_seq.fetch_add(1, Ordering::Relaxed);
        let subscriber = Arc::new(Subscriber {
            name: format!("{kind}-{query}#{seq}"),
            lease,
        });
        {
            let mut subscribers = self.subscribers.lock();
            subscribers.retain(|(_, s)| s.strong_count() > 0);
            subscribers.push((query.to_string(), Arc::downgrade(&subscriber)));
        }
        // Per-query latency attribution: every subscriber of a query feeds
        // the query's one histogram, recorded independently of the
        // session-metrics toggle.
        let hist = Arc::clone(
            self.query_latency
                .lock()
                .entry(query.to_string())
                .or_default(),
        );
        let meter = DeliveryMeter::new(hist, self.config.metrics.clone());
        Ok((subscriber, meter))
    }

    /// The live subscribers, each with its query.
    fn live_subscribers(&self) -> Vec<(String, Arc<Subscriber>)> {
        self.subscribers
            .lock()
            .iter()
            .filter_map(|(q, s)| Some((q.clone(), s.upgrade()?)))
            .collect()
    }

    /// Register a continuous query from its SELECT text and return its
    /// lifecycle [`QueryHandle`] — the typed equivalent of
    /// `CREATE CONTINUOUS QUERY name AS select`.
    pub fn continuous_query(&self, name: &str, select_sql: &str) -> Result<QueryHandle<'_>> {
        let stmt = parser::parse(select_sql).map_err(DataCellError::Sql)?;
        let query = match stmt {
            Statement::Select(q) => q,
            other => {
                return Err(DataCellError::Sql(SqlError::Plan(format!(
                    "continuous_query expects a SELECT, got {}",
                    other.kind()
                ))))
            }
        };
        self.execute_statement(Statement::CreateContinuousQuery {
            name: name.to_string(),
            query,
        })?;
        self.query_handle(name)
    }

    /// Lifecycle handle for a registered continuous query
    /// (pause / resume / drop; see [`QueryHandle`]).
    pub fn query_handle(&self, name: &str) -> Result<QueryHandle<'_>> {
        if !self.query_outputs.lock().contains_key(name) {
            return Err(DataCellError::Catalog(format!(
                "unknown continuous query {name}"
            )));
        }
        Ok(QueryHandle::new(self, name.to_string()))
    }

    /// Pause a continuous query: the scheduler stops firing its factory
    /// while its input baskets keep buffering. Works for SQL-registered
    /// queries and factories added programmatically via `add_factory`.
    pub fn pause_query(&self, name: &str) -> Result<()> {
        self.scheduler
            .set_paused(name, true)
            .map_err(|e| self.lifecycle_err(name, e))
    }

    /// Resume a paused continuous query; the backlog is processed in one
    /// bulk step.
    pub fn resume_query(&self, name: &str) -> Result<()> {
        self.scheduler
            .set_paused(name, false)
            .map_err(|e| self.lifecycle_err(name, e))
    }

    /// Declare a windowed query's input streams quiescent and close every
    /// remaining window at each stream's horizon (last-seen timestamp),
    /// draining the buffered state into the output basket. This is the
    /// explicit fix for the idle-stream stall: a time window only closes
    /// online when a later tuple arrives on the *same* stream, so a stream
    /// that goes quiescent leaves its last window — and any join partner's
    /// eviction — hanging forever. A tuple arriving after the flush and
    /// below the flushed horizon is dropped; the caller owns that
    /// soundness trade (see `docs/windows.md`).
    pub fn flush_query(&self, name: &str) -> Result<()> {
        let wj = self.window_join(name)?;
        // Snapshot only the stored tables the plan scans, then release the
        // catalog lock before draining: a flush evaluates every remaining
        // window through the full plan, and holding the session-wide read
        // lock for that long would block all DDL (CREATE/DROP) behind it.
        // The join's input baskets also appear as plan scans but are served
        // from the join's own window buffers, not the table catalog.
        let inputs = wj.input_names();
        let table_names: Vec<String> = wj
            .scanned_tables()
            .into_iter()
            .filter(|t| !inputs.contains(t))
            .collect();
        if table_names.is_empty() {
            return wj.flush(None).map(|_| ());
        }
        let mut tables = datacell_engine::Catalog::new();
        {
            let cat = self.catalog.read();
            for t in &table_names {
                let snap = cat.tables.table(t)?.snapshot();
                tables.create_table(t, snap.schema.clone())?;
                tables.table_mut(t)?.append_chunk(&snap)?;
            }
        }
        wj.flush(Some(&tables)).map(|_| ())
    }

    /// The transition running a windowed continuous query (its counters,
    /// buffers and explicit [`WindowJoin::flush`]).
    pub fn window_join(&self, name: &str) -> Result<Arc<WindowJoin>> {
        self.window_joins
            .lock()
            .iter()
            .find(|w| w.name() == name)
            .cloned()
            .ok_or_else(|| {
                DataCellError::Catalog(format!("unknown windowed continuous query {name}"))
            })
    }

    /// True iff the named continuous query is paused.
    pub fn is_query_paused(&self, name: &str) -> Result<bool> {
        self.scheduler
            .is_paused(name)
            .map_err(|e| self.lifecycle_err(name, e))
    }

    /// Set a continuous query's deficit-round-robin weight (clamped to
    /// ≥ 1) — its relative share of scheduler busy time under
    /// [`Fairness`](crate::scheduler::Fairness)`::DeficitRoundRobin`.
    /// Equivalent to the SQL `SET QUERY WEIGHT name = 3`; also reaches
    /// factories registered programmatically via `add_factory`.
    pub fn set_query_weight(&self, name: &str, weight: u32) -> Result<()> {
        self.scheduler
            .set_weight(name, weight)
            .map_err(|e| self.lifecycle_err(name, e))
    }

    /// Drop a continuous query: detach its factory from the scheduler,
    /// remove the output basket from the catalog, close it so every
    /// [`Subscription`] ends, and stop its emitters. Equivalent to the SQL
    /// `DROP CONTINUOUS QUERY name`; also detaches factories registered
    /// programmatically via `add_factory` (which have no output basket or
    /// emitters of their own). Waits out a firing of the query in flight
    /// (see [`Scheduler::remove_factory`]).
    pub fn drop_query(&self, name: &str) -> Result<()> {
        self.scheduler
            .remove_factory(name)
            .map_err(|e| self.lifecycle_err(name, e))?;
        self.factory_registry.lock().retain(|f| f.name() != name);
        // Windowed joins additionally hold a reader cursor per input
        // basket; detach them so the inputs stop retaining tuples.
        self.window_joins.lock().retain(|wj| {
            if wj.name() == name {
                wj.detach();
                false
            } else {
                true
            }
        });
        self.shared_readers.lock().remove(name);
        self.subscribers.lock().retain(|(q, _)| q != name);
        // Plan sharing: detach this query's reader from its shared
        // intermediate; the last subscriber retires the shared head.
        self.release_shared(name);
        let out = self.query_outputs.lock().remove(name);
        if let Some(out) = out {
            out.close();
            self.retire_basket_stats(&out);
            let _ = self.catalog.write().drop_basket(out.name());
            if out.has_storage() {
                self.remove_basket_storage(out.name());
            }
        }
        // Take this query's emitters out of the registry, then stop them
        // outside the lock (stop joins the thread).
        let mine: Vec<Emitter> = {
            let mut emitters = self.emitters.lock();
            let mut mine = Vec::new();
            let mut keep = Vec::with_capacity(emitters.len());
            for (query, e) in emitters.drain(..) {
                if query == name {
                    mine.push(e);
                } else {
                    keep.push((query, e));
                }
            }
            *emitters = keep;
            mine
        };
        for e in mine {
            e.stop();
        }
        self.query_latency.lock().remove(name);
        self.events
            .record(EventKind::QueryDropped, name.to_string());
        Ok(())
    }

    // ---------------- multi-query plan sharing ----------------

    /// Enable or disable cost-based multi-query plan sharing for
    /// *subsequently registered* continuous queries (SQL: `SET PLAN
    /// SHARING ON|OFF`; builder: [`DataCellBuilder::plan_sharing`]).
    /// Queries already wired to a shared prefix keep their wiring until
    /// dropped.
    pub fn set_plan_sharing(&self, enabled: bool) {
        self.plan_sharing.store(enabled, Ordering::Relaxed);
    }

    /// Whether plan sharing is currently enabled.
    pub fn plan_sharing(&self) -> bool {
        self.plan_sharing.load(Ordering::Relaxed)
    }

    /// Try to register `name` through the plan-sharing path. Returns
    /// `Ok(None)` when the plan is not shareable (not exactly one
    /// consuming scan), in which case the caller falls through to the
    /// private-plan path.
    ///
    /// The shareable prefix is the consuming scan with its fused
    /// predicate window, extracted *before* optimization (the scan still
    /// reads the whole tuple — exactly what the shared intermediate
    /// basket must carry) and then optimized in isolation so equivalent
    /// predicates (`b > 1+1` vs `b > 2`) land on the same shared node. A
    /// hit — fingerprint prefilter, `==` confirmation, same source
    /// basket — subscribes the query's tail to the existing intermediate;
    /// a miss builds the shared head first. Either way the tail factory
    /// carries the query's own name, so pause/resume/drop/weight
    /// addressing is unchanged.
    fn try_register_shared(
        &self,
        name: &str,
        query: &datacell_sql::ast::Query,
    ) -> Result<Option<CellResult>> {
        let logical = {
            let cat = self.catalog.read();
            bind_query(query, &*cat)?
        };
        let Some(prefix) = datacell_sql::optimizer::shared_prefix(&logical) else {
            return Ok(None);
        };
        let source = match logical.consumed_baskets().as_slice() {
            [one] => one.clone(),
            _ => return Ok(None),
        };
        let prefix = datacell_sql::optimizer::optimize(prefix);
        let fingerprint = prefix.fingerprint();

        // Lock order: plan_share before catalog.
        let mut ps = self.plan_share.lock();
        let (mid, mid_name, created) = match ps.find_mut(fingerprint, &prefix, &source) {
            Some(node) => {
                let mid = self.catalog.read().basket(&node.mid_name)?;
                (mid, node.mid_name.clone(), false)
            }
            None => {
                ps.seq += 1;
                let mid_name = format!("mqo{}_mid", ps.seq);
                let head_name = format!("mqo{}_head", ps.seq);
                let source_basket = self.catalog.read().basket(&source)?;
                let user_schema = Schema {
                    columns: source_basket.schema().columns[..source_basket.user_width()].to_vec(),
                };
                // The shared intermediate gets the session-default
                // capacity/overflow/durability like any query plumbing
                // basket; a recovered one (same name, same schema) is
                // adopted so startup scripts replay after a crash.
                let mid =
                    match self.try_adopt(&mid_name, &user_schema, &BasketOptions::default())? {
                        Some(b) => b,
                        None => {
                            let (capacity, policy, persistent) =
                                self.resolve_basket_config(&BasketOptions::default())?;
                            let b = {
                                let mut cat = self.catalog.write();
                                let b = cat.create_basket(&mid_name, user_schema)?;
                                b.set_parent_signal(self.scheduler.signal());
                                b.set_events(Arc::clone(&self.events));
                                b.set_capacity(capacity, policy);
                                b
                            };
                            self.setup_basket_storage(&b, capacity, policy, persistent)?;
                            b
                        }
                    };
                let built = (|| {
                    let (head_plan, head_schema) = datacell_sql::physical::plan(prefix.clone())?;
                    let cat = self.catalog.read();
                    Factory::from_plan(
                        &head_name,
                        head_plan,
                        head_schema,
                        &cat,
                        FactoryOutput::Basket(Arc::clone(&mid)),
                    )
                })();
                let mut head = match built {
                    Ok(h) => h,
                    Err(e) => {
                        self.teardown_shared_mid(&mid_name);
                        return Err(e);
                    }
                };
                // The head never consumes the source exclusively: it
                // reads through a shared cursor, so co-resident readers
                // keep their own pace and the source trims at the slowest
                // watermark.
                let source_reader = source_basket.register_reader(true);
                if let Err(e) = head.set_shared(&source, source_reader) {
                    source_basket.unregister_reader(source_reader);
                    self.teardown_shared_mid(&mid_name);
                    return Err(e);
                }
                let handle = self
                    .scheduler
                    .add_factory_with_policy(head, self.config.default_policy);
                self.factory_registry.lock().push(handle);
                ps.nodes.push(SharedNode {
                    fingerprint,
                    prefix: prefix.clone(),
                    source: source.clone(),
                    head_name,
                    mid_name: mid_name.clone(),
                    source_reader,
                    subscribers: HashMap::new(),
                });
                (mid, mid_name, true)
            }
        };
        match self.build_shared_tail(name, logical, &source, &mid, &mid_name) {
            Ok((output, out_name, mid_reader)) => {
                let node = ps
                    .find_mut(fingerprint, &prefix, &source)
                    .expect("shared node just ensured");
                node.subscribers.insert(name.to_string(), mid_reader);
                let head_name = node.head_name.clone();
                let weight = node.subscribers.len().max(1) as u32;
                drop(ps);
                // DRR cost attribution: the shared head works for all of
                // its subscribers, so it earns their aggregate share of
                // scheduler busy time.
                let _ = self.scheduler.set_weight(&head_name, weight);
                self.query_outputs.lock().insert(name.to_string(), output);
                self.events.record(
                    EventKind::PlanShareAttach,
                    format!("{name} attached to {mid_name} (head {head_name})"),
                );
                self.events.record(
                    EventKind::QueryRegistered,
                    format!("{name} (output {out_name}, shared prefix {mid_name})"),
                );
                Ok(Some(CellResult::Ack(format!(
                    "registered continuous query {name} \
                     (output basket {out_name}, shared prefix via {mid_name})"
                ))))
            }
            Err(e) => {
                // A node created for this query alone must not outlive
                // the failed registration.
                if created {
                    if let Some(idx) = ps.nodes.iter().position(|n| n.mid_name == mid_name) {
                        if ps.nodes[idx].subscribers.is_empty() {
                            let node = ps.nodes.swap_remove(idx);
                            self.retire_shared_node(&node);
                        }
                    }
                }
                Err(e)
            }
        }
    }

    /// Compile and register a shared query's tail: the original plan with
    /// its consuming scan retargeted (predicate-free) onto the shared
    /// intermediate, reading through its own shared cursor.
    fn build_shared_tail(
        &self,
        name: &str,
        logical: LogicalPlan,
        source: &str,
        mid: &Arc<Basket>,
        mid_name: &str,
    ) -> Result<(Arc<Basket>, String, ReaderId)> {
        let tail_logical = datacell_sql::optimizer::retarget(logical, source, mid_name);
        let (tail_plan, out_schema) =
            datacell_sql::physical::plan(datacell_sql::optimizer::optimize(tail_logical))?;
        let out_name = format!("{name}_out");
        let output = self.create_query_output(&out_name, &out_schema)?;
        let built = (|| {
            let mut tail = {
                let cat = self.catalog.read();
                Factory::from_plan(
                    name,
                    tail_plan,
                    out_schema,
                    &cat,
                    FactoryOutput::Basket(Arc::clone(&output)),
                )?
            };
            let mid_reader = mid.register_reader(true);
            if let Err(e) = tail.set_shared(mid_name, mid_reader) {
                mid.unregister_reader(mid_reader);
                return Err(e);
            }
            Ok((tail, mid_reader))
        })();
        let (tail, mid_reader) = match built {
            Ok(v) => v,
            Err(e) => {
                let _ = self.catalog.write().drop_basket(&out_name);
                self.remove_basket_storage(&out_name);
                return Err(e);
            }
        };
        let handle = self
            .scheduler
            .add_factory_with_policy(tail, self.config.default_policy);
        self.factory_registry.lock().push(handle);
        Ok((output, out_name, mid_reader))
    }

    /// Drop a just-created shared intermediate after a failed node build.
    fn teardown_shared_mid(&self, mid_name: &str) {
        let _ = self.catalog.write().drop_basket(mid_name);
        self.remove_basket_storage(mid_name);
    }

    /// Tear down a retired shared node: head factory, source reader, and
    /// the intermediate basket with its storage.
    fn retire_shared_node(&self, node: &SharedNode) {
        let _ = self.scheduler.remove_factory(&node.head_name);
        self.factory_registry
            .lock()
            .retain(|f| f.name() != node.head_name);
        if let Ok(src) = self.catalog.read().basket(&node.source) {
            src.unregister_reader(node.source_reader);
        }
        {
            let mut cat = self.catalog.write();
            if let Ok(b) = cat.basket(&node.mid_name) {
                self.retire_basket_stats(&b);
            }
            let _ = cat.drop_basket(&node.mid_name);
        }
        self.remove_basket_storage(&node.mid_name);
    }

    /// Reference-counted detach on `DROP CONTINUOUS QUERY`: remove the
    /// query's reader from its shared intermediate (releasing its hold on
    /// the trim watermark); the last subscriber retires the whole node.
    fn release_shared(&self, name: &str) {
        let mut ps = self.plan_share.lock();
        let Some((reader, mid_name, retired)) = ps.detach(name) else {
            return;
        };
        if let Ok(mid) = self.catalog.read().basket(&mid_name) {
            mid.unregister_reader(reader);
        }
        self.events.record(
            EventKind::PlanShareDetach,
            format!(
                "{name} detached from {mid_name}{}",
                if retired.is_some() {
                    " (last subscriber; shared head retired)"
                } else {
                    ""
                }
            ),
        );
        match retired {
            Some(node) => self.retire_shared_node(&node),
            None => {
                // Surviving subscribers: shrink the head's DRR share.
                if let Some(node) = ps.nodes.iter().find(|n| n.mid_name == mid_name) {
                    let _ = self
                        .scheduler
                        .set_weight(&node.head_name, node.subscribers.len().max(1) as u32);
                }
            }
        }
    }

    /// Create (or adopt, after `recover()`) a continuous query's output
    /// basket. A query projecting `ts` of type Timestamp as its last column
    /// gets a basket one column narrower, so the factory's appends carry
    /// that arrival timestamp through by shape.
    fn create_query_output(&self, out_name: &str, out_schema: &Schema) -> Result<Arc<Basket>> {
        let carry_ts = out_schema
            .columns
            .last()
            .is_some_and(|c| c.name == TS_COLUMN && c.ty == DataType::Timestamp);
        let user_schema = if carry_ts {
            Schema {
                columns: out_schema.columns[..out_schema.len() - 1].to_vec(),
            }
        } else {
            out_schema.clone()
        };
        // A recovered output basket (same name, same schema) is adopted
        // with its undelivered rows intact, so re-registering the query
        // after `recover()` resumes delivery without loss.
        let output = match self.try_adopt(out_name, &user_schema, &BasketOptions::default())? {
            Some(b) => b,
            None => {
                let (capacity, policy, persistent) =
                    self.resolve_basket_config(&BasketOptions::default())?;
                let b = {
                    let mut cat = self.catalog.write();
                    let b = cat.create_basket(out_name, user_schema)?;
                    b.set_parent_signal(self.scheduler.signal());
                    b.set_events(Arc::clone(&self.events));
                    // Bounded output baskets push backpressure into the
                    // factory itself (its step defers or stalls when
                    // subscribers fall behind).
                    b.set_capacity(capacity, policy);
                    b
                };
                self.setup_basket_storage(&b, capacity, policy, persistent)?;
                b
            }
        };
        Ok(output)
    }

    /// Session-wide metrics snapshot. Scheduler counters — including the
    /// per-query firing/busy-time accounts — are always populated; traffic
    /// and latency counters require [`DataCellBuilder::metrics`]. Shed
    /// tuples are summed over every basket in the catalog, so load
    /// shedding anywhere in the pipeline shows up here.
    pub fn metrics(&self) -> MetricsSnapshot {
        let (passes, firings, errors) = self.scheduler.stats();
        let mut snap = MetricsSnapshot {
            scheduler_passes: passes,
            factory_firings: firings,
            factory_errors: errors,
            factory_deferrals: self.scheduler.deferrals(),
            per_query: self.scheduler.transition_metrics(),
            workers: self.scheduler.workers(),
            firings_parallel: self.scheduler.firings_parallel(),
            ..Default::default()
        };
        for (query, s) in self.live_subscribers() {
            let lag = s.lease.basket().pending_for(s.lease.id()) as u64;
            if let Some(q) = snap.per_query.iter_mut().find(|q| q.name == query) {
                q.undelivered = q.undelivered.max(lag);
            }
        }
        if let Some(exec) = self.scheduler.exec_snapshot() {
            snap.steals = exec.steals;
            snap.worker_busy = exec.per_worker.iter().map(|w| w.busy_fraction).collect();
        }
        {
            let cat = self.catalog.read();
            snap.tuples_shed = self.retired_shed.load(Ordering::Relaxed);
            snap.overflow_events = self.retired_overflow.load(Ordering::Relaxed);
            for name in cat.basket_names() {
                if let Ok(b) = cat.basket(&name) {
                    let stats = b.stats();
                    snap.tuples_shed += stats.shed;
                    snap.overflow_events += stats.overflow_events;
                }
            }
        }
        {
            let ps = self.plan_share.lock();
            snap.shared_subplans = ps.nodes.len() as u64;
            snap.shared_subscribers = ps
                .nodes
                .iter()
                .map(|n| (n.mid_name.clone(), n.subscribers.len() as u64))
                .collect();
        }
        if let Some(m) = &self.config.metrics {
            snap.tuples_ingested = m.ingested.total();
            snap.ingest_rate = m.ingested.rate();
            snap.tuples_delivered = m.delivered.total();
            snap.delivery_rate = m.delivered.rate();
            snap.mean_latency_micros = m.latency.mean_micros();
            snap.p99_latency_micros = m.latency.quantile_micros(0.99);
            snap.latency = m.latency.snapshot();
        }
        {
            // Per-query latency is attributed at the subscription sink and
            // recorded unconditionally, independent of the session-metrics
            // toggle.
            let mut per_query: Vec<(String, crate::metrics::HistogramSnapshot)> = self
                .query_latency
                .lock()
                .iter()
                .map(|(q, h)| (q.clone(), h.snapshot()))
                .collect();
            per_query.sort_by(|a, b| a.0.cmp(&b.0));
            snap.per_query_latency = per_query;
        }
        snap.uptime_micros = (crate::clock::now_micros() - self.started_micros).max(0) as u64;
        snap.net = self
            .net_metrics
            .lock()
            .as_ref()
            .and_then(std::sync::Weak::upgrade)
            .map(|s| s.net_metrics());
        snap.storage = self.storage.as_ref().map(|s| s.metrics_snapshot());
        snap
    }

    /// Fold a to-be-dropped basket's shed/overflow totals into the retired
    /// counters so [`DataCell::metrics`] stays monotone.
    fn retire_basket_stats(&self, basket: &Basket) {
        let stats = basket.stats();
        self.retired_shed.fetch_add(stats.shed, Ordering::Relaxed);
        self.retired_overflow
            .fetch_add(stats.overflow_events, Ordering::Relaxed);
    }

    // ---------------- storage / durability ----------------

    /// Resolve a basket's capacity / overflow / durability from its
    /// `CREATE BASKET` clauses over the session defaults, validating that
    /// spill and persistence have a `data_dir` to live in.
    fn resolve_basket_config(
        &self,
        options: &BasketOptions,
    ) -> Result<(Option<usize>, OverflowPolicy, bool)> {
        let capacity = options
            .capacity
            .map(|c| c as usize)
            .or(self.config.basket_capacity);
        let policy = options
            .overflow
            .map(overflow_spec_policy)
            .unwrap_or(self.config.overflow);
        let persistent = options.persistent || self.config.durability == Durability::Persistent;
        if self.storage.is_none() {
            if matches!(policy, OverflowPolicy::Spill { .. }) {
                return Err(DataCellError::Storage(
                    "OVERFLOW SPILL requires a session data_dir".into(),
                ));
            }
            if persistent {
                return Err(DataCellError::Storage(
                    "PERSISTENT requires a session data_dir".into(),
                ));
            }
        }
        Ok((capacity, policy, persistent))
    }

    /// Give a freshly created basket its slice of the store: a manifest
    /// (always, when a store exists — recovery needs it), spill segments
    /// (under `Spill`), and a WAL (when persistent).
    fn setup_basket_storage(
        &self,
        basket: &Arc<Basket>,
        capacity: Option<usize>,
        policy: OverflowPolicy,
        persistent: bool,
    ) -> Result<()> {
        let Some(store) = &self.storage else {
            return Ok(());
        };
        let bs = store.basket(basket.name())?;
        let user_columns = basket.schema().columns[..basket.user_width()]
            .iter()
            .map(|c| (c.name.clone(), c.ty))
            .collect();
        bs.write_manifest(&BasketManifest {
            name: basket.name().to_string(),
            columns: user_columns,
            persistent,
            policy: policy_manifest_str(policy),
            capacity: capacity.map(|c| c as u64),
        })?;
        let wal = if persistent {
            Some(Arc::new(bs.open_wal()?))
        } else {
            None
        };
        basket.attach_storage(bs, wal);
        Ok(())
    }

    /// Adopt a recovered basket under an identical re-declaration.
    /// Returns the basket on success, `None` when the name was not
    /// recovered (or was already adopted once — a *second* declaration
    /// falls through to the ordinary "already exists" error), and an
    /// error when the schema or the declared storage clauses disagree
    /// with the recovered configuration.
    fn try_adopt(
        &self,
        name: &str,
        user_schema: &Schema,
        options: &BasketOptions,
    ) -> Result<Option<Arc<Basket>>> {
        if !self.recovered.lock().contains(name) {
            return Ok(None);
        }
        let basket = self.catalog.read().basket(name)?;
        let existing = &basket.schema().columns[..basket.user_width()];
        if existing.len() != user_schema.len()
            || existing
                .iter()
                .zip(&user_schema.columns)
                .any(|(a, b)| a.name != b.name || a.ty != b.ty)
        {
            return Err(DataCellError::Catalog(format!(
                "basket {name} was recovered with a different schema; \
                 drop it or recover into a fresh data_dir"
            )));
        }
        // *Explicit* clauses must describe the recovered basket —
        // silently dropping a changed CAPACITY/OVERFLOW would leave the
        // operator believing the new policy applies. Session defaults are
        // not declarations: the recovering process may legitimately be
        // configured differently, and the basket keeps its manifest
        // configuration either way.
        let declared = options.overflow.map(overflow_spec_policy);
        let overflow_conflict = declared.is_some_and(|p| p != basket.overflow_policy());
        let capacity_conflict = options.capacity.is_some_and(|c| {
            // Spill ignores capacity by design; nothing to conflict with.
            !matches!(basket.overflow_policy(), OverflowPolicy::Spill { .. })
                && basket.capacity() != Some(c as usize)
        });
        if overflow_conflict || capacity_conflict {
            return Err(DataCellError::Catalog(format!(
                "basket {name} was recovered with a different storage \
                 configuration; re-declare it with the original clauses, \
                 or drop it first"
            )));
        }
        // Adoption is one-shot: the invariant that a duplicate CREATE
        // BASKET fails comes back for the rest of the session.
        self.recovered.lock().remove(name);
        Ok(Some(basket))
    }

    /// Remove a dropped basket's on-disk state (manifest, WAL, segments).
    fn remove_basket_storage(&self, name: &str) {
        self.recovered.lock().remove(name);
        if let Some(store) = &self.storage {
            if let Ok(bs) = store.basket(name) {
                if let Err(e) = bs.remove_dir() {
                    eprintln!("dropping basket {name}: removing data dir: {e}");
                }
            }
        }
    }

    /// Rebuild every persistent basket found under the data directory:
    /// replay each WAL (appends, trims, positional consumes) into the
    /// basket's exact pre-crash contents, restore the `appended`/
    /// `consumed` accounting baselines, compact the log, and delete stale
    /// spill segments (their rows live in the WAL). Non-persistent basket
    /// directories are leftover spill state and are removed.
    ///
    /// Call `recover()` on a fresh session *before* re-declaring baskets
    /// and queries: re-declarations with identical schemas then **adopt**
    /// the recovered baskets (undelivered rows intact), so a crashed
    /// pipeline's startup script re-runs unchanged. Rows whose append was
    /// acknowledged are never lost; rows a consumer had fully committed
    /// (trimmed) are never re-delivered; rows in flight at the crash are
    /// re-delivered (at-least-once).
    pub fn recover(&self) -> Result<RecoveryReport> {
        let store = self.storage.as_ref().ok_or_else(|| {
            DataCellError::Storage("recover() requires a session data_dir".into())
        })?;
        let mut report = RecoveryReport::default();
        for name in store.basket_names()? {
            if self.catalog.read().basket(&name).is_ok() {
                continue;
            }
            let bs = store.basket(&name)?;
            let Some(manifest) = bs.read_manifest()? else {
                continue;
            };
            if !manifest.persistent {
                // Spill-only state: the rows were never promised to
                // survive a restart, and their basket is gone.
                bs.remove_dir()?;
                continue;
            }
            let policy = manifest_policy(&manifest.policy).ok_or_else(|| {
                DataCellError::Storage(format!(
                    "basket {name}: unknown manifest policy {:?}",
                    manifest.policy
                ))
            })?;
            let capacity = manifest.capacity.map(|c| c as usize);
            // Replay and compact the log *before* the basket enters the
            // catalog: a failure here (mid-file corruption, an I/O error)
            // leaves no half-initialized basket behind, so a retried
            // recover() sees the name as still-unrecovered and the
            // durable state is never silently shadowed by an empty shell.
            let full_schema = {
                let mut s = manifest.user_schema();
                s.columns
                    .push(datacell_sql::ColumnDef::new(TS_COLUMN, DataType::Timestamp));
                s
            };
            let wal_path = bs.dir().join(datacell_storage::wal::WAL_FILE);
            let replay = wal::read_wal(&wal_path, &full_schema)?;
            let (chunk, base_oid, appended, consumed) =
                apply_wal_records(&full_schema, replay.records)?;
            let resident = chunk.len() as u64;
            // Stale spill segments duplicate WAL rows; recovery starts
            // from a clean, compacted state.
            for meta in bs.list_segments()? {
                bs.delete_segment(&meta)?;
            }
            // The baseline excludes the resident rows the compact log
            // re-writes as a Rows record — replay adds them back in.
            wal::rewrite_wal(&wal_path, appended - resident, consumed, base_oid, &chunk)?;
            let wal_handle = Arc::new(bs.open_wal()?);

            let basket = self
                .catalog
                .write()
                .create_basket(&name, manifest.user_schema())?;
            basket.set_parent_signal(self.scheduler.signal());
            basket.set_events(Arc::clone(&self.events));
            basket.set_capacity(capacity, policy);
            basket.attach_storage(bs.clone(), Some(wal_handle));
            basket.restore_contents(chunk, base_oid, appended, consumed)?;
            // A Spill basket must not hold its whole recovered backlog in
            // memory: seal the excess straight back to disk.
            basket.spill_excess();

            let m = store.metrics();
            m.baskets_recovered.fetch_add(1, Ordering::Relaxed);
            m.tuples_recovered.fetch_add(resident, Ordering::Relaxed);
            m.wal_bytes_replayed
                .fetch_add(replay.bytes_read, Ordering::Relaxed);
            m.wal_bytes_torn
                .fetch_add(replay.torn_bytes, Ordering::Relaxed);
            self.recovered.lock().insert(name.clone());
            self.events.record(
                EventKind::Recovery,
                format!(
                    "{name}: {resident} tuples from {} WAL bytes ({} torn)",
                    replay.bytes_read, replay.torn_bytes
                ),
            );
            report.baskets.push(name);
            report.tuples += resident;
            report.wal_bytes += replay.bytes_read;
            report.torn_bytes += replay.torn_bytes;
        }
        Ok(report)
    }

    /// Rewrite a scheduler "unknown factory" error into the session-level
    /// "unknown continuous query" wording, unless the name *is* registered
    /// as a query (then the scheduler error is the real story).
    fn lifecycle_err(&self, name: &str, e: DataCellError) -> DataCellError {
        if self.query_outputs.lock().contains_key(name) {
            e
        } else {
            DataCellError::Catalog(format!("unknown continuous query {name}"))
        }
    }

    // ---------------- programmatic wiring ----------------

    /// Register a hand-built factory with the scheduler.
    pub fn add_factory(&self, factory: Factory, policy: SchedulePolicy) -> Arc<Factory> {
        let handle = self.scheduler.add_factory_with_policy(factory, policy);
        self.factory_registry.lock().push(Arc::clone(&handle));
        handle
    }

    /// Start the scheduler thread.
    pub fn start(&self) {
        self.scheduler.start();
    }

    /// Stop the scheduler and all periphery threads, and close every
    /// query's output basket so its subscriptions end.
    pub fn stop(&self) {
        self.scheduler.stop();
        for out in self.query_outputs.lock().values() {
            out.close();
        }
        for (_, e) in self.emitters.lock().drain(..) {
            e.stop();
        }
    }

    /// Deterministic drive for tests/benches: fire factories until
    /// quiescent.
    pub fn run_until_quiescent(&self, limit: usize) -> u64 {
        self.scheduler.run_until_quiescent(limit)
    }

    /// Snapshot the Petri net of the live configuration: every open
    /// [`StreamWriter`] as a receptor (network `STREAM` connections
    /// included), every factory and windowed query, and every subscriber
    /// as an emitter.
    pub fn petri_net(&self) -> PetriNet {
        let mut net = PetriNet::new();
        for w in self.writers.lock().iter().filter_map(Weak::upgrade) {
            net.add_receptor(&w.name, &w.basket);
        }
        for f in self.factory_registry.lock().iter() {
            net.add_factory(f);
        }
        for wj in self.window_joins.lock().iter() {
            net.add_window_join(wj);
        }
        for (_, s) in self.live_subscribers() {
            net.add_emitter(&s.name, s.lease.basket().name());
        }
        net
    }
}

impl Drop for DataCell {
    fn drop(&mut self) {
        self.stop();
    }
}

fn sql_err(e: SqlError) -> DataCellError {
    DataCellError::Sql(e)
}

fn sql_err_kernel(e: datacell_bat::error::BatError) -> DataCellError {
    DataCellError::Sql(SqlError::Kernel(e))
}

/// Map a SQL `OVERFLOW` clause onto the engine policy.
fn overflow_spec_policy(spec: OverflowSpec) -> OverflowPolicy {
    match spec {
        OverflowSpec::Block => OverflowPolicy::Block,
        OverflowSpec::Reject => OverflowPolicy::Reject,
        OverflowSpec::Shed => OverflowPolicy::ShedOldest,
        OverflowSpec::Spill { mem_rows } => OverflowPolicy::Spill {
            mem_rows: mem_rows as usize,
        },
    }
}

/// Render an engine policy as the manifest's policy string.
fn policy_manifest_str(policy: OverflowPolicy) -> String {
    match policy {
        OverflowPolicy::Block => "block".into(),
        OverflowPolicy::Reject => "reject".into(),
        OverflowPolicy::ShedOldest => "shed".into(),
        OverflowPolicy::Spill { mem_rows } => format!("spill:{mem_rows}"),
    }
}

/// Parse a manifest policy string back into the engine policy.
fn manifest_policy(s: &str) -> Option<OverflowPolicy> {
    Some(match s {
        "block" => OverflowPolicy::Block,
        "reject" => OverflowPolicy::Reject,
        "shed" => OverflowPolicy::ShedOldest,
        other => OverflowPolicy::Spill {
            mem_rows: other.strip_prefix("spill:")?.parse().ok()?,
        },
    })
}

/// Fold a replayed WAL into the basket state it describes: the resident
/// contents (full width including `ts`), the base oid, and the lifetime
/// `appended`/`consumed` totals.
fn apply_wal_records(schema: &Schema, records: Vec<WalRecord>) -> Result<(Chunk, u64, u64, u64)> {
    let mut columns: Vec<Column> = schema.columns.iter().map(|c| Column::empty(c.ty)).collect();
    let mut base_oid = 0u64;
    let mut appended = 0u64;
    let mut consumed = 0u64;
    for record in records {
        match record {
            WalRecord::Baseline {
                appended: a,
                consumed: c,
                base_oid: b,
            } => {
                appended = a;
                consumed = c;
                base_oid = b;
            }
            WalRecord::Rows(chunk) => {
                for (acc, col) in columns.iter_mut().zip(&chunk.columns) {
                    acc.append_column(col).map_err(DataCellError::from)?;
                }
                appended += chunk.len() as u64;
            }
            WalRecord::TrimTo(oid) => {
                let len = columns[0].len() as u64;
                let drop = oid.saturating_sub(base_oid).min(len) as usize;
                if drop > 0 {
                    for c in &mut columns {
                        c.drop_head(drop);
                    }
                    base_oid += drop as u64;
                    consumed += drop as u64;
                }
            }
            WalRecord::Consume(positions) => {
                let len = columns[0].len();
                let positions: Vec<usize> = positions
                    .into_iter()
                    .map(|p| p as usize)
                    .filter(|&p| p < len)
                    .collect();
                let keep = Candidates::from_sorted_unchecked(positions)
                    .complement(len)
                    .to_positions();
                let removed = len - keep.len();
                if removed > 0 {
                    for c in &mut columns {
                        c.retain_positions(&keep).map_err(DataCellError::from)?;
                    }
                    base_oid += removed as u64;
                    consumed += removed as u64;
                }
            }
        }
    }
    Ok((
        Chunk {
            schema: schema.clone(),
            columns,
        },
        base_oid,
        appended,
        consumed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_bat::types::Value;
    use std::time::Duration;

    fn ints(chunk: &Chunk) -> Vec<i64> {
        chunk.columns[0].as_ints().unwrap().to_vec()
    }

    #[test]
    fn figure1_chain_end_to_end() {
        // The complete R → B1 → Q → B2 → E chain of Figure 1, via SQL and
        // the typed facade.
        let cell = DataCell::builder().auto_start(true).build();
        cell.execute("create basket b1 (x int, y float)").unwrap();
        let q = cell
            .continuous_query(
                "q",
                "select s.x, s.y from [select * from b1] as s where s.x > 10",
            )
            .unwrap();
        let results = q.subscribe::<(i64, f64)>().unwrap();
        cell.execute("insert into b1 values (5, 0.5), (15, 1.5), (25, 2.5)")
            .unwrap();
        let rows = results.collect_n(2, Duration::from_secs(3)).unwrap();
        cell.stop();
        assert_eq!(rows, vec![(15, 1.5), (25, 2.5)]);
        // The consumed tuples left the basket; (5, 0.5) was consumed too
        // (plain basket expression references everything).
        assert!(cell.basket("b1").unwrap().is_empty());
    }

    #[test]
    fn writer_validates_batches_and_counts() {
        let cell = DataCell::new();
        cell.execute("create basket b (x int, y float)").unwrap();
        let mut w = cell.writer_with("b", 3).unwrap();
        w.append((1i64, 0.5f64)).unwrap();
        w.append(vec![Value::Int(2), Value::Int(3)]).unwrap();
        assert_eq!(w.pending(), 2);
        assert!(
            cell.basket("b").unwrap().is_empty(),
            "buffered, not flushed"
        );
        // Arity and type failures are rejected and counted.
        assert!(matches!(w.append((1i64,)), Err(DataCellError::Decode(_))));
        assert!(matches!(
            w.append(("no".to_string(), 1.0f64)),
            Err(DataCellError::Decode(_))
        ));
        // Third good row triggers the batch flush.
        w.append_text("7, 8.5").unwrap();
        assert_eq!(w.pending(), 0);
        assert_eq!(cell.basket("b").unwrap().len(), 3);
        assert!(matches!(
            w.append_text("oops"),
            Err(DataCellError::Decode(_))
        ));
        let stats = w.stats();
        assert_eq!(stats.appended, 3);
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.flushes, 1);
    }

    #[test]
    fn writer_backpressure_rejects_at_capacity() {
        let cell = DataCell::new();
        cell.execute("create basket b (x int) capacity 2 overflow reject")
            .unwrap();
        let mut w = cell.writer_with("b", 1).unwrap();
        w.append((1i64,)).unwrap();
        w.append((2i64,)).unwrap();
        let err = w.append((3i64,)).unwrap_err();
        assert!(matches!(err, DataCellError::Backpressure { .. }), "{err}");
        assert_eq!(w.pending(), 1, "row stays buffered for retry");
        let b = cell.basket("b").unwrap();
        assert_eq!(b.stats().overflow_events, 1, "the basket refused it");
        // Draining the basket unblocks the retry.
        b.clear();
        assert_eq!(w.flush().unwrap(), 1);
        assert_eq!(w.stats().appended, 3);
    }

    #[test]
    fn writer_flushes_oversized_buffer_in_capacity_chunks() {
        // A buffer (5 rows) larger than the basket's capacity (2), with one
        // row already resident. Under Block the flush lands capacity
        // slices, waiting for room between them, so the basket never holds
        // more than its capacity.
        let cell = DataCell::new();
        cell.execute("create basket b (x int) capacity 2 overflow block")
            .unwrap();
        let b = cell.basket("b").unwrap();
        b.append_rows(&[vec![Value::Int(-1)]]).unwrap();
        let mut w = cell.writer_with("b", 100).unwrap();
        for i in 0..5i64 {
            w.append((i,)).unwrap();
        }
        let flusher = std::thread::spawn(move || (w.flush(), w.stats()));
        let signal = b.signal();
        let mut slices = Vec::new();
        for slice in 0..3 {
            let mut seen = signal.version();
            while b.len() < 2 {
                seen = signal.wait_past(seen, Duration::from_millis(100));
            }
            let held = ints(&b.snapshot());
            assert_eq!(held.len(), 2, "never more than the capacity");
            if slice == 0 {
                assert!(!flusher.is_finished(), "the rest waits for room");
            }
            slices.push(held);
            // Draining the basket lets the next slice through.
            b.clear();
        }
        let (flushed, stats) = flusher.join().unwrap();
        assert_eq!(flushed.unwrap(), 5);
        assert_eq!(stats.appended, 5);
        assert_eq!(slices, vec![vec![-1, 0], vec![1, 2], vec![3, 4]]);
        assert!(b.stats().overflow_events > 0);

        // Under Reject an oversized buffer is refused whole until the
        // basket is empty, which admits it whole.
        cell.execute("create basket r (x int) capacity 2 overflow reject")
            .unwrap();
        let r = cell.basket("r").unwrap();
        r.append_rows(&[vec![Value::Int(-1)]]).unwrap();
        let mut w = cell.writer_with("r", 100).unwrap();
        for i in 0..5i64 {
            w.append((i,)).unwrap();
        }
        let err = w.flush().unwrap_err();
        assert!(matches!(err, DataCellError::Backpressure { .. }), "{err}");
        assert_eq!(w.pending(), 5, "nothing of a refused batch landed");
        assert_eq!(r.len(), 1);
        r.clear();
        assert_eq!(w.flush().unwrap(), 5);
        assert_eq!(ints(&r.snapshot()), vec![0, 1, 2, 3, 4]);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn dropped_writer_lands_the_prefix_that_fits() {
        // Dropping a writer never waits: it lands what the basket admits
        // right now and abandons the rest, under either policy.
        let cell = DataCell::new();
        for policy in ["block", "reject"] {
            cell.execute(&format!(
                "create basket b_{policy} (x int) capacity 3 overflow {policy}"
            ))
            .unwrap();
            let b = cell.basket(&format!("b_{policy}")).unwrap();
            b.append_rows(&[vec![Value::Int(-1)]]).unwrap();
            let mut w = cell.writer_with(&format!("b_{policy}"), 100).unwrap();
            for i in 0..5i64 {
                w.append((i,)).unwrap();
            }
            drop(w);
            assert_eq!(ints(&b.snapshot()), vec![-1, 0, 1], "{policy}");
        }
    }

    #[test]
    fn sql_lifecycle_reaches_programmatic_factories() {
        // Factories registered via add_factory (no output basket) must be
        // reachable from PAUSE/RESUME/DROP CONTINUOUS QUERY, as they were
        // before the facade.
        let cell = DataCell::new();
        cell.execute("create basket b (x int)").unwrap();
        cell.execute("create basket out (x int)").unwrap();
        let factory = {
            let catalog = cell.catalog();
            let cat = catalog.read();
            Factory::compile(
                "prog",
                "select s.x from [select * from b] as s",
                &cat,
                FactoryOutput::Basket(cat.basket("out").unwrap()),
            )
            .unwrap()
        };
        cell.add_factory(factory, SchedulePolicy::default());
        cell.execute("pause continuous query prog").unwrap();
        assert!(cell.is_query_paused("prog").unwrap());
        cell.execute("resume continuous query prog").unwrap();
        cell.execute("drop continuous query prog").unwrap();
        cell.execute("insert into b values (1)").unwrap();
        assert_eq!(cell.run_until_quiescent(10), 0, "factory detached");
    }

    #[test]
    fn dropped_subscription_does_not_swallow_tuples() {
        // A broadcast subscriber that hangs up deregisters its reader: the
        // surviving subscriber still sees every tuple.
        let cell = DataCell::new();
        cell.execute("create basket b (x int)").unwrap();
        let q = cell
            .continuous_query("q", "select s.x from [select * from b] as s")
            .unwrap();
        let dead = q.subscribe::<(i64,)>().unwrap();
        let live = q.subscribe::<(i64,)>().unwrap();
        drop(dead);
        cell.execute("insert into b values (1), (2), (3)").unwrap();
        cell.run_until_quiescent(10);
        let mut rows = live.collect_n(3, Duration::from_secs(3)).unwrap();
        rows.sort_unstable();
        assert_eq!(rows, vec![(1,), (2,), (3,)]);
    }

    #[test]
    fn subscription_decodes_text_compat_mode() {
        let cell = DataCell::new();
        cell.execute("create basket b (x int, s varchar(20))")
            .unwrap();
        let q = cell
            .continuous_query("q", "select t.x, t.s from [select * from b] as t")
            .unwrap();
        let sub = q.subscribe::<String>().unwrap();
        cell.execute("insert into b values (1, 'a,b')").unwrap();
        cell.run_until_quiescent(10);
        let line = sub.next_timeout(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(line, "1,\"a,b\"", "wire format with quoting");
    }

    #[test]
    fn query_handle_pause_resume_lifecycle() {
        let cell = DataCell::new();
        cell.execute("create basket b (x int)").unwrap();
        let q = cell
            .continuous_query("q", "select s.x from [select * from b] as s")
            .unwrap();
        q.pause().unwrap();
        assert!(q.is_paused().unwrap());
        cell.execute("insert into b values (1), (2)").unwrap();
        assert_eq!(cell.run_until_quiescent(10), 0);
        assert_eq!(cell.basket("b").unwrap().len(), 2);
        q.resume().unwrap();
        assert_eq!(cell.run_until_quiescent(10), 1, "backlog in one firing");
        assert_eq!(q.output().unwrap().len(), 2);
        // SQL surface drives the same lifecycle.
        cell.execute("pause continuous query q").unwrap();
        assert!(cell.is_query_paused("q").unwrap());
        cell.execute("resume continuous query q").unwrap();
        assert!(!cell.is_query_paused("q").unwrap());
        assert!(cell.execute("pause continuous query nope").is_err());
    }

    #[test]
    fn metrics_snapshot_tracks_traffic() {
        let cell = DataCell::builder().metrics(true).build();
        cell.execute("create basket b (x int)").unwrap();
        let q = cell
            .continuous_query("q", "select s.x from [select * from b] as s")
            .unwrap();
        let sub = q.subscribe::<(i64,)>().unwrap();
        let mut w = cell.writer("b").unwrap();
        for i in 0..10i64 {
            w.append((i,)).unwrap();
        }
        w.flush().unwrap();
        cell.run_until_quiescent(10);
        assert_eq!(sub.drain().unwrap().len(), 10);
        let m = cell.metrics();
        assert_eq!(m.tuples_ingested, 10);
        assert_eq!(m.tuples_delivered, 10);
        assert!(m.factory_firings >= 1);
        cell.stop();
    }

    #[test]
    fn basket_inspection_does_not_consume() {
        let cell = DataCell::new();
        cell.execute("create basket b (x int)").unwrap();
        cell.execute("insert into b values (1), (2)").unwrap();
        // Named access: behaves as a temporary table (§2.6).
        let rows = cell.query("select x from b order by x").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(cell.basket("b").unwrap().len(), 2);
    }

    #[test]
    fn one_time_basket_expression_consumes_once() {
        let cell = DataCell::new();
        cell.execute("create basket b (x int)").unwrap();
        cell.execute("insert into b values (1), (20)").unwrap();
        let rows = cell
            .query("select s.x from [select * from b where b.x > 10] as s")
            .unwrap();
        assert_eq!(rows.len(), 1);
        // Only the tuple inside the predicate window was removed.
        assert_eq!(cell.basket("b").unwrap().len(), 1);
    }

    #[test]
    fn continuous_query_requires_basket_expression() {
        let cell = DataCell::new();
        cell.execute("create table t (x int)").unwrap();
        let err = cell
            .execute("create continuous query bad as select x from t")
            .unwrap_err();
        assert!(err.to_string().contains("basket expression"), "{err}");
    }

    #[test]
    fn carry_ts_output_created_when_query_projects_ts() {
        let cell = DataCell::new();
        cell.execute("create basket b (x int)").unwrap();
        cell.execute(
            "create continuous query q as \
             select s.x, s.ts from [select * from b] as s",
        )
        .unwrap();
        cell.execute("insert into b values (1)").unwrap();
        cell.run_until_quiescent(10);
        let out = cell.query_output("q").unwrap();
        // Output basket has user width 1 (x) + implicit ts carried through.
        assert_eq!(out.user_width(), 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn continuous_query_joins_stream_with_table() {
        let cell = DataCell::new();
        cell.execute("create table dims (k int, label varchar(20))")
            .unwrap();
        cell.execute("insert into dims values (1, 'one'), (2, 'two')")
            .unwrap();
        cell.execute("create basket b (k int)").unwrap();
        cell.execute(
            "create continuous query q as \
             select d.label from [select * from b] as s join dims d on s.k = d.k",
        )
        .unwrap();
        cell.execute("insert into b values (2), (3)").unwrap();
        cell.run_until_quiescent(10);
        let out = cell.query_output("q").unwrap();
        let snap = out.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.row(0).unwrap()[0], Value::Str("two".into()));
    }

    #[test]
    fn drop_continuous_query_cleans_up() {
        let cell = DataCell::new();
        cell.execute("create basket b (x int)").unwrap();
        cell.execute("create continuous query q as select s.x from [select * from b] as s")
            .unwrap();
        let sub = cell.subscribe::<(i64,)>("q").unwrap();
        cell.execute("drop continuous query q").unwrap();
        assert!(cell.query_output("q").is_err());
        assert!(cell.query_handle("q").is_err());
        cell.execute("insert into b values (1)").unwrap();
        assert_eq!(cell.run_until_quiescent(10), 0);
        // The subscription closed with the query.
        assert!(matches!(sub.try_next(), Err(DataCellError::Disconnected)));
    }

    #[test]
    fn petri_net_snapshot() {
        let cell = DataCell::new();
        cell.execute("create basket b (x int)").unwrap();
        cell.execute("create continuous query q as select s.x from [select * from b] as s")
            .unwrap();
        let _sub = cell.subscribe::<Vec<Value>>("q").unwrap();
        cell.execute("create basket c (x int)").unwrap();
        cell.execute("create continuous query v as select sum(c.x) as total from c [rows 2]")
            .unwrap();
        let net = cell.petri_net();
        let dot = net.to_dot();
        assert!(dot.contains("\"b\" -> \"q\""));
        assert!(dot.contains("\"q\" -> \"q_out\""));
        // A windowed query is a transition like any factory.
        assert!(dot.contains("\"c\" -> \"v\""), "{dot}");
        assert!(dot.contains("\"v\" -> \"v_out\""), "{dot}");
    }

    #[test]
    fn delete_clears_basket() {
        let cell = DataCell::new();
        cell.execute("create basket b (x int)").unwrap();
        cell.execute("insert into b values (1), (2)").unwrap();
        match cell.execute("delete from b").unwrap() {
            CellResult::Affected(2) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(cell.basket("b").unwrap().is_empty());
    }

    #[test]
    fn ddl_dml_query_roundtrip() {
        let cell = DataCell::new();
        cell.execute("create table t (a int, b varchar(10))")
            .unwrap();
        let r = cell
            .execute("insert into t values (1, 'x'), (2, 'y'), (3, 'x')")
            .unwrap();
        assert!(matches!(r, CellResult::Affected(3)));
        let rows = cell
            .query("select a from t where b = 'x' order by a")
            .unwrap();
        assert_eq!(rows.columns[0].as_ints().unwrap(), &[1, 3]);
    }

    #[test]
    fn delete_with_predicate() {
        let cell = DataCell::new();
        cell.execute("create table t (a int)").unwrap();
        cell.execute("insert into t values (1), (2), (3), (4)")
            .unwrap();
        let r = cell.execute("delete from t where a % 2 = 0").unwrap();
        assert!(matches!(r, CellResult::Affected(2)));
        let rows = cell.query("select a from t order by a").unwrap();
        assert_eq!(rows.columns[0].as_ints().unwrap(), &[1, 3]);
        // A conjunct pushdown cannot place in the scan still counts.
        let r = cell.execute("delete from t where a > 0 and 1 = 2").unwrap();
        assert!(matches!(r, CellResult::Affected(0)));
        // Unconditional delete.
        let r = cell.execute("delete from t").unwrap();
        assert!(matches!(r, CellResult::Affected(2)));
        // Baskets take deletes through basket expressions instead.
        cell.execute("create basket b (x int)").unwrap();
        cell.execute("insert into b values (1)").unwrap();
        let err = cell.execute("delete from b where x = 1").unwrap_err();
        assert!(err.to_string().contains("basket expression"), "{err}");
        assert_eq!(cell.basket("b").unwrap().len(), 1);
    }

    #[test]
    fn insert_type_mismatch_fails() {
        let cell = DataCell::new();
        cell.execute("create table t (a int)").unwrap();
        assert!(cell.execute("insert into t values ('nope')").is_err());
    }

    #[test]
    fn script_execution() {
        let cell = DataCell::new();
        let results = cell
            .execute_script("create table t (a int); insert into t values (5); select a from t")
            .unwrap();
        assert_eq!(results.len(), 3);
        match &results[2] {
            CellResult::Rows(c) => assert_eq!(c.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_renders() {
        let cell = DataCell::new();
        cell.execute("create table t (a int)").unwrap();
        match cell.execute("explain select a from t where a > 3").unwrap() {
            CellResult::Plan(text) => assert!(text.contains("ScanTable"), "{text}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_shows_consuming_scan() {
        let cell = DataCell::new();
        cell.execute("create basket b (x int)").unwrap();
        match cell
            .execute("explain select s.x from [select * from b] as s")
            .unwrap()
        {
            CellResult::Plan(p) => assert!(p.contains("[consume]"), "{p}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
