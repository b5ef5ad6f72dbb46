//! The scheduler: the Petri-net execution engine (§2.4).
//!
//! "The DataCell kernel contains a scheduler to organize the execution of
//! the various transitions. The scheduler runs an infinite loop and at
//! every iteration it checks which of the existing transitions can be
//! processed by analyzing their inputs."
//!
//! Receptors and emitters are their own threads (transitions that fire on
//! their channels); the scheduler drives the *factories*: each pass it
//! re-evaluates every factory's firing condition — all data inputs hold at
//! least `min_tuples` tuples, all control inputs hold a token — and fires
//! the ready ones. When nothing is ready it blocks on an aggregated basket
//! signal instead of spinning.
//!
//! # Fairness
//!
//! How a pass divides the scheduling thread between ready transitions is
//! the [`Fairness`] policy:
//!
//! * [`Fairness::Priority`] (the default) — the historical fixed sweep:
//!   every ready transition fires once per pass, higher
//!   [`SchedulePolicy::priority`] first, ties in registration order. Each
//!   firing processes the transition's *entire* backlog, so one hot query
//!   with a deep backlog head-of-line-blocks every co-tenant for the whole
//!   duration of its step.
//! * [`Fairness::DeficitRoundRobin`] — a deficit round-robin ring over the
//!   transitions at priority ≤ 0, with strict priority retained as an
//!   opt-in express tier: transitions at priority > 0 still fire first and
//!   unbudgeted, exactly as under `Priority`. Each backlogged ring member
//!   accrues busy-time credit **by elapsed wall-clock time** — `quantum ×
//!   weight` microseconds per millisecond since its last service
//!   opportunity (Δt clamped to `[1 ms, 100 ms]`), decoupling the credit
//!   rate from the scheduler's pass rate: a busy system whose passes take
//!   10 ms accrues the same per-second credit as an idle-ish one passing
//!   every 1 ms, and back-to-back deterministic drives sit on the 1 ms
//!   floor (one nominal quantum per pass — the historical behavior).
//!   The accumulated credit is converted into a **tuple budget**
//!   through the per-tuple cost observed over its recent firings (an EWMA,
//!   so a drifting cost — a growing join table, shifting selectivity — is
//!   tracked within a few firings), and the
//!   firing is capped at that budget ([`Transition::step_budgeted`]). An
//!   expensive query therefore fires in small slices — or is skipped until
//!   its deficit covers even one tuple — while cheap queries keep firing
//!   every pass; unused deficit carries forward while a query stays
//!   backlogged and resets when its inputs run dry (classic DRR). A
//!   firing that overruns its budget (transitions without budget support,
//!   factories clamped up to `min_tuples`) drives the balance negative,
//!   and the transition is skipped until its credit repays the overrun —
//!   fair share holds on average even for budget-ignoring transitions.
//!
//! Starvation is observable: [`SchedulerMetrics`] reports per-query
//! scheduling delay (time spent ready-but-unfired) and the current
//! consecutive-skip streak.
//!
//! # Parallel execution
//!
//! With [`Scheduler::set_workers`]` > 1` the pass loop splits into
//! *admission* and *execution*: the background thread keeps running the
//! fairness policy exactly as above — ready checks, DRR credit accrual,
//! tuple budgets — but instead of firing inline it dispatches each
//! admitted firing to a work-stealing pool of worker threads
//! ([`datacell_exec::WorkerPool`]), routed by a stable per-transition
//! affinity so one query's firings stay on one worker while idle siblings
//! steal. Budget charging happens at completion from the firing's actual
//! busy time, so the DRR ledger is identical whether a firing ran inline
//! or on a worker.
//!
//! Safety under parallelism is the **firing-lock protocol**: before any
//! firing (inline or dispatched), the scheduler atomically acquires the
//! transition's firing flag *and* its [`Transition::conflict_keys`] (the
//! basket names the firing consumes exclusively) under one lock; both are
//! released when the firing completes. A transition therefore never runs
//! twice concurrently — including against a concurrent
//! [`Scheduler::run_until_quiescent`] manual drive, which contends on the
//! same locks — and two exclusive consumers of one basket are serialized.
//! With `workers == 1` (the default) no pool exists and the pass loop is
//! the historical sequential sweep, byte-for-byte.
//!
//! Two drive modes:
//! * [`Scheduler::start`] — the production mode: a background thread runs
//!   the infinite loop (admitting to the worker pool when `workers > 1`);
//! * [`Scheduler::run_until_quiescent`] — a deterministic single-threaded
//!   drive for tests and benchmarks (fire until no transition is ready).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use datacell_engine::Catalog;
use datacell_exec::{PoolSnapshot, WorkerPool};

use crate::basket::Signal;
use crate::catalog::StreamCatalog;
use crate::error::{DataCellError, Result};
use crate::events::{EventKind, EventRing};
use crate::factory::{Factory, StepOutcome};
use crate::metrics::{HistogramSnapshot, LatencyHistogram};

/// A schedulable Petri-net transition. [`Factory`] is the canonical
/// implementation; the window evaluators in [`crate::window`] are others.
pub trait Transition: Send + Sync {
    /// Transition name (unique within a scheduler).
    fn name(&self) -> &str;
    /// Firing condition (§2.4): true when all inputs hold enough tokens.
    fn ready(&self) -> bool;
    /// Fire once.
    fn step(&self, tables: Option<&Catalog>) -> Result<StepOutcome>;
    /// Fire once, processing at most `max_tuples` tuples per data input —
    /// the service granularity of [`Fairness::DeficitRoundRobin`]. The
    /// default ignores the budget and runs a full [`Transition::step`];
    /// transitions that can slice their input (factories) override it.
    fn step_budgeted(&self, tables: Option<&Catalog>, max_tuples: usize) -> Result<StepOutcome> {
        let _ = max_tuples;
        self.step(tables)
    }
    /// Subscribe the transition's input baskets to the scheduler's wake-up
    /// signal.
    fn subscribe(&self, signal: Arc<Signal>);
    /// Basket names this transition consumes *exclusively* while firing.
    /// The scheduler holds these keys (together with the per-transition
    /// firing lock) for the duration of every firing, so two transitions
    /// that would double-consume one basket never run concurrently under
    /// the parallel worker pool. The default — no keys — is correct for
    /// cursor-based transitions (shared readers, window evaluators): their
    /// consumption is private per reader.
    fn conflict_keys(&self) -> Vec<String> {
        Vec::new()
    }
}

impl Transition for Factory {
    fn name(&self) -> &str {
        Factory::name(self)
    }

    fn ready(&self) -> bool {
        Factory::ready(self)
    }

    fn step(&self, tables: Option<&Catalog>) -> Result<StepOutcome> {
        Factory::step(self, tables)
    }

    fn step_budgeted(&self, tables: Option<&Catalog>, max_tuples: usize) -> Result<StepOutcome> {
        Factory::step_limited(self, tables, max_tuples)
    }

    fn subscribe(&self, signal: Arc<Signal>) {
        for input in self.inputs() {
            input.basket.set_parent_signal(Arc::clone(&signal));
        }
        for c in self.control_in() {
            c.set_parent_signal(Arc::clone(&signal));
        }
    }

    fn conflict_keys(&self) -> Vec<String> {
        self.conflict_basket_names()
    }
}

/// How a scheduling pass divides the thread between ready transitions.
/// See the [module docs](self) for the full story.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fairness {
    /// The historical fixed sweep: every ready transition fires once per
    /// pass with an unbounded batch, higher priority first, ties in
    /// registration order.
    #[default]
    Priority,
    /// Deficit round-robin over the transitions at priority ≤ 0 (a
    /// positive priority stays a strict express tier). Each backlogged
    /// ring member accrues `quantum × weight` µs of busy-time credit per
    /// **millisecond of elapsed wall-clock** (Δt clamped to
    /// `[1 ms, 100 ms]`, so tight deterministic drives accrue one nominal
    /// quantum per pass); firings are capped at the tuple budget that
    /// credit buys at the query's observed per-tuple cost, so no single
    /// query can monopolize the scheduler. A weight-1 `quantum` of 1000
    /// therefore means "one full core's worth of busy time"; 250 means a
    /// quarter core.
    DeficitRoundRobin {
        /// Busy-time credit in µs accrued per millisecond of wall-clock
        /// by a weight-1 query (clamped to ≥ 1 — a zero quantum would
        /// starve the whole ring).
        quantum: u64,
    },
}

/// Per-factory scheduling parameters.
#[derive(Debug, Clone, Copy)]
pub struct SchedulePolicy {
    /// Higher fires first within a pass (paper: "different query
    /// priorities"). Under [`Fairness::DeficitRoundRobin`], transitions
    /// with `priority > 0` form the strict express tier; everything else
    /// is served by the DRR ring.
    pub priority: i32,
    /// Fire at most once per interval (time-sliced batching); `None` =
    /// eager.
    pub min_interval: Option<Duration>,
    /// Relative share of scheduler busy time under
    /// [`Fairness::DeficitRoundRobin`] (a weight-3 query accrues three
    /// times the credit per unit of wall-clock). Clamped to ≥ 1; ignored
    /// by [`Fairness::Priority`].
    pub weight: u32,
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy {
            priority: 0,
            min_interval: None,
            weight: 1,
        }
    }
}

/// Floor of the per-tuple cost estimate, in nanoseconds (a measured cost
/// below this is treated as ~10M tuples/s — protects the budget math from
/// zero-cost estimates).
const COST_FLOOR_NANOS: u64 = 100;

/// Per-tuple cost assumed before a transition has any firing history:
/// 1 µs/tuple. Deliberately conservative — a first budgeted firing over a
/// deep backlog is capped near `quantum × weight` tuples instead of
/// monopolizing the pass; one firing later the measured cost takes over.
const BOOTSTRAP_COST_NANOS: u64 = 1_000;

/// Floor of the elapsed-time Δt used by DRR credit accrual, in µs. A
/// tight loop of back-to-back passes (deterministic drives, saturated
/// schedulers) accrues as if each pass were one nominal millisecond, so
/// `run_until_quiescent` stays serviceable and the historical
/// credit-per-pass intuition survives in that regime.
const ACCRUAL_FLOOR_MICROS: u64 = 1_000;

/// Cap of the accrual Δt, in µs: one observation can mint at most 100 ms
/// worth of credit, bounding the burst after a long stall (the idle path
/// resets the anchor outright, so this only guards ready-but-slow rings).
const ACCRUAL_CAP_MICROS: u64 = 100_000;

struct Entry {
    factory: Arc<dyn Transition>,
    policy: SchedulePolicy,
    /// Basket names the transition consumes exclusively while firing
    /// ([`Transition::conflict_keys`], captured at registration).
    conflicts: Vec<String>,
    /// True while a firing of this transition is in flight on any thread.
    /// Mutated only under [`Shared::firing_keys`], so the flag and the
    /// conflict-key set always change together.
    firing: AtomicBool,
    last_fired: Mutex<Option<Instant>>,
    /// Paused transitions are skipped by every pass; their input baskets
    /// keep buffering (the query lifecycle's `pause`/`resume`).
    paused: AtomicBool,
    /// Set by [`Scheduler::remove_factory`] under [`Shared::firing_keys`]:
    /// a pass that listed the entry before its removal must not fire it.
    removed: AtomicBool,
    /// DRR weight (runtime-adjustable via [`Scheduler::set_weight`]).
    weight: AtomicU32,
    /// Completed firings of this transition.
    firings: AtomicU64,
    /// Wall-clock time spent inside this transition's `step`, in µs —
    /// every attempt, including deferred and failed ones (the metric of
    /// scheduler time this transition consumed).
    busy_micros: AtomicU64,
    /// Distribution of per-firing durations (completed firings only):
    /// where `busy_micros` says how much time a query consumed,
    /// this says how it was shaped — many fast slices or few long stalls.
    firing_hist: LatencyHistogram,
    /// Exponentially weighted moving average of the per-tuple cost in
    /// nanoseconds, fed by *successful* firings only (a deferred step runs
    /// the whole plan and then fails at delivery, adding time but no
    /// tuples; folding it in would collapse the query's budget after
    /// backpressure). `0` = no history yet. An EWMA (α = 1/8) tracks cost
    /// drift — a join table growing, selectivity shifting — within a few
    /// firings, where the old lifetime average `busy / tuples` took the
    /// whole history to move.
    ewma_cost_nanos: AtomicU64,
    /// Input tuples processed across all firings (metrics).
    tuples_in: AtomicU64,
    /// Steps deferred by output backpressure (retried on a later pass).
    deferrals: AtomicU64,
    /// DRR deficit counter: unspent busy-time credit in µs. Carries
    /// forward while the transition stays backlogged; resets when its
    /// inputs run dry. **Negative = overdraft debt**: a firing that
    /// overran its budget (window evaluators ignore budgets; factories
    /// clamp up to `min_tuples`) is charged in full, and the transition is
    /// skipped until accrued credit pays the overrun back — so even a
    /// budget-ignoring transition averages out to its fair share.
    deficit_micros: AtomicI64,
    /// Passes in a row in which this transition was ready but not fired
    /// (resets to zero on every firing) — the starvation alarm.
    consecutive_skips: AtomicU64,
    /// Cumulative time spent ready-but-unfired before each firing, µs.
    sched_delay_micros: AtomicU64,
    /// When the transition was first observed ready since its last firing.
    ready_since: Mutex<Option<Instant>>,
    /// When DRR credit last accrued for this entry — the Δt anchor of the
    /// elapsed-time accrual. Reset whenever the entry leaves the ready
    /// set, so idle or paused stretches mint no credit.
    last_accrual: Mutex<Option<Instant>>,
}

impl Entry {
    fn weight(&self) -> u64 {
        self.weight.load(Ordering::Relaxed).max(1) as u64
    }

    /// Observed per-tuple cost in nanoseconds (floored; a conservative
    /// bootstrap assumption before any history exists). An EWMA over
    /// recent firings, built from successful firings only, so backpressure
    /// deferrals cannot inflate the estimate and collapse the query's
    /// budget.
    fn cost_per_tuple_nanos(&self) -> u64 {
        match self.ewma_cost_nanos.load(Ordering::Relaxed) {
            0 => BOOTSTRAP_COST_NANOS,
            cost => cost.max(COST_FLOOR_NANOS),
        }
    }

    /// Fold one successful firing (`busy_micros` over `tuples` input
    /// tuples) into the cost EWMA. Firings that saw no data (control-token
    /// firings) carry no per-tuple signal and are skipped.
    fn record_cost(&self, busy_micros: u64, tuples: usize) {
        if tuples == 0 {
            return;
        }
        let sample = (busy_micros.saturating_mul(1000) / tuples as u64).max(COST_FLOOR_NANOS);
        let _ = self
            .ewma_cost_nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some(if old == 0 {
                    // First observation seeds the average directly.
                    sample
                } else {
                    // new = old + (sample - old) / 8, in signed math so a
                    // falling cost converges too; deltas small enough to
                    // round to zero still nudge by one so the average can
                    // close the last few nanoseconds of any gap.
                    let delta = (sample as i64 - old as i64) / 8;
                    let step = match delta {
                        0 if sample > old => 1,
                        0 if sample < old => -1,
                        d => d,
                    };
                    (old as i64 + step).max(COST_FLOOR_NANOS as i64) as u64
                })
            });
    }

    /// Mark the entry ready-but-unfired this pass.
    fn note_skip(&self) {
        self.consecutive_skips.fetch_add(1, Ordering::Relaxed);
        let mut since = self.ready_since.lock();
        if since.is_none() {
            *since = Some(Instant::now());
        }
    }

    /// Mark the entry idle, paused, or interval-gated: not starvation —
    /// clear the skip streak and drop any pending ready-wait.
    fn note_idle(&self) {
        self.consecutive_skips.store(0, Ordering::Relaxed);
        *self.ready_since.lock() = None;
    }

    /// Mark the entry fired: fold the ready-wait into the scheduling-delay
    /// account and clear the skip streak.
    fn note_fired(&self) {
        self.consecutive_skips.store(0, Ordering::Relaxed);
        if let Some(since) = self.ready_since.lock().take() {
            self.sched_delay_micros
                .fetch_add(since.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
    }
}

/// Monotone scheduler counters.
#[derive(Debug, Default)]
pub struct SchedulerStats {
    /// Scheduling passes executed.
    pub passes: AtomicU64,
    /// Factory firings.
    pub firings: AtomicU64,
    /// Step errors (logged and skipped — a failing query must not take the
    /// engine down).
    pub errors: AtomicU64,
    /// Steps deferred because a bounded output basket rejected the batch
    /// (not an error: the step retries once space frees).
    pub deferrals: AtomicU64,
    /// Firings dispatched to the parallel worker pool (as opposed to run
    /// inline by the sequential pass loop or a manual drive).
    pub firings_parallel: AtomicU64,
}

/// Per-transition scheduling account: how often a factory fired, how much
/// scheduler time it consumed, and whether it is being starved — the raw
/// material for fairness policies and multi-tenant accounting. Exposed
/// through [`Scheduler::transition_metrics`] and
/// [`DataCell::metrics`](crate::DataCell::metrics).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerMetrics {
    /// Transition (factory/window) name.
    pub name: String,
    /// Completed firings.
    pub firings: u64,
    /// Wall-clock µs spent inside `step`.
    pub busy_micros: u64,
    /// Input tuples processed across all firings.
    pub tuples_in: u64,
    /// Steps deferred by output backpressure.
    pub deferrals: u64,
    /// Configured DRR weight.
    pub weight: u32,
    /// Cumulative time the transition spent ready-but-unfired before its
    /// firings, in µs — the query's scheduling delay, including any
    /// still-in-progress ready wait at snapshot time. A starved query
    /// shows this growing while `firings` stands still. (Because an
    /// in-progress wait is dropped when the query turns out idle, paused,
    /// or deferred by backpressure, successive snapshots are not strictly
    /// monotone.)
    pub sched_delay_micros: u64,
    /// Current streak of passes in which the transition was ready but not
    /// fired (resets on every firing). Bounded under
    /// [`Fairness::DeficitRoundRobin`] by `cost / (quantum × weight)`;
    /// a blowup here is the starvation alarm.
    pub consecutive_skips: u64,
    /// Distribution of per-firing durations (completed firings only),
    /// exported as a Prometheus histogram by the HTTP endpoint.
    pub firing_micros: HistogramSnapshot,
    /// Output rows the query's furthest-behind subscriber has not yet
    /// claimed: the largest [`Basket::pending_for`](crate::basket::Basket::pending_for)
    /// over its subscribers' readers (0 without subscribers). Filled in by
    /// [`DataCell::metrics`](crate::DataCell::metrics); a subscriber that
    /// stops polling shows up here as output-basket lag.
    pub undelivered: u64,
}

struct Shared {
    entries: Mutex<Vec<Arc<Entry>>>,
    catalog: Arc<RwLock<StreamCatalog>>,
    signal: Arc<Signal>,
    stop: AtomicBool,
    stats: SchedulerStats,
    fairness: Mutex<Fairness>,
    /// Rotating start offset of the DRR ring, so ties in service order do
    /// not systematically favor earlier registrations.
    ring_head: AtomicU64,
    /// Conflict keys (basket names) held by in-flight firings. The lock on
    /// this set is the firing-lock protocol's single point of atomicity:
    /// an entry's `firing` flag and its keys are acquired and released
    /// together under it.
    firing_keys: Mutex<HashSet<String>>,
    /// Configured worker count; > 1 switches [`Scheduler::start`] to the
    /// admission/execution split over a work-stealing pool.
    workers: AtomicUsize,
    /// The execution pool of the current (or most recent) background run,
    /// kept after [`Scheduler::stop`] so its counters stay snapshotable.
    pool: Mutex<Option<Arc<WorkerPool>>>,
    /// The session's event ring, when attached: firings and firing errors
    /// are recorded here for `DataCell::recent_events` / `GET /events`.
    events: Mutex<Option<Arc<EventRing>>>,
}

impl Shared {
    fn record_event(&self, kind: EventKind, detail: impl FnOnce() -> String) {
        if let Some(ring) = self.events.lock().as_ref() {
            ring.record(kind, detail());
        }
    }
}

/// What happened when the scheduler tried to fire one entry.
enum FireResult {
    /// The step completed; `busy_micros` is its measured wall-clock cost.
    Fired {
        /// Wall-clock µs the step consumed.
        busy_micros: u64,
    },
    /// The step was turned away by output backpressure (retried later).
    Deferred,
    /// The step failed (logged; the query stays registered).
    Errored,
}

/// The factory scheduler (see module docs).
pub struct Scheduler {
    shared: Arc<Shared>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Scheduler {
    /// Create a scheduler over a shared catalog, with the default
    /// [`Fairness::Priority`] pass order.
    pub fn new(catalog: Arc<RwLock<StreamCatalog>>) -> Self {
        Scheduler {
            shared: Arc::new(Shared {
                entries: Mutex::new(Vec::new()),
                catalog,
                signal: Arc::new(Signal::new()),
                stop: AtomicBool::new(false),
                stats: SchedulerStats::default(),
                fairness: Mutex::new(Fairness::default()),
                ring_head: AtomicU64::new(0),
                firing_keys: Mutex::new(HashSet::new()),
                workers: AtomicUsize::new(1),
                pool: Mutex::new(None),
                events: Mutex::new(None),
            }),
            handle: Mutex::new(None),
        }
    }

    /// Attach the session's event ring: firings (with duration and tuple
    /// count) and firing errors are traced into it.
    pub fn set_events(&self, events: Arc<EventRing>) {
        *self.shared.events.lock() = Some(events);
    }

    /// True while the background scheduling thread is running — the
    /// readiness signal of the `/healthz` endpoint. Deterministic drives
    /// (`run_until_quiescent`) work without it.
    pub fn is_running(&self) -> bool {
        self.handle.lock().is_some()
    }

    /// Set the worker-thread count used by [`Scheduler::start`] (clamped
    /// to ≥ 1). With 1 the background loop is the historical sequential
    /// sweep; with more, admitted firings run on a work-stealing pool. A
    /// running scheduler is restarted so the new pool size takes effect.
    pub fn set_workers(&self, workers: usize) {
        self.shared.workers.store(workers.max(1), Ordering::Relaxed);
        if self.handle.lock().is_some() {
            self.stop();
            self.start();
        }
    }

    /// The configured worker-thread count.
    pub fn workers(&self) -> usize {
        self.shared.workers.load(Ordering::Relaxed)
    }

    /// Switch the pass order policy at runtime (takes effect on the next
    /// pass).
    pub fn set_fairness(&self, fairness: Fairness) {
        *self.shared.fairness.lock() = fairness;
        self.shared.signal.notify();
    }

    /// The active pass order policy.
    pub fn fairness(&self) -> Fairness {
        *self.shared.fairness.lock()
    }

    /// Adjust a transition's DRR weight at runtime (clamped to ≥ 1).
    pub fn set_weight(&self, name: &str, weight: u32) -> Result<()> {
        let entries = self.shared.entries.lock();
        let entry = entries
            .iter()
            .find(|e| e.factory.name() == name)
            .ok_or_else(|| DataCellError::Catalog(format!("unknown factory {name}")))?;
        entry.weight.store(weight.max(1), Ordering::Relaxed);
        Ok(())
    }

    /// The aggregated wake-up signal; baskets should set it as their parent
    /// signal so appends wake the scheduler (done automatically for
    /// factories registered via [`Scheduler::add_factory`]).
    pub fn signal(&self) -> Arc<Signal> {
        Arc::clone(&self.shared.signal)
    }

    /// Register a factory with the default policy.
    pub fn add_factory(&self, factory: Factory) -> Arc<Factory> {
        self.add_factory_with_policy(factory, SchedulePolicy::default())
    }

    /// Register a factory with an explicit policy.
    pub fn add_factory_with_policy(
        &self,
        factory: Factory,
        policy: SchedulePolicy,
    ) -> Arc<Factory> {
        let factory = Arc::new(factory);
        self.add_transition(Arc::clone(&factory) as Arc<dyn Transition>, policy);
        factory
    }

    /// Register any transition (factories, window evaluators). Its input
    /// baskets are subscribed to the scheduler's wake-up signal.
    pub fn add_transition(&self, transition: Arc<dyn Transition>, policy: SchedulePolicy) {
        transition.subscribe(self.signal());
        let mut entries = self.shared.entries.lock();
        let conflicts = transition.conflict_keys();
        entries.push(Arc::new(Entry {
            factory: transition,
            policy,
            conflicts,
            firing: AtomicBool::new(false),
            last_fired: Mutex::new(None),
            paused: AtomicBool::new(false),
            removed: AtomicBool::new(false),
            weight: AtomicU32::new(policy.weight.max(1)),
            firings: AtomicU64::new(0),
            busy_micros: AtomicU64::new(0),
            firing_hist: LatencyHistogram::new(),
            ewma_cost_nanos: AtomicU64::new(0),
            tuples_in: AtomicU64::new(0),
            deferrals: AtomicU64::new(0),
            deficit_micros: AtomicI64::new(0),
            consecutive_skips: AtomicU64::new(0),
            sched_delay_micros: AtomicU64::new(0),
            ready_since: Mutex::new(None),
            last_accrual: Mutex::new(None),
        }));
        // Stable priority order, high first; ties keep registration order.
        entries.sort_by_key(|e| std::cmp::Reverse(e.policy.priority));
        drop(entries);
        self.shared.signal.notify();
    }

    /// Pause or resume a transition by name. Paused transitions never fire;
    /// their input baskets keep accumulating tuples, so resuming processes
    /// the backlog in one bulk step (the paper's batching at its best).
    pub fn set_paused(&self, name: &str, paused: bool) -> Result<()> {
        let entries = self.shared.entries.lock();
        let entry = entries
            .iter()
            .find(|e| e.factory.name() == name)
            .ok_or_else(|| DataCellError::Catalog(format!("unknown factory {name}")))?;
        entry.paused.store(paused, Ordering::Relaxed);
        drop(entries);
        if !paused {
            // Wake the scheduler so the backlog is drained promptly.
            self.shared.signal.notify();
        }
        Ok(())
    }

    /// True iff the named transition is currently paused.
    pub fn is_paused(&self, name: &str) -> Result<bool> {
        let entries = self.shared.entries.lock();
        entries
            .iter()
            .find(|e| e.factory.name() == name)
            .map(|e| e.paused.load(Ordering::Relaxed))
            .ok_or_else(|| DataCellError::Catalog(format!("unknown factory {name}")))
    }

    /// Deregister a factory by name. Returns once no firing of it is in
    /// flight, so it consumes nothing appended after the call. The wait
    /// has no time limit: a firing stalled on a full `Block` control-token
    /// basket (the one waiting append a firing makes) keeps removal
    /// waiting until that basket's consumer frees room.
    pub fn remove_factory(&self, name: &str) -> Result<()> {
        let removed: Vec<Arc<Entry>> = {
            let mut entries = self.shared.entries.lock();
            let (removed, kept) = entries.drain(..).partition(|e| e.factory.name() == name);
            *entries = kept;
            removed
        };
        if removed.is_empty() {
            return Err(DataCellError::Catalog(format!("unknown factory {name}")));
        }
        let signal = &self.shared.signal;
        for entry in removed {
            // Under the firing-key lock, so no firing of it begins after.
            {
                let _keys = self.shared.firing_keys.lock();
                entry.removed.store(true, Ordering::Relaxed);
            }
            let mut seen = signal.version();
            while entry.firing.load(Ordering::Relaxed) {
                seen = signal.wait_past(seen, Duration::from_millis(1));
            }
        }
        Ok(())
    }

    /// Registered transitions, in firing order.
    pub fn transitions(&self) -> Vec<Arc<dyn Transition>> {
        self.shared
            .entries
            .lock()
            .iter()
            .map(|e| Arc::clone(&e.factory))
            .collect()
    }

    /// One scheduling pass under the active [`Fairness`] policy. Returns
    /// the number of firings.
    pub fn pass(&self) -> u64 {
        Self::pass_impl(&self.shared, None).0
    }

    /// Runs one pass; returns `(fired, skipped)` where `fired` counts
    /// inline firings (or, with a pool, firings *dispatched*) and
    /// `skipped` counts ready transitions held back this pass — by their
    /// DRR deficit, or by a firing lock a concurrent drive still holds.
    fn pass_impl(shared: &Arc<Shared>, pool: Option<&Arc<WorkerPool>>) -> (u64, u64) {
        let fairness = *shared.fairness.lock();
        let entries: Vec<Arc<Entry>> = shared.entries.lock().clone();
        let (fired, skipped) = match fairness {
            Fairness::Priority => Self::sweep(shared, &entries, pool),
            Fairness::DeficitRoundRobin { quantum } => {
                // Express tier first (strict priority, unbudgeted), then
                // the DRR ring over everything at priority ≤ 0.
                let (strict, ring): (Vec<_>, Vec<_>) =
                    entries.into_iter().partition(|e| e.policy.priority > 0);
                let (fired, express_skipped) = Self::sweep(shared, &strict, pool);
                let (ring_fired, skipped) = Self::serve_ring(shared, &ring, quantum, pool);
                (fired + ring_fired, express_skipped + skipped)
            }
        };
        shared.stats.passes.fetch_add(1, Ordering::Relaxed);
        (fired, skipped)
    }

    /// Atomically acquire `entry`'s firing flag plus its conflict keys.
    /// False when the transition is already firing or any of its keys is
    /// held by another in-flight firing.
    fn try_begin_firing(shared: &Shared, entry: &Entry) -> bool {
        let mut keys = shared.firing_keys.lock();
        if entry.firing.load(Ordering::Relaxed) || entry.removed.load(Ordering::Relaxed) {
            return false;
        }
        if entry.conflicts.iter().any(|k| keys.contains(k)) {
            return false;
        }
        entry.firing.store(true, Ordering::Relaxed);
        for k in &entry.conflicts {
            keys.insert(k.clone());
        }
        true
    }

    /// Release the firing flag and conflict keys taken by
    /// [`Scheduler::try_begin_firing`], and wake the scheduler: a firing's
    /// completion can unblock both conflicting transitions and the
    /// admission loop's quiescence check.
    fn end_firing(shared: &Shared, entry: &Entry) {
        let mut keys = shared.firing_keys.lock();
        for k in &entry.conflicts {
            keys.remove(k);
        }
        entry.firing.store(false, Ordering::Relaxed);
        drop(keys);
        shared.signal.notify();
    }

    /// Run one admitted firing to completion: step, then (under DRR)
    /// settle the deficit ledger from the firing's actual busy time, then
    /// release the firing lock. Runs inline on the pass loop, or on a pool
    /// worker when the firing was dispatched — the accounting is identical.
    /// The caller must hold the firing lock ([`Scheduler::try_begin_firing`]).
    fn execute_firing(
        shared: &Shared,
        entry: &Entry,
        budget: Option<usize>,
        drr_credit: Option<i64>,
    ) -> FireResult {
        let result = Self::fire_entry(shared, entry, budget);
        if let Some(credit) = drr_credit {
            match result {
                FireResult::Fired { busy_micros } => {
                    // Charge what the firing actually consumed — possibly
                    // more than the accrued credit (budget overrun): the
                    // balance goes negative and must be paid back before
                    // the next service. Unused credit carries forward
                    // while the query stays backlogged.
                    let spent = busy_micros.min(i64::MAX as u64) as i64;
                    let _ = entry.deficit_micros.fetch_update(
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                        |d| Some(d.saturating_sub(spent)),
                    );
                }
                // A deferral is downstream backpressure, not scheduler
                // starvation: keep (at most) one round's credit for the
                // retry. Banking more would make every deferred retry
                // re-execute an ever-growing slice — thrown away at
                // delivery — and explode into one unbudgeted mega-firing
                // the moment downstream frees space.
                FireResult::Deferred | FireResult::Errored => {
                    let _ = entry.deficit_micros.fetch_update(
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                        |d| Some(d.min(credit)),
                    );
                }
            }
        }
        Self::end_firing(shared, entry);
        result
    }

    /// Fire (inline) or dispatch (to the pool) one admitted entry whose
    /// firing lock the caller just acquired. Returns true iff an inline
    /// firing completed as `Fired` — a dispatched firing always counts
    /// toward the pass's admitted total instead.
    fn launch_firing(
        shared: &Arc<Shared>,
        pool: Option<&Arc<WorkerPool>>,
        entry: &Arc<Entry>,
        budget: Option<usize>,
        drr_credit: Option<i64>,
    ) -> bool {
        match pool {
            None => matches!(
                Self::execute_firing(shared, entry, budget, drr_credit),
                FireResult::Fired { .. }
            ),
            Some(pool) => {
                shared
                    .stats
                    .firings_parallel
                    .fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                let entry = Arc::clone(entry);
                // Stable per-transition affinity: one query's firings land
                // on one worker's inbox (cache warmth, and the groundwork
                // for partitioned baskets with worker affinity) while idle
                // siblings steal.
                let affinity = Self::affinity(entry.factory.name());
                pool.submit(affinity, move || {
                    Self::execute_firing(&shared, &entry, budget, drr_credit);
                });
                true
            }
        }
    }

    /// Stable affinity hash of a transition name (FNV-1a).
    fn affinity(name: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h as usize
    }

    /// True iff the entry is pausable/interval-gated out of this pass.
    /// (Interval-gated entries are treated as not ready: they are neither
    /// fired nor counted as starved.)
    fn gated(entry: &Entry) -> bool {
        if entry.paused.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(interval) = entry.policy.min_interval {
            if let Some(t) = *entry.last_fired.lock() {
                if t.elapsed() < interval {
                    return true;
                }
            }
        }
        false
    }

    /// The historical fixed sweep: fire every ready entry once, unbudgeted,
    /// in the (priority-sorted) order given. An entry whose firing lock is
    /// held by a concurrent drive or in-flight worker counts as skipped,
    /// so quiescence loops keep passing until that firing completes.
    fn sweep(
        shared: &Arc<Shared>,
        entries: &[Arc<Entry>],
        pool: Option<&Arc<WorkerPool>>,
    ) -> (u64, u64) {
        let (mut fired, mut skipped) = (0, 0);
        for entry in entries {
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            if entry.firing.load(Ordering::Relaxed) {
                // Already in flight elsewhere: being served, not starved.
                skipped += 1;
                continue;
            }
            if Self::gated(entry) || !entry.factory.ready() {
                entry.note_idle();
                continue;
            }
            if !Self::try_begin_firing(shared, entry) {
                skipped += 1;
                continue;
            }
            if Self::launch_firing(shared, pool, entry, None, None) {
                fired += 1;
            }
        }
        (fired, skipped)
    }

    /// One deficit-round-robin round over the ring: every backlogged member
    /// accrues `quantum × weight` µs of credit per elapsed millisecond
    /// since its last service opportunity (Δt clamped to
    /// `[`[`ACCRUAL_FLOOR_MICROS`]`, `[`ACCRUAL_CAP_MICROS`]`]`) and is
    /// served a tuple budget its credit can buy at its observed per-tuple
    /// cost. Returns `(fired, skipped)`.
    fn serve_ring(
        shared: &Arc<Shared>,
        ring: &[Arc<Entry>],
        quantum: u64,
        pool: Option<&Arc<WorkerPool>>,
    ) -> (u64, u64) {
        if ring.is_empty() {
            return (0, 0);
        }
        // A zero quantum would accrue no credit and silently starve every
        // ring member forever; clamp it like the weights.
        let quantum = quantum.max(1);
        let head = (shared.ring_head.fetch_add(1, Ordering::Relaxed) % ring.len() as u64) as usize;
        let (mut fired, mut skipped) = (0, 0);
        for i in 0..ring.len() {
            let entry = &ring[(head + i) % ring.len()];
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            if entry.firing.load(Ordering::Relaxed) {
                // In flight on a worker or a concurrent drive: being
                // served right now, not starved — leave the accrual anchor
                // alone (the elapsed time will mint credit when the firing
                // completes, Δt-capped) and keep the pass loop alive.
                skipped += 1;
                continue;
            }
            if Self::gated(entry) {
                entry.note_idle();
                *entry.last_accrual.lock() = None;
                continue;
            }
            if !entry.factory.ready() {
                // Backlog ran dry: classic DRR zeroes the deficit so idle
                // queries cannot bank credit for a later burst — and the
                // accrual anchor resets so the idle stretch mints nothing.
                entry.deficit_micros.store(0, Ordering::Relaxed);
                entry.note_idle();
                *entry.last_accrual.lock() = None;
                continue;
            }
            // Elapsed-time accrual: Δt since this entry's last service
            // opportunity, clamped so tight loops behave per-pass and a
            // stalled ring cannot mint an unbounded burst.
            let dt_micros = {
                let now = Instant::now();
                let mut last = entry.last_accrual.lock();
                let dt = last
                    .map(|t| now.duration_since(t).as_micros() as u64)
                    .unwrap_or(0);
                *last = Some(now);
                dt.clamp(ACCRUAL_FLOOR_MICROS, ACCRUAL_CAP_MICROS)
            };
            let credit = quantum
                .saturating_mul(entry.weight())
                .saturating_mul(dt_micros)
                / 1_000;
            let credit = credit.min(i64::MAX as u64) as i64;
            let deficit = entry
                .deficit_micros
                .fetch_add(credit, Ordering::Relaxed)
                .saturating_add(credit);
            let budget = if deficit <= 0 {
                // Still paying back an overdraft from a past over-budget
                // firing.
                0
            } else {
                (deficit as u64).saturating_mul(1000) / entry.cost_per_tuple_nanos()
            };
            if budget == 0 {
                // Cannot yet afford a single tuple: carry the deficit.
                entry.note_skip();
                skipped += 1;
                continue;
            }
            let budget = usize::try_from(budget).unwrap_or(usize::MAX);
            if !Self::try_begin_firing(shared, entry) {
                // A conflict key is held by another in-flight firing
                // (e.g. an exclusive sibling over the same basket): retry
                // next pass; the accrued credit carries.
                skipped += 1;
                continue;
            }
            // The deficit settlement — charge actual busy time, or cap at
            // one round's credit on deferral — happens inside the firing
            // (inline here, or on the worker that runs it).
            if Self::launch_firing(shared, pool, entry, Some(budget), Some(credit)) {
                fired += 1;
            }
        }
        (fired, skipped)
    }

    /// Fire one entry (optionally with a tuple budget) and do the
    /// book-keeping shared by both fairness policies.
    fn fire_entry(shared: &Shared, entry: &Entry, budget: Option<usize>) -> FireResult {
        let catalog = shared.catalog.read();
        let started = Instant::now();
        let result = match budget {
            None => entry.factory.step(Some(&catalog.tables)),
            Some(max) => entry.factory.step_budgeted(Some(&catalog.tables), max),
        };
        let busy = started.elapsed().as_micros() as u64;
        drop(catalog);
        *entry.last_fired.lock() = Some(Instant::now());
        entry.busy_micros.fetch_add(busy, Ordering::Relaxed);
        match result {
            Ok(out) => {
                entry.firings.fetch_add(1, Ordering::Relaxed);
                shared.stats.firings.fetch_add(1, Ordering::Relaxed);
                entry.record_cost(busy, out.tuples_in);
                entry.firing_hist.record(busy);
                entry
                    .tuples_in
                    .fetch_add(out.tuples_in as u64, Ordering::Relaxed);
                entry.note_fired();
                shared.record_event(EventKind::Firing, || {
                    format!(
                        "{} fired: {} tuples in {busy}µs",
                        entry.factory.name(),
                        out.tuples_in
                    )
                });
                FireResult::Fired { busy_micros: busy }
            }
            // A bounded output basket turned the batch away: not an
            // error, the step retries once downstream frees space. The
            // stall is downstream backpressure, not scheduler starvation:
            // drop any pending ready-wait so it is not booked as
            // scheduling delay.
            Err(DataCellError::Backpressure { .. }) => {
                entry.deferrals.fetch_add(1, Ordering::Relaxed);
                shared.stats.deferrals.fetch_add(1, Ordering::Relaxed);
                *entry.ready_since.lock() = None;
                FireResult::Deferred
            }
            Err(e) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("scheduler: factory {} failed: {e}", entry.factory.name());
                shared.record_event(EventKind::FiringError, || {
                    format!("{} failed: {e}", entry.factory.name())
                });
                *entry.ready_since.lock() = None;
                FireResult::Errored
            }
        }
    }

    /// Deterministic drive: fire until no factory is ready (or `limit`
    /// passes, as a cycle guard). Returns total firings. Under
    /// [`Fairness::DeficitRoundRobin`] a pass may fire nothing while a
    /// ready query is still saving up deficit; the drive keeps passing
    /// until no transition is ready *or* skipped, so budgeted backlogs
    /// drain deterministically.
    ///
    /// Always fires inline on the calling thread — but through the same
    /// per-transition firing locks as the background scheduler, so driving
    /// a started cell cannot double-fire a transition: an entry a
    /// background worker holds counts as skipped and the drive keeps
    /// passing until that firing completes.
    pub fn run_until_quiescent(&self, limit: usize) -> u64 {
        let mut total = 0;
        for _ in 0..limit {
            let (fired, skipped) = Self::pass_impl(&self.shared, None);
            total += fired;
            if fired == 0 && skipped == 0 {
                break;
            }
        }
        total
    }

    /// Start the background scheduling thread (idempotent). With
    /// [`Scheduler::set_workers`]` > 1` the thread becomes the *admission*
    /// loop of an admission/execution split: it runs the fairness policy
    /// and dispatches each admitted firing to a work-stealing pool of that
    /// many workers.
    pub fn start(&self) {
        let mut handle = self.handle.lock();
        if handle.is_some() {
            return;
        }
        self.shared.stop.store(false, Ordering::Relaxed);
        let workers = self.shared.workers.load(Ordering::Relaxed).max(1);
        let pool = if workers > 1 {
            let pool = Arc::new(WorkerPool::new(workers));
            *self.shared.pool.lock() = Some(Arc::clone(&pool));
            Some(pool)
        } else {
            *self.shared.pool.lock() = None;
            None
        };
        let shared = Arc::clone(&self.shared);
        *handle = Some(
            std::thread::Builder::new()
                .name("datacell-scheduler".into())
                .spawn(move || {
                    let mut seen = shared.signal.version();
                    while !shared.stop.load(Ordering::Relaxed) {
                        let (fired, _skipped) = Self::pass_impl(&shared, pool.as_ref());
                        if fired == 0 {
                            // Nothing ready (or everything admissible is
                            // already in flight): block until a basket
                            // changes or a firing completes. The timeout
                            // bounds the wait so time-sliced policies and
                            // stop flags are honoured.
                            seen = shared.signal.wait_past(seen, Duration::from_millis(1));
                        } else {
                            seen = shared.signal.version();
                        }
                    }
                })
                .expect("spawn scheduler thread"),
        );
    }

    /// Stop the background thread and wait for it — and, when a worker
    /// pool is attached, drain and join the workers too (every already
    /// admitted firing completes; none is abandoned mid-lock). The pool's
    /// counters stay snapshotable after stop.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.signal.notify();
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
        if let Some(pool) = self.shared.pool.lock().as_ref() {
            pool.shutdown();
        }
    }

    /// Counters of the execution pool of the current (or most recent)
    /// parallel run; `None` when the scheduler has only ever run
    /// sequentially.
    pub fn exec_snapshot(&self) -> Option<PoolSnapshot> {
        self.shared.pool.lock().as_ref().map(|p| p.snapshot())
    }

    /// Firings dispatched to the worker pool (ever).
    pub fn firings_parallel(&self) -> u64 {
        self.shared.stats.firings_parallel.load(Ordering::Relaxed)
    }

    /// Counter snapshot: (passes, firings, errors).
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.shared.stats.passes.load(Ordering::Relaxed),
            self.shared.stats.firings.load(Ordering::Relaxed),
            self.shared.stats.errors.load(Ordering::Relaxed),
        )
    }

    /// Steps deferred by output backpressure across all transitions.
    pub fn deferrals(&self) -> u64 {
        self.shared.stats.deferrals.load(Ordering::Relaxed)
    }

    /// Per-transition scheduling accounts, in firing order — firings and
    /// busy-time per factory (groundwork for fairness policies).
    pub fn transition_metrics(&self) -> Vec<SchedulerMetrics> {
        self.shared
            .entries
            .lock()
            .iter()
            .map(|e| {
                // Fold any *in-progress* ready-wait into the reported
                // delay, so the starvation alarm rises while a query is
                // being skipped, not only after it finally fires.
                let mut sched_delay_micros = e.sched_delay_micros.load(Ordering::Relaxed);
                if let Some(since) = *e.ready_since.lock() {
                    sched_delay_micros += since.elapsed().as_micros() as u64;
                }
                SchedulerMetrics {
                    name: e.factory.name().to_string(),
                    firings: e.firings.load(Ordering::Relaxed),
                    busy_micros: e.busy_micros.load(Ordering::Relaxed),
                    tuples_in: e.tuples_in.load(Ordering::Relaxed),
                    deferrals: e.deferrals.load(Ordering::Relaxed),
                    weight: e.weight.load(Ordering::Relaxed).max(1),
                    sched_delay_micros,
                    consecutive_skips: e.consecutive_skips.load(Ordering::Relaxed),
                    firing_micros: e.firing_hist.snapshot(),
                    undelivered: 0,
                }
            })
            .collect()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::FactoryOutput;
    use datacell_bat::types::{DataType, Value};
    use datacell_sql::Schema;

    fn setup() -> (Arc<RwLock<StreamCatalog>>, Scheduler) {
        let mut cat = StreamCatalog::new();
        cat.create_basket("r", Schema::new(vec![("a".into(), DataType::Int)]))
            .unwrap();
        cat.create_basket("out", Schema::new(vec![("a".into(), DataType::Int)]))
            .unwrap();
        let catalog = Arc::new(RwLock::new(cat));
        let sched = Scheduler::new(Arc::clone(&catalog));
        (catalog, sched)
    }

    fn selection_factory(catalog: &Arc<RwLock<StreamCatalog>>, name: &str) -> Factory {
        let cat = catalog.read();
        let out = cat.basket("out").unwrap();
        Factory::compile(
            name,
            "select s.a from [select * from r] as s where s.a > 10",
            &cat,
            FactoryOutput::Basket(out),
        )
        .unwrap()
    }

    #[test]
    fn quiescent_drive_processes_everything() {
        let (catalog, sched) = setup();
        sched.add_factory(selection_factory(&catalog, "q"));
        let (input, out) = {
            let cat = catalog.read();
            (cat.basket("r").unwrap(), cat.basket("out").unwrap())
        };
        input
            .append_rows(&[
                vec![Value::Int(5)],
                vec![Value::Int(15)],
                vec![Value::Int(25)],
            ])
            .unwrap();
        let fired = sched.run_until_quiescent(100);
        assert_eq!(fired, 1);
        assert!(input.is_empty());
        assert_eq!(out.len(), 2);
        let (passes, firings, errors) = sched.stats();
        assert!(passes >= 1);
        assert_eq!(firings, 1);
        assert_eq!(errors, 0);
    }

    #[test]
    fn background_thread_fires_on_append() {
        let (catalog, sched) = setup();
        sched.add_factory(selection_factory(&catalog, "q"));
        sched.start();
        let (input, out) = {
            let cat = catalog.read();
            (cat.basket("r").unwrap(), cat.basket("out").unwrap())
        };
        input.append_rows(&[vec![Value::Int(50)]]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while out.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        sched.stop();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn priority_orders_firing() {
        let (catalog, sched) = setup();
        let low = sched.add_factory_with_policy(
            selection_factory(&catalog, "low"),
            SchedulePolicy {
                priority: 1,
                min_interval: None,
                ..SchedulePolicy::default()
            },
        );
        let high = sched.add_factory_with_policy(
            selection_factory(&catalog, "high"),
            SchedulePolicy {
                priority: 10,
                min_interval: None,
                ..SchedulePolicy::default()
            },
        );
        let names: Vec<String> = sched
            .transitions()
            .iter()
            .map(|f| f.name().to_string())
            .collect();
        assert_eq!(names, vec!["high".to_string(), "low".to_string()]);
        let _ = (low, high);
    }

    #[test]
    fn min_interval_gates_refiring() {
        let (catalog, sched) = setup();
        sched.add_factory_with_policy(
            selection_factory(&catalog, "q"),
            SchedulePolicy {
                priority: 0,
                min_interval: Some(Duration::from_secs(3600)),
                ..SchedulePolicy::default()
            },
        );
        let input = catalog.read().basket("r").unwrap();
        input.append_rows(&[vec![Value::Int(50)]]).unwrap();
        assert_eq!(sched.pass(), 1);
        input.append_rows(&[vec![Value::Int(60)]]).unwrap();
        // Interval not elapsed: no firing.
        assert_eq!(sched.pass(), 0);
        assert_eq!(input.len(), 1);
    }

    #[test]
    fn pause_skips_firing_and_resume_drains_backlog() {
        let (catalog, sched) = setup();
        sched.add_factory(selection_factory(&catalog, "q"));
        let (input, out) = {
            let cat = catalog.read();
            (cat.basket("r").unwrap(), cat.basket("out").unwrap())
        };
        sched.set_paused("q", true).unwrap();
        assert!(sched.is_paused("q").unwrap());
        input
            .append_rows(&[vec![Value::Int(20)], vec![Value::Int(30)]])
            .unwrap();
        assert_eq!(sched.run_until_quiescent(10), 0, "paused: no firings");
        assert_eq!(input.len(), 2, "input keeps buffering while paused");
        sched.set_paused("q", false).unwrap();
        assert!(!sched.is_paused("q").unwrap());
        assert_eq!(sched.run_until_quiescent(10), 1, "backlog in one step");
        assert_eq!(out.len(), 2);
        assert!(sched.set_paused("nope", true).is_err());
        assert!(sched.is_paused("nope").is_err());
    }

    #[test]
    fn per_transition_metrics_account_firings() {
        let (catalog, sched) = setup();
        sched.add_factory(selection_factory(&catalog, "q"));
        let input = catalog.read().basket("r").unwrap();
        input.append_rows(&[vec![Value::Int(50)]]).unwrap();
        sched.run_until_quiescent(10);
        input.append_rows(&[vec![Value::Int(60)]]).unwrap();
        sched.run_until_quiescent(10);
        let accounts = sched.transition_metrics();
        assert_eq!(accounts.len(), 1);
        assert_eq!(accounts[0].name, "q");
        assert_eq!(accounts[0].firings, 2);
        assert_eq!(accounts[0].deferrals, 0);
    }

    #[test]
    fn backpressure_defers_instead_of_erroring() {
        use crate::basket::OverflowPolicy;
        let (catalog, sched) = setup();
        sched.add_factory(selection_factory(&catalog, "q"));
        let (input, out) = {
            let cat = catalog.read();
            (cat.basket("r").unwrap(), cat.basket("out").unwrap())
        };
        // A resident tuple leaves no room for the 2-result batch in the
        // 1-tuple Reject output basket.
        out.append_rows(&[vec![Value::Int(0)]]).unwrap();
        out.set_capacity(Some(1), OverflowPolicy::Reject);
        input
            .append_rows(&[vec![Value::Int(20)], vec![Value::Int(30)]])
            .unwrap();
        assert_eq!(sched.run_until_quiescent(5), 0, "step deferred");
        assert!(sched.deferrals() >= 1);
        let (_, _, errors) = sched.stats();
        assert_eq!(errors, 0, "backpressure is not an error");
        assert_eq!(input.len(), 2, "inputs were not consumed");
        // Downstream drains the basket: the retry lands the whole batch
        // (an empty basket admits an over-capacity batch — the bound caps
        // the backlog, not one batch — so the deferral always resolves).
        out.clear();
        assert_eq!(sched.run_until_quiescent(5), 1);
        assert_eq!(out.len(), 2);
        assert!(input.is_empty());
        assert_eq!(sched.transition_metrics()[0].deferrals, 1);
    }

    #[test]
    fn drr_deficit_does_not_wind_up_across_deferrals() {
        use crate::basket::OverflowPolicy;
        // Sustained output backpressure must not bank deficit: when the
        // consumer recovers, service resumes in quantum-sized slices, not
        // one mega-firing over the whole accumulated credit.
        let (catalog, sched) = setup();
        sched.set_fairness(Fairness::DeficitRoundRobin { quantum: 50 });
        sched.add_factory(selection_factory(&catalog, "q"));
        let (input, out) = {
            let cat = catalog.read();
            (cat.basket("r").unwrap(), cat.basket("out").unwrap())
        };
        // A resident tuple keeps the 1-cap Reject output full (the
        // empty-basket oversized-batch exemption never applies).
        out.append_rows(&[vec![Value::Int(0)]]).unwrap();
        out.set_capacity(Some(1), OverflowPolicy::Reject);
        let rows: Vec<Vec<Value>> = (0..10_000).map(|i| vec![Value::Int(100 + i)]).collect();
        input.append_rows(&rows).unwrap();
        // Many passes of pure deferral (bootstrap cost 1 µs/t → each
        // attempted slice stays ~quantum-sized even while deferring).
        for _ in 0..20 {
            assert_eq!(sched.pass(), 0);
        }
        assert!(sched.deferrals() >= 20);
        // Downstream frees up: the next firing is budget-bounded. With
        // windup it would cover ~20 × quantum worth (1000+ tuples).
        out.clear();
        sched.pass();
        assert!(!out.is_empty(), "retry landed");
        assert!(
            out.len() <= 200,
            "recovery firing stayed quantum-sized, got {}",
            out.len()
        );
        assert!(input.len() >= 9_000, "backlog drains in slices");
    }

    #[test]
    fn fairness_defaults_to_priority_and_is_switchable() {
        let (_, sched) = setup();
        assert_eq!(sched.fairness(), Fairness::Priority);
        sched.set_fairness(Fairness::DeficitRoundRobin { quantum: 500 });
        assert_eq!(
            sched.fairness(),
            Fairness::DeficitRoundRobin { quantum: 500 }
        );
    }

    #[test]
    fn drr_drive_processes_everything() {
        // The quiescent drive must drain the same workload as Priority
        // even when firings are budgeted (skips keep the drive alive).
        let (catalog, sched) = setup();
        sched.set_fairness(Fairness::DeficitRoundRobin { quantum: 1000 });
        sched.add_factory(selection_factory(&catalog, "q"));
        let (input, out) = {
            let cat = catalog.read();
            (cat.basket("r").unwrap(), cat.basket("out").unwrap())
        };
        let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int(i)]).collect();
        input.append_rows(&rows).unwrap();
        sched.run_until_quiescent(10_000);
        assert!(input.is_empty());
        assert_eq!(out.len(), 89, "values 11..100 pass the predicate");
    }

    #[test]
    fn zero_quantum_is_clamped_not_starving() {
        let (catalog, sched) = setup();
        sched.set_fairness(Fairness::DeficitRoundRobin { quantum: 0 });
        sched.add_factory(selection_factory(&catalog, "q"));
        let (input, out) = {
            let cat = catalog.read();
            (cat.basket("r").unwrap(), cat.basket("out").unwrap())
        };
        input
            .append_rows(&[vec![Value::Int(50)], vec![Value::Int(60)]])
            .unwrap();
        // A literal quantum of 0 would accrue no credit and skip forever;
        // the clamp keeps the ring serviceable (if slowly).
        sched.run_until_quiescent(100_000);
        assert!(input.is_empty(), "ring still drains under quantum 0");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn set_weight_clamps_and_validates() {
        let (catalog, sched) = setup();
        sched.add_factory(selection_factory(&catalog, "q"));
        sched.set_weight("q", 0).unwrap();
        assert_eq!(sched.transition_metrics()[0].weight, 1, "clamped to 1");
        sched.set_weight("q", 7).unwrap();
        assert_eq!(sched.transition_metrics()[0].weight, 7);
        assert!(sched.set_weight("nope", 2).is_err());
    }

    #[test]
    fn remove_factory_stops_firing() {
        let (catalog, sched) = setup();
        sched.add_factory(selection_factory(&catalog, "q"));
        sched.remove_factory("q").unwrap();
        assert!(sched.remove_factory("q").is_err());
        let input = catalog.read().basket("r").unwrap();
        input.append_rows(&[vec![Value::Int(50)]]).unwrap();
        assert_eq!(sched.run_until_quiescent(10), 0);
        assert_eq!(input.len(), 1);
    }

    #[test]
    fn removal_outlasts_in_flight_and_listed_firings() {
        // A pass lists the entries before it fires them, and a pool worker
        // may still be running one: removal waits out the firing in flight,
        // and the listed entry can never begin another.
        let (catalog, sched) = setup();
        sched.add_factory(selection_factory(&catalog, "q"));
        let entry = Arc::clone(&sched.shared.entries.lock()[0]);
        assert!(Scheduler::try_begin_firing(&sched.shared, &entry));
        let sched = Arc::new(sched);
        let remover = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.remove_factory("q"))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!remover.is_finished(), "removal waits for the firing");
        Scheduler::end_firing(&sched.shared, &entry);
        remover.join().unwrap().unwrap();
        assert!(!Scheduler::try_begin_firing(&sched.shared, &entry));
    }

    // ------------------------- parallel execution -------------------------

    #[test]
    fn workers_default_and_clamp() {
        let (_, sched) = setup();
        assert_eq!(sched.workers(), 1, "direct scheduler stays sequential");
        sched.set_workers(0);
        assert_eq!(sched.workers(), 1, "clamped to >= 1");
        sched.set_workers(4);
        assert_eq!(sched.workers(), 4);
        assert!(
            sched.exec_snapshot().is_none(),
            "no pool until the scheduler runs in the background"
        );
    }

    #[test]
    fn parallel_background_processes_everything() {
        let (catalog, sched) = setup();
        sched.set_workers(4);
        sched.add_factory(selection_factory(&catalog, "q"));
        sched.start();
        let (input, out) = {
            let cat = catalog.read();
            (cat.basket("r").unwrap(), cat.basket("out").unwrap())
        };
        let rows: Vec<Vec<Value>> = (0..500).map(|i| vec![Value::Int(i)]).collect();
        input.append_rows(&rows).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while (!input.is_empty() || out.len() < 489) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        sched.stop();
        assert!(input.is_empty(), "backlog drained");
        assert_eq!(out.len(), 489, "values 11..500 pass, exactly once");
        assert!(
            sched.firings_parallel() >= 1,
            "firings went through the pool"
        );
        let snap = sched.exec_snapshot().expect("pool ran");
        assert_eq!(snap.workers, 4);
        assert_eq!(
            snap.tasks,
            sched.firings_parallel(),
            "every dispatched firing was executed"
        );
    }

    #[test]
    fn set_workers_restarts_running_scheduler() {
        let (catalog, sched) = setup();
        sched.add_factory(selection_factory(&catalog, "q"));
        sched.start();
        sched.set_workers(2);
        let (input, out) = {
            let cat = catalog.read();
            (cat.basket("r").unwrap(), cat.basket("out").unwrap())
        };
        input.append_rows(&[vec![Value::Int(50)]]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while out.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        sched.stop();
        assert_eq!(out.len(), 1, "resized scheduler keeps processing");
        assert_eq!(sched.workers(), 2);
    }

    #[test]
    fn manual_drive_and_background_fire_exactly_once() {
        // Regression for the double-fire race: `run_until_quiescent` on a
        // cell whose background scheduler is running contends on the same
        // per-transition firing locks, so a transition never steps twice
        // concurrently and every input tuple is consumed exactly once.
        let (catalog, sched) = setup();
        sched.set_workers(4);
        sched.add_factory(selection_factory(&catalog, "q"));
        sched.start();
        let (input, out) = {
            let cat = catalog.read();
            (cat.basket("r").unwrap(), cat.basket("out").unwrap())
        };
        // All values pass the predicate, so delivered == appended iff
        // nothing is lost and nothing fires twice.
        for batch in 0..20 {
            let rows: Vec<Vec<Value>> = (0..50)
                .map(|i| vec![Value::Int(100 + batch * 50 + i)])
                .collect();
            input.append_rows(&rows).unwrap();
            sched.run_until_quiescent(10_000);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while (!input.is_empty() || out.len() < 1000) && Instant::now() < deadline {
            sched.run_until_quiescent(10_000);
            std::thread::sleep(Duration::from_millis(1));
        }
        sched.stop();
        assert!(input.is_empty());
        assert_eq!(out.len(), 1000, "exactly once across both drivers");
    }
}
