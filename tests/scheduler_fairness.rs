//! Deterministic fairness tests for the scheduler's two tiers: in the
//! deficit round-robin ring (`priority < 0`) a 10×-cost query and its
//! cheap co-tenant both make progress every few passes (bounded
//! consecutive skips — no starvation), and in the default unbudgeted
//! sweep (`priority >= 0`) the historical ordering is preserved
//! byte-for-byte (regression guard for existing workloads).
//!
//! The workload is a synthetic [`Transition`] whose firing moves the
//! scheduler's manual [`Clock`] forward by its exact per-tuple cost, so
//! the cost model sees a controlled skew and every run gives the same
//! counts, whatever else the host is doing.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use datacell::catalog::StreamCatalog;
use datacell::clock::Clock;
use datacell::error::Result;
use datacell::factory::StepOutcome;
use datacell::scheduler::{SchedulePolicy, Scheduler, SchedulerMetrics, Transition};
use datacell::DataCell;
use parking_lot::{Mutex, RwLock};

/// A query stand-in with an exact, configurable (and runtime-adjustable)
/// per-tuple cost.
struct CostedQuery {
    name: String,
    /// Tuples waiting to be processed.
    pending: AtomicUsize,
    /// Tuples processed so far.
    processed: AtomicU64,
    /// Clock time per tuple, in nanoseconds (adjustable mid-test to model
    /// cost drift — a growing join table, shifting selectivity).
    cost_nanos: AtomicU64,
    /// Tuples served by each firing, in order (drift-tracking tests).
    firing_sizes: Mutex<Vec<usize>>,
    /// When false, `step` ignores its budget and processes the
    /// whole backlog — modelling transitions without budget support
    /// (window evaluators), to test the scheduler's overdraft debt.
    honors_budget: bool,
    /// Firing order log shared across transitions (ordering tests).
    log: Option<Arc<Mutex<Vec<String>>>>,
    /// The scheduler's clock, which each firing moves forward by its cost.
    clock: Clock,
}

impl CostedQuery {
    fn new(name: &str, cost_per_tuple: Duration, clock: &Clock) -> Arc<Self> {
        Arc::new(Self::plain(name, cost_per_tuple, clock))
    }

    fn plain(name: &str, cost_per_tuple: Duration, clock: &Clock) -> Self {
        CostedQuery {
            name: name.to_string(),
            pending: AtomicUsize::new(0),
            processed: AtomicU64::new(0),
            cost_nanos: AtomicU64::new(cost_per_tuple.as_nanos() as u64),
            firing_sizes: Mutex::new(Vec::new()),
            honors_budget: true,
            log: None,
            clock: clock.clone(),
        }
    }

    /// A transition that ignores the tuple budget entirely (as window
    /// evaluators without input slicing do).
    fn budget_blind(name: &str, cost_per_tuple: Duration, clock: &Clock) -> Arc<Self> {
        Arc::new(CostedQuery {
            honors_budget: false,
            ..Self::plain(name, cost_per_tuple, clock)
        })
    }

    fn with_log(name: &str, log: &Arc<Mutex<Vec<String>>>, clock: &Clock) -> Arc<Self> {
        Arc::new(CostedQuery {
            log: Some(Arc::clone(log)),
            ..Self::plain(name, Duration::from_micros(1), clock)
        })
    }

    fn feed(&self, n: usize) {
        self.pending.fetch_add(n, Ordering::Relaxed);
    }

    fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Change the per-tuple cost at runtime (the drift under test).
    fn set_cost(&self, cost_per_tuple: Duration) {
        self.cost_nanos
            .store(cost_per_tuple.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Tuples served by each firing so far, in firing order.
    fn firing_sizes(&self) -> Vec<usize> {
        self.firing_sizes.lock().clone()
    }
}

impl Transition for CostedQuery {
    fn name(&self) -> &str {
        &self.name
    }

    fn ready(&self) -> bool {
        self.pending.load(Ordering::Relaxed) > 0
    }

    fn step(
        &self,
        _tables: Option<&datacell_engine::Catalog>,
        max_tuples: usize,
    ) -> Result<StepOutcome> {
        let cap = if self.honors_budget {
            max_tuples.max(1)
        } else {
            usize::MAX
        };
        let n = self.pending.load(Ordering::Relaxed).min(cap);
        // n tuples at the configured per-tuple cost, on the scheduler clock.
        let cost = self.cost_nanos.load(Ordering::Relaxed) * n as u64;
        self.clock.advance(Duration::from_nanos(cost));
        self.pending.fetch_sub(n, Ordering::Relaxed);
        self.processed.fetch_add(n as u64, Ordering::Relaxed);
        self.firing_sizes.lock().push(n);
        if let Some(log) = &self.log {
            log.lock().push(self.name.clone());
        }
        Ok(StepOutcome {
            tuples_in: n,
            consumed: n,
            produced: n,
            held: 0,
        })
    }
}

/// A scheduler on a fresh manual clock, and that clock.
fn scheduler() -> (Scheduler, Clock) {
    let clock = Clock::manual();
    let catalog = Arc::new(RwLock::new(StreamCatalog::new()));
    (Scheduler::new(catalog, clock.clone()), clock)
}

/// A DRR ring member's policy: a negative priority joins the ring.
const RING: SchedulePolicy = SchedulePolicy {
    priority: -1,
    min_interval: None,
    weight: 1,
};

#[test]
fn drr_serves_both_queries_under_10x_cost_skew() {
    let (sched, clock) = scheduler();
    // Quantum is a share of clock time: 400 µs of busy credit per ms,
    // per query — together 0.8 cores, so the budget genuinely binds.
    sched.set_quantum(400);
    let cheap = CostedQuery::new("cheap", Duration::from_micros(200), &clock);
    let heavy = CostedQuery::new("heavy", Duration::from_micros(2_000), &clock);
    sched.add_transition(Arc::clone(&cheap) as _, RING);
    sched.add_transition(Arc::clone(&heavy) as _, RING);

    // Warm-up: one tiny firing each teaches the scheduler the real
    // per-tuple costs (the bootstrap estimate is optimistic by design).
    cheap.feed(1);
    heavy.feed(1);
    sched.run_until_quiescent(50);

    // Saturate both, then drive a fixed number of passes. Every pass the
    // cheap query can afford tuples (≥400 µs accrued ≫ 200 µs/tuple)
    // while the heavy one (2 ms/tuple) must save deficit across passes —
    // it fires roughly every fifth pass.
    cheap.feed(1_000_000);
    heavy.feed(1_000_000);
    const PASSES: usize = 60;
    // Nominally the heavy query fires every ~5th pass (2 ms cost vs
    // ≥400 µs/pass accrual); K leaves headroom.
    const K: u64 = 8;
    let cheap_before = cheap.processed();
    let heavy_before = heavy.processed();
    let mut max_skip_streak = 0u64;
    for _ in 0..PASSES {
        sched.pass();
        for m in sched.transition_metrics() {
            max_skip_streak = max_skip_streak.max(m.consecutive_skips);
        }
    }

    let metrics = sched.transition_metrics();
    let cheap_m = metrics.iter().find(|m| m.name == "cheap").unwrap();
    let heavy_m = metrics.iter().find(|m| m.name == "heavy").unwrap();
    assert!(
        cheap.processed() - cheap_before >= (PASSES as u64) * 3 / 5,
        "cheap query progresses on most passes (got {})",
        cheap.processed() - cheap_before
    );
    assert!(
        heavy.processed() > heavy_before,
        "heavy query is served, only budgeted"
    );
    assert!(
        heavy_m.firings >= (PASSES as u64) / K,
        "heavy fires at least every {K} passes: {} firings over {PASSES}",
        heavy_m.firings
    );
    // Absolute-starvation backstop: a broken ring would skip the heavy
    // query for essentially the whole drive (streak ≈ PASSES).
    assert!(
        max_skip_streak < (PASSES as u64) / 2,
        "no consecutive-skip blowup: max streak {max_skip_streak}"
    );
    // The scheduling-delay account of the heavy query is visible: it
    // waited (ready, unfired) while saving deficit.
    assert!(
        heavy_m.sched_delay_micros > 0,
        "starvation pressure is observable in sched_delay_micros"
    );
    assert!(
        cheap_m.firings >= (PASSES as u64) * 3 / 5,
        "cheap fired on most passes"
    );
}

const BLIND_PASSES: u64 = 60;

/// A budget-blind transition beside a budget-honoring one in the ring:
/// warm-up, then [`BLIND_PASSES`] passes that refill the blind one with
/// 10 tuples (10 ms) whenever it runs dry. The metrics after the warm-up
/// and at the end.
fn budget_blind_drive() -> [Vec<SchedulerMetrics>; 2] {
    let (sched, clock) = scheduler();
    sched.set_quantum(400);
    let blind = CostedQuery::budget_blind("blind", Duration::from_micros(1_000), &clock);
    let cheap = CostedQuery::new("cheap", Duration::from_micros(200), &clock);
    sched.add_transition(Arc::clone(&blind) as _, RING);
    sched.add_transition(Arc::clone(&cheap) as _, RING);
    // Warm-up: teach the scheduler both real per-tuple costs, then clear
    // any bootstrap-misestimate debt before measuring.
    blind.feed(1);
    cheap.feed(1);
    sched.run_until_quiescent(50);
    for _ in 0..20 {
        sched.pass();
    }
    let warm = sched.transition_metrics();
    cheap.feed(1_000_000);
    for _ in 0..BLIND_PASSES {
        // Each blind firing overruns its accrued credit (≥0.4 ms/pass)
        // many times over.
        if blind.pending.load(Ordering::Relaxed) == 0 {
            blind.feed(10);
        }
        sched.pass();
    }
    [warm, sched.transition_metrics()]
}

#[test]
fn budget_blind_transition_pays_overdraft_debt() {
    // A transition whose step ignores the tuple budget still cannot
    // monopolize the ring: its over-budget
    // firing drives the deficit negative and it is skipped until the debt
    // is repaid, while the budget-honoring co-tenant fires every pass.
    let [warm, metrics] = budget_blind_drive();
    let fired = |name: &str| {
        let firings = |m: &[SchedulerMetrics]| m.iter().find(|m| m.name == name).unwrap().firings;
        firings(&metrics) - firings(&warm)
    };
    let (blind_fired, cheap_fired) = (fired("blind"), fired("cheap"));
    assert!(
        cheap_fired >= BLIND_PASSES * 3 / 5,
        "budget-honoring co-tenant keeps firing: {cheap_fired} of {BLIND_PASSES}"
    );
    // Each blind firing costs ~10 ms against a sub-millisecond accrual,
    // so debt limits it to a handful of firings. Without overdraft debt
    // it would fire every pass it is backlogged (~30+ of 60).
    assert!(
        blind_fired <= BLIND_PASSES / 4,
        "overdraft debt throttles the budget-blind transition: {blind_fired} firings"
    );
    assert!(blind_fired >= 2, "but it is still served");
}

#[test]
fn identical_drives_replay_exactly() {
    // On a fresh manual clock the scheduler's whole account — firings,
    // tuples, busy time, scheduling delay, skip streaks — is a function of
    // the drive alone.
    assert_eq!(budget_blind_drive(), budget_blind_drive());
}

#[test]
fn drr_weights_shift_busy_share() {
    let (sched, clock) = scheduler();
    // 0.6 + 0.2 cores by weight: scarce enough that the budget binds and
    // the 3:1 share is the inflow ratio, not the backlog ratio.
    sched.set_quantum(200);
    let favored = CostedQuery::new("favored", Duration::from_micros(1_000), &clock);
    let normal = CostedQuery::new("normal", Duration::from_micros(1_000), &clock);
    sched.add_transition(
        Arc::clone(&favored) as _,
        SchedulePolicy { weight: 3, ..RING },
    );
    sched.add_transition(Arc::clone(&normal) as _, RING);
    favored.feed(1);
    normal.feed(1);
    sched.run_until_quiescent(50);

    favored.feed(1_000_000);
    normal.feed(1_000_000);
    for _ in 0..80 {
        sched.pass();
    }
    let (f, n) = (favored.processed() - 1, normal.processed() - 1);
    assert!(n > 0, "weight-1 query still progresses");
    assert!(
        f >= n * 2,
        "weight 3 earns a clearly larger share: favored={f} normal={n}"
    );
    let metrics = sched.transition_metrics();
    assert_eq!(
        metrics.iter().find(|m| m.name == "favored").unwrap().weight,
        3
    );
}

#[test]
fn priority_sweep_ordering_is_preserved_byte_for_byte() {
    // Regression guard: at the default priority tier the firing order is
    // exactly the historical sweep — priority descending, ties in
    // registration order, every ready transition once per pass, no skips.
    let (sched, clock) = scheduler();
    let log = Arc::new(Mutex::new(Vec::new()));
    let first_tie = CostedQuery::with_log("first_tie", &log, &clock);
    let high = CostedQuery::with_log("high", &log, &clock);
    let second_tie = CostedQuery::with_log("second_tie", &log, &clock);
    sched.add_transition(Arc::clone(&first_tie) as _, SchedulePolicy::default());
    sched.add_transition(
        Arc::clone(&high) as _,
        SchedulePolicy {
            priority: 7,
            ..SchedulePolicy::default()
        },
    );
    sched.add_transition(Arc::clone(&second_tie) as _, SchedulePolicy::default());

    for _ in 0..3 {
        first_tie.feed(1);
        high.feed(1);
        second_tie.feed(1);
        sched.pass();
    }
    let want: Vec<String> = ["high", "first_tie", "second_tie"]
        .iter()
        .cycle()
        .take(9)
        .map(|s| s.to_string())
        .collect();
    assert_eq!(*log.lock(), want, "historical sweep order, three passes");
    // The old sweep never skips a ready transition.
    for m in sched.transition_metrics() {
        assert_eq!(m.consecutive_skips, 0, "{}", m.name);
        assert_eq!(m.firings, 3, "{}", m.name);
    }
}

#[test]
fn strict_priority_tier_rides_above_the_drr_ring() {
    // A non-negative priority stays out of the ring: it fires first and
    // unbudgeted, in the sweep.
    let (sched, clock) = scheduler();
    sched.set_quantum(100);
    let log = Arc::new(Mutex::new(Vec::new()));
    let express = CostedQuery::with_log("express", &log, &clock);
    let ring = CostedQuery::with_log("ring", &log, &clock);
    sched.add_transition(Arc::clone(&ring) as _, RING);
    sched.add_transition(
        Arc::clone(&express) as _,
        SchedulePolicy {
            priority: 1,
            ..SchedulePolicy::default()
        },
    );
    express.feed(5);
    ring.feed(5);
    sched.pass();
    assert_eq!(log.lock()[0], "express", "express tier served first");
    assert_eq!(
        express.processed(),
        5,
        "express firing is unbudgeted (whole backlog in one step)"
    );
}

#[test]
fn ewma_cost_model_tracks_cost_drift() {
    // The DRR budget is credit / estimated-per-tuple-cost. With the old
    // lifetime average (`busy / tuples`), a query whose cost drifts up
    // 100× mid-stream kept its stale cheap estimate for thousands of
    // tuples, so every firing massively overran its quantum. The EWMA
    // closes 1/8 of the gap per firing: within a handful of firings the
    // budget shrinks to match the new cost and firings are quantum-sized
    // again.
    let (sched, clock) = scheduler();
    sched.set_quantum(500);
    let q = CostedQuery::new("drifter", Duration::from_micros(20), &clock);
    sched.add_transition(Arc::clone(&q) as _, RING);

    // A long, cheap history: a lifetime average would be anchored here.
    q.feed(2_000);
    sched.run_until_quiescent(100_000);
    assert_eq!(q.processed(), 2_000, "warm history fully drained");
    let warm_firings = q.firing_sizes().len();

    // The cost drifts up 100× (e.g. the query's join table grew).
    q.set_cost(Duration::from_micros(2_000));
    q.feed(1_000);

    // Drive until 8 post-drift firings happened (the first one is allowed
    // to overrun: it was budgeted with the stale estimate).
    for _ in 0..10_000 {
        if q.firing_sizes().len() >= warm_firings + 8 {
            break;
        }
        sched.pass();
    }
    let sizes = q.firing_sizes();
    assert!(
        sizes.len() >= warm_firings + 8,
        "drive produced enough post-drift firings (got {})",
        sizes.len() - warm_firings
    );
    let tail = &sizes[sizes.len() - 3..];
    // At 2 ms/tuple against a 500 µs quantum, a converged estimate buys
    // 1 tuple per firing (a little more right after the overdraft repays).
    // The stale lifetime average (~40 µs after the warm history) would
    // still grant ~12-tuple slices here — a 24 ms firing per 500 µs
    // credit, i.e. no re-budgeting within the observation window.
    assert!(
        tail.iter().all(|&n| n <= 4),
        "EWMA re-budgeted within a handful of firings: tail {tail:?}"
    );
    // The backlog is still being served, just in slices.
    assert!(q.processed() > 2_000, "drifted query keeps making progress");
}

#[test]
fn drr_credit_tracks_wall_clock_not_pass_rate() {
    // The PR-3 follow-up pinned: per-pass accrual coupled a query's
    // credit rate to how often the scheduler passes, so an idle-ish
    // system passing every 1 ms out-accrued a busy one in clock-time
    // terms. Accrual is now `quantum × weight × Δt`: one budget-bound
    // query driven over the same 400 ms of clock time at a third of the
    // pass rate must get an (approximately) unchanged share. Under the old
    // per-pass rule the fast drive processed ~2.3× the slow one.
    let run = |pass_period: Duration| -> u64 {
        let (sched, clock) = scheduler();
        // 0.2 cores of credit; each tuple costs 1 ms, so the query is
        // budget-bound, never backlog-bound.
        sched.set_quantum(200);
        let q = CostedQuery::new("q", Duration::from_millis(1), &clock);
        sched.add_transition(Arc::clone(&q) as _, RING);
        q.feed(1);
        sched.run_until_quiescent(50); // teach the cost model
        q.feed(1_000_000);
        let end = clock.now_nanos() + Duration::from_millis(400).as_nanos() as u64;
        while clock.now_nanos() < end {
            sched.pass();
            clock.advance(pass_period);
        }
        q.processed() - 1
    };
    let fast = run(Duration::from_millis(2));
    let slow = run(Duration::from_millis(6));
    assert!(slow > 0 && fast > 0, "both drives make progress");
    assert!(
        fast <= slow.saturating_mul(8) / 5 && slow <= fast.saturating_mul(8) / 5,
        "shares track wall-clock, not pass rate: fast={fast} slow={slow}"
    );
}

#[test]
fn weights_reach_sql_and_handles_end_to_end() {
    let cell = DataCell::builder().scheduler_policy(RING).build();
    cell.scheduler().set_quantum(500);
    cell.execute("create basket b1 (x int)").unwrap();
    cell.execute("create basket b2 (x int)").unwrap();
    let q1 = cell
        .continuous_query("q1", "select s.x from [select * from b1] as s")
        .unwrap();
    cell.execute("create continuous query q2 as select s.x from [select * from b2] as s")
        .unwrap();

    // SQL surface.
    cell.execute("set query weight q2 = 4").unwrap();
    // Typed surface.
    q1.set_weight(2).unwrap();

    let per_query = cell.metrics().per_query;
    let weight_of = |name: &str| per_query.iter().find(|m| m.name == name).unwrap().weight;
    assert_eq!(weight_of("q1"), 2);
    assert_eq!(weight_of("q2"), 4);

    // Unknown queries are rejected with the session-level wording.
    let err = cell.execute("set query weight nope = 2").unwrap_err();
    assert!(
        err.to_string().contains("unknown continuous query"),
        "{err}"
    );

    // The DRR ring still drains SQL workloads deterministically.
    cell.execute("insert into b1 values (1), (2), (3)").unwrap();
    cell.execute("insert into b2 values (4), (5)").unwrap();
    cell.run_until_quiescent(1000);
    assert!(cell.basket("b1").unwrap().is_empty());
    assert!(cell.basket("b2").unwrap().is_empty());
    assert_eq!(cell.query_output("q1").unwrap().len(), 3);
    assert_eq!(cell.query_output("q2").unwrap().len(), 2);
}
