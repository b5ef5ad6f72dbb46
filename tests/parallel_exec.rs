//! Stress/property tier for the parallel execution subsystem: a
//! multi-worker scheduler driving many continuous queries at once must
//! keep every sequential-mode guarantee — exactly-once delivery on
//! broadcast subscriptions, no tuple lost across deferrals and
//! backpressure, monotone metrics, and clean quiescence — while actually
//! dispatching firings to the work-stealing pool.
//!
//! The admission pass stays sequential (fairness, budgets, gating); only
//! *execution* is parallel, guarded by per-transition firing locks. These
//! tests hammer exactly the seams: many queries over separate inputs
//! (inter-query parallelism), concurrent producers, broadcast and shared
//! subscription fan-out, and the manual-drive-vs-background contention
//! that used to double-fire.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use datacell::client::SubscriptionMode;
use datacell::{DataCell, SchedulePolicy};

const QUERIES: usize = 4;
const ROWS_PER_QUERY: i64 = 2_000;

/// A cell with `workers` execution threads, `QUERIES` independent
/// input baskets and one pass-through continuous query on each.
fn parallel_cell(workers: usize) -> DataCell {
    let cell = DataCell::builder()
        .workers(workers)
        .metrics(true)
        .auto_start(true)
        .build();
    for q in 0..QUERIES {
        cell.execute(&format!("create basket src{q} (x int)"))
            .unwrap();
        cell.execute(&format!(
            "create continuous query q{q} as select s.x from [select * from src{q}] as s where s.x >= 0"
        ))
        .unwrap();
    }
    cell
}

/// Feed `ROWS_PER_QUERY` distinct ints into every input basket from one
/// producer thread per basket, concurrently.
fn feed_all(cell: &DataCell) {
    std::thread::scope(|scope| {
        for q in 0..QUERIES {
            let mut w = cell.writer(&format!("src{q}")).unwrap();
            scope.spawn(move || {
                for i in 0..ROWS_PER_QUERY {
                    w.append((i,)).unwrap();
                }
                w.flush().unwrap();
            });
        }
    });
}

/// Drain a subscription until `expected` rows arrive (or 10s elapse),
/// returning the values seen.
fn drain(sub: &datacell::client::Subscription<(i64,)>, expected: usize) -> Vec<i64> {
    let mut got = Vec::with_capacity(expected);
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.len() < expected && Instant::now() < deadline {
        if let Some((x,)) = sub.next_timeout(Duration::from_millis(100)).unwrap() {
            got.push(x);
        }
    }
    got
}

#[test]
fn broadcast_delivery_is_exactly_once_per_query() {
    let cell = parallel_cell(4);
    let subs: Vec<_> = (0..QUERIES)
        .map(|q| cell.subscribe::<(i64,)>(&format!("q{q}")).unwrap())
        .collect();
    feed_all(&cell);
    for (q, sub) in subs.iter().enumerate() {
        let mut got = drain(sub, ROWS_PER_QUERY as usize);
        got.sort_unstable();
        assert_eq!(
            got,
            (0..ROWS_PER_QUERY).collect::<Vec<i64>>(),
            "query q{q}: every tuple exactly once"
        );
    }
    let m = cell.metrics();
    assert_eq!(m.workers, 4);
    assert!(
        m.firings_parallel >= 1,
        "firings went through the worker pool"
    );
    assert_eq!(m.worker_busy.len(), 4, "per-worker busy fractions surface");
    assert!(m.worker_busy.iter().all(|&b| (0.0..=1.0).contains(&b)));
    cell.stop();
}

#[test]
fn shared_pool_partitions_without_loss() {
    // Three competing consumers on one query: the union of what the pool
    // members receive is the full stream, with no tuple lost; without
    // failures no tuple is claimed twice either.
    let cell = parallel_cell(4);
    let subs: Vec<_> = (0..3)
        .map(|_| {
            cell.subscribe_with::<(i64,)>("q0", SubscriptionMode::Shared)
                .unwrap()
        })
        .collect();
    feed_all(&cell);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got: Vec<i64> = Vec::new();
    while got.len() < ROWS_PER_QUERY as usize && Instant::now() < deadline {
        for sub in &subs {
            while let Some((x,)) = sub.next_timeout(Duration::from_millis(10)).unwrap() {
                got.push(x);
            }
        }
    }
    assert_eq!(got.len(), ROWS_PER_QUERY as usize, "no loss, no duplicates");
    let set: HashSet<i64> = got.iter().copied().collect();
    assert_eq!(set.len(), ROWS_PER_QUERY as usize, "full coverage");
    cell.stop();
}

#[test]
fn bounded_baskets_defer_but_lose_nothing() {
    // Small bounded baskets force output backpressure: factories defer
    // (deliver-before-consume keeps the input intact) and retry. Under
    // parallel execution a deferred firing must still re-run and every
    // tuple must still arrive exactly once.
    let cell = DataCell::builder()
        .workers(4)
        .basket_capacity(64)
        .metrics(true)
        .auto_start(true)
        .build();
    cell.execute("create basket src (x int)").unwrap();
    cell.execute(
        "create continuous query q as select s.x from [select * from src] as s where s.x >= 0",
    )
    .unwrap();
    let sub = cell.subscribe::<(i64,)>("q").unwrap();
    let producer = {
        let mut w = cell.writer("src").unwrap();
        std::thread::spawn(move || {
            for i in 0..ROWS_PER_QUERY {
                w.append((i,)).unwrap();
            }
            w.flush().unwrap();
        })
    };
    let mut got = drain(&sub, ROWS_PER_QUERY as usize);
    producer.join().unwrap();
    got.sort_unstable();
    assert_eq!(got, (0..ROWS_PER_QUERY).collect::<Vec<i64>>());
    cell.stop();
}

#[test]
fn metrics_stay_monotone_under_parallel_load() {
    let cell = parallel_cell(4);
    let subs: Vec<_> = (0..QUERIES)
        .map(|q| cell.subscribe::<(i64,)>(&format!("q{q}")).unwrap())
        .collect();
    let feeder = std::thread::spawn({
        let writers: Vec<_> = (0..QUERIES)
            .map(|q| cell.writer(&format!("src{q}")).unwrap())
            .collect();
        move || {
            let mut writers = writers;
            for i in 0..ROWS_PER_QUERY {
                for w in &mut writers {
                    w.append((i,)).unwrap();
                }
            }
            for w in &mut writers {
                w.flush().unwrap();
            }
        }
    });
    // Sample while the load runs: every counter is monotone.
    let mut last = cell.metrics();
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(2));
        let m = cell.metrics();
        assert!(m.scheduler_passes >= last.scheduler_passes);
        assert!(m.factory_firings >= last.factory_firings);
        assert!(m.firings_parallel >= last.firings_parallel);
        assert!(m.steals >= last.steals);
        assert!(m.tuples_delivered >= last.tuples_delivered);
        last = m;
    }
    feeder.join().unwrap();
    for sub in &subs {
        let got = drain(sub, ROWS_PER_QUERY as usize);
        assert_eq!(got.len(), ROWS_PER_QUERY as usize);
    }
    cell.stop();
}

#[test]
fn manual_drive_contends_cleanly_with_background_pool() {
    // Regression for the double-fire race: `run_until_quiescent` on an
    // auto-started cell used to race the background thread into stepping
    // one factory twice concurrently. Both drivers now contend on the
    // same per-transition firing locks, so interleaving them arbitrarily
    // still consumes every tuple exactly once.
    let cell = parallel_cell(4);
    let subs: Vec<_> = (0..QUERIES)
        .map(|q| cell.subscribe::<(i64,)>(&format!("q{q}")).unwrap())
        .collect();
    let mut writers: Vec<_> = (0..QUERIES)
        .map(|q| cell.writer(&format!("src{q}")).unwrap())
        .collect();
    for i in 0..ROWS_PER_QUERY {
        for w in &mut writers {
            w.append((i,)).unwrap();
        }
        if i % 97 == 0 {
            // Interleave manual drives with the live background pool.
            cell.run_until_quiescent(1_000);
        }
    }
    for w in &mut writers {
        w.flush().unwrap();
    }
    cell.run_until_quiescent(100_000);
    for (q, sub) in subs.iter().enumerate() {
        let mut got = drain(sub, ROWS_PER_QUERY as usize);
        got.sort_unstable();
        assert_eq!(
            got,
            (0..ROWS_PER_QUERY).collect::<Vec<i64>>(),
            "query q{q}: exactly once across both drivers"
        );
    }
    cell.stop();
}

#[test]
fn sql_resizes_the_worker_pool() {
    let cell = parallel_cell(1);
    assert_eq!(cell.metrics().workers, 1);
    let ack = cell.execute("set scheduler workers 3").unwrap();
    assert_eq!(format!("{ack:?}"), r#"Ack("set scheduler workers to 3")"#);
    assert_eq!(cell.metrics().workers, 3);
    // The resized pool still processes.
    let sub = cell.subscribe::<(i64,)>("q0").unwrap();
    let mut w = cell.writer("src0").unwrap();
    w.append((7,)).unwrap();
    w.flush().unwrap();
    assert_eq!(
        sub.next_timeout(Duration::from_secs(5)).unwrap(),
        Some((7,))
    );
    assert!(cell.execute("set scheduler workers 0").is_err());
    cell.stop();
}

#[test]
fn drr_fairness_holds_under_parallel_execution() {
    // The DRR ring is served by the sequential admission pass, so
    // parallel execution must not break it: two co-tenant ring members
    // (priority < 0) with equal weight both make progress.
    let cell = DataCell::builder()
        .workers(4)
        .scheduler_policy(SchedulePolicy {
            priority: -1,
            ..SchedulePolicy::default()
        })
        .metrics(true)
        .auto_start(true)
        .build();
    cell.scheduler().set_quantum(500);
    for q in 0..2 {
        cell.execute(&format!("create basket src{q} (x int)"))
            .unwrap();
        cell.execute(&format!(
            "create continuous query q{q} as select s.x from [select * from src{q}] as s where s.x >= 0"
        ))
        .unwrap();
    }
    let subs: Vec<_> = (0..2)
        .map(|q| cell.subscribe::<(i64,)>(&format!("q{q}")).unwrap())
        .collect();
    std::thread::scope(|scope| {
        for q in 0..2 {
            let mut w = cell.writer(&format!("src{q}")).unwrap();
            scope.spawn(move || {
                for i in 0..ROWS_PER_QUERY {
                    w.append((i,)).unwrap();
                }
                w.flush().unwrap();
            });
        }
    });
    for sub in &subs {
        let got = drain(sub, ROWS_PER_QUERY as usize);
        assert_eq!(got.len(), ROWS_PER_QUERY as usize);
    }
    let m = cell.metrics();
    let firings: Vec<u64> = m.per_query.iter().map(|q| q.firings).collect();
    assert!(
        firings.iter().all(|&f| f > 0),
        "both co-tenants fired: {firings:?}"
    );
    cell.stop();
}
