//! Integration tests for the unified reader-cursor basket model: broadcast
//! subscription fan-out, competing-consumer mode, engine-level bounded
//! capacity with the three overflow policies, and end-to-end backpressure
//! (receptor/writer blocks → consumer advances → producer resumes).

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use datacell::basket::{Basket, OverflowPolicy};
use datacell::receptor::ChannelSource;
use datacell::{DataCell, SubscriptionMode};
use datacell_bat::types::{DataType, Value};
use datacell_sql::Schema;

fn wait_until(ms: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

#[test]
fn broadcast_subscriptions_each_see_every_tuple() {
    let cell = DataCell::builder().auto_start(true).build();
    cell.execute("create basket b (x int)").unwrap();
    let q = cell
        .continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let sub1 = q.subscribe::<(i64,)>().unwrap();
    let sub2 = q.subscribe::<(i64,)>().unwrap();

    let mut w = cell.writer("b").unwrap();
    for i in 0..50i64 {
        w.append((i,)).unwrap();
    }
    w.flush().unwrap();

    let rows1 = sub1.collect_n(50, Duration::from_secs(5)).unwrap();
    let rows2 = sub2.collect_n(50, Duration::from_secs(5)).unwrap();
    cell.stop();
    let expect: Vec<(i64,)> = (0..50).map(|i| (i,)).collect();
    assert_eq!(rows1, expect, "subscriber 1 sees the full ordered stream");
    assert_eq!(rows2, expect, "subscriber 2 sees the full ordered stream");
}

#[test]
fn shared_mode_subscriptions_compete() {
    let cell = DataCell::builder().auto_start(true).build();
    cell.execute("create basket b (x int)").unwrap();
    cell.continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let sub1 = cell
        .subscribe_with::<(i64,)>("q", SubscriptionMode::Shared)
        .unwrap();
    let sub2 = cell
        .subscribe_with::<(i64,)>("q", SubscriptionMode::Shared)
        .unwrap();

    let mut w = cell.writer("b").unwrap();
    for i in 0..100i64 {
        w.append((i,)).unwrap();
    }
    w.flush().unwrap();

    // Between them the competing consumers see each tuple exactly once.
    let mut all = Vec::new();
    assert!(wait_until(5000, || {
        all.extend(sub1.drain().unwrap());
        all.extend(sub2.drain().unwrap());
        all.len() >= 100
    }));
    cell.stop();
    let mut values: Vec<i64> = all.iter().map(|r| r.0).collect();
    values.sort_unstable();
    values.dedup();
    assert_eq!(values.len(), 100, "no duplicates, no losses");
}

#[test]
fn two_registered_readers_hold_the_watermark() {
    // The §2.5 release rule at the basket level: tuples stay resident
    // until *both* cursors pass, then the low-watermark trim removes them.
    let b = Basket::new("w", Schema::new(vec![("x".into(), DataType::Int)])).unwrap();
    let r1 = b.register_reader(true);
    let r2 = b.register_reader(true);
    b.append_rows(&[vec![Value::Int(1)], vec![Value::Int(2)]])
        .unwrap();

    let (c1, end1) = b.snapshot_for_reader(r1, usize::MAX);
    b.commit_reader(r1, end1);
    assert_eq!(c1.len(), 2);
    assert_eq!(b.len(), 2, "second reader still holds the tuples");

    let (c2, end2) = b.snapshot_for_reader(r2, usize::MAX);
    b.commit_reader(r2, end2);
    assert_eq!(c2.len(), 2);
    assert_eq!(b.len(), 0, "both cursors passed: watermark trimmed");
}

#[test]
fn capacity_block_receptor_stalls_and_resumes_without_loss() {
    // A tiny bounded ingest basket with the Block policy: the receptor
    // thread stalls at capacity and resumes as the factory consumes; every
    // tuple still arrives exactly once.
    let cell = DataCell::builder()
        .basket_capacity(4)
        .overflow_policy(OverflowPolicy::Block)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    let q = cell
        .continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let sub = q.subscribe::<(i64,)>().unwrap();

    let (tx, rx) = unbounded();
    cell.attach_receptor("src", ChannelSource::new(rx), &["b"], 16)
        .unwrap();
    for i in 0..200i64 {
        tx.send(vec![Value::Int(i)]).unwrap();
    }
    drop(tx);

    // The receptor alone cannot land 200 tuples in a 4-tuple basket; the
    // scheduler must interleave to release it.
    cell.start();
    let rows = sub.collect_n(200, Duration::from_secs(10)).unwrap();
    cell.stop();
    assert_eq!(rows.len(), 200, "blocked receptor resumed without loss");
    let values: Vec<i64> = rows.iter().map(|r| r.0).collect();
    assert_eq!(values, (0..200).collect::<Vec<_>>(), "order preserved");
    assert!(
        cell.basket("b").unwrap().stats().overflow_events > 0,
        "capacity was actually hit"
    );
}

#[test]
fn shed_oldest_keeps_newest_under_full_basket() {
    let cell = DataCell::builder()
        .basket_capacity(10)
        .overflow_policy(OverflowPolicy::ShedOldest)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    // No consumer: the basket fills and sheds its head.
    let mut w = cell.writer("b").unwrap();
    for i in 0..100i64 {
        w.append((i,)).unwrap();
    }
    w.flush().unwrap();
    let b = cell.basket("b").unwrap();
    assert_eq!(b.len(), 10);
    let snap = b.snapshot();
    assert_eq!(
        snap.columns[0].as_ints().unwrap(),
        (90..100).collect::<Vec<_>>().as_slice(),
        "newest tuples survive"
    );
    assert_eq!(b.stats().shed, 90);
    // The shed count surfaces in the session metrics sweep.
    assert_eq!(cell.metrics().tuples_shed, 90);
}

#[test]
fn blocked_writer_unblocks_after_consumer_advances() {
    let cell = Arc::new(
        DataCell::builder()
            .basket_capacity(2)
            .overflow_policy(OverflowPolicy::Block)
            .build(),
    );
    cell.execute("create basket b (x int)").unwrap();
    let q = cell
        .continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let sub = q.subscribe::<(i64,)>().unwrap();

    let writer_cell = Arc::clone(&cell);
    let writer = std::thread::spawn(move || {
        let mut w = writer_cell.writer("b").unwrap();
        for i in 0..20i64 {
            w.append((i,)).unwrap();
        }
        w.flush().unwrap();
        w.stats().backpressure_waits
    });

    // Give the writer time to hit the 2-tuple cap, then start consuming.
    std::thread::sleep(Duration::from_millis(50));
    assert!(!writer.is_finished(), "writer must be blocked at capacity");
    cell.start();
    let rows = sub.collect_n(20, Duration::from_secs(10)).unwrap();
    let waits = writer.join().unwrap();
    cell.stop();
    assert_eq!(rows.len(), 20, "round trip completed without loss");
    assert!(waits > 0, "the flush observed backpressure");
}

#[test]
fn reject_policy_surfaces_backpressure_to_the_writer() {
    let cell = DataCell::builder()
        .basket_capacity(3)
        .overflow_policy(OverflowPolicy::Reject)
        .writer_batch_size(1)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    let mut w = cell.writer("b").unwrap();
    for i in 0..3i64 {
        w.append((i,)).unwrap();
    }
    w.append((3i64,)).unwrap_err();
    assert_eq!(w.pending(), 1, "rejected row stays buffered for retry");
    // A consumer draining the basket lets the retry through.
    cell.basket("b").unwrap().clear();
    assert_eq!(w.flush().unwrap(), 1);
    assert!(w.stats().backpressure_waits > 0);
    // The engine-level counter fires when a producer bypasses the writer's
    // pre-check and hits the basket directly.
    cell.basket("b")
        .unwrap()
        .append_rows(&(0..5).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>())
        .unwrap_err();
    assert!(cell.metrics().overflow_events > 0);
}

#[test]
fn last_shared_subscriber_releases_the_pool_reader() {
    let cell = DataCell::builder().auto_start(true).build();
    cell.execute("create basket b (x int)").unwrap();
    cell.continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let out = cell.query_output("q").unwrap();
    let s1 = cell
        .subscribe_with::<(i64,)>("q", SubscriptionMode::Shared)
        .unwrap();
    let s2 = cell
        .subscribe_with::<(i64,)>("q", SubscriptionMode::Shared)
        .unwrap();
    assert_eq!(out.reader_count(), 1, "one pool reader for both");
    drop(s1);
    drop(s2);
    // The emitters notice on their next delivery attempt; the last one to
    // exit deregisters the pool reader.
    cell.execute("insert into b values (1), (2)").unwrap();
    assert!(wait_until(3000, || out.reader_count() == 0));
    // A fresh shared subscriber gets a fresh reader starting at the front
    // of the resident stream: it sees the rewound leftovers (no loss),
    // then live tuples.
    let s3 = cell
        .subscribe_with::<(i64,)>("q", SubscriptionMode::Shared)
        .unwrap();
    assert_eq!(out.reader_count(), 1);
    cell.execute("insert into b values (7)").unwrap();
    let rows = s3.collect_n(3, Duration::from_secs(3)).unwrap();
    assert_eq!(rows, vec![(1,), (2,), (7,)]);
    cell.stop();
}

#[test]
fn per_query_scheduler_accounts_in_metrics() {
    let cell = DataCell::new();
    cell.execute("create basket b (x int)").unwrap();
    cell.continuous_query("fast", "select s.x from [select * from b] as s")
        .unwrap();
    cell.execute("insert into b values (1), (2), (3)").unwrap();
    cell.run_until_quiescent(10);
    let m = cell.metrics();
    let acct = m
        .per_query
        .iter()
        .find(|a| a.name == "fast")
        .expect("per-query account present");
    assert_eq!(acct.firings, 1, "one bulk firing for the backlog");
    assert_eq!(acct.deferrals, 0);
    assert_eq!(m.factory_firings, 1);
}

#[test]
fn bounded_subscription_channel_backpressures_slow_client() {
    // ROADMAP follow-up: a slow client must stall the *emitter* (which
    // holds its claim, keeping the tuples resident in the output basket)
    // instead of growing an unbounded channel queue.
    let cell = DataCell::builder()
        .subscription_channel_capacity(8)
        .metrics(true)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    let q = cell
        .continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let sub = q.subscribe::<(i64,)>().unwrap();
    let out = q.output().unwrap();

    let mut w = cell.writer("b").unwrap();
    for i in 0..50i64 {
        w.append((i,)).unwrap();
    }
    w.flush().unwrap();
    cell.run_until_quiescent(10);
    assert_eq!(out.len(), 50, "all results in the output basket");

    // The client reads nothing: exactly the channel capacity is delivered,
    // then the emitter blocks mid-claim — and an unacknowledged claim
    // holds the trim watermark, so nothing leaves the basket.
    assert!(
        wait_until(10_000, || cell.metrics().tuples_delivered == 8),
        "delivered {} != channel capacity 8",
        cell.metrics().tuples_delivered
    );
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        cell.metrics().tuples_delivered,
        8,
        "delivery parked at the channel bound"
    );
    assert_eq!(out.len(), 50, "claim unacknowledged: no trim, no loss");

    // The client catches up: everything arrives exactly once, in order,
    // and the acknowledged claim finally releases the basket.
    let rows = sub.collect_n(50, Duration::from_secs(15)).unwrap();
    assert_eq!(rows, (0..50).map(|i| (i,)).collect::<Vec<_>>());
    assert!(wait_until(10_000, || out.is_empty()), "drained and trimmed");
    cell.stop();
}

#[test]
fn bounded_subscription_channel_aborts_cleanly_on_stop() {
    // A stalled delivery must not wedge session shutdown: the emitter's
    // cancel flag aborts the blocked push and the claim rewinds.
    let cell = DataCell::builder()
        .subscription_channel_capacity(4)
        .metrics(true)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    let q = cell
        .continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let sub = q.subscribe::<(i64,)>().unwrap();
    cell.execute("insert into b values (1), (2), (3), (4), (5), (6), (7), (8)")
        .unwrap();
    cell.run_until_quiescent(10);
    // Wait until the emitter is provably parked on the full channel.
    assert!(wait_until(10_000, || cell.metrics().tuples_delivered == 4));
    let started = Instant::now();
    cell.stop(); // must join the blocked emitter promptly
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stop() wedged on a full subscription channel"
    );
    // Whatever was parked in the channel is still readable; the rest
    // stayed in the output basket (rewound claim — nothing lost).
    let delivered = sub.collect_n(8, Duration::from_millis(200)).unwrap();
    assert_eq!(delivered.len(), 4, "channel held its bound");
    assert_eq!(q.output().unwrap().len(), 8, "rewound claim kept tuples");
}
