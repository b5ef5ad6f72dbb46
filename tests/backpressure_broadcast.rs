//! Integration tests for the unified reader-cursor basket model: broadcast
//! subscription fan-out, competing-consumer mode, engine-level bounded
//! capacity with the three overflow policies, and end-to-end backpressure
//! (writer blocks → consumer advances → producer resumes).

use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use datacell::basket::{Basket, OverflowPolicy};
use datacell::{DataCell, DataCellError, SubscriptionMode};
use datacell_bat::types::{DataType, Value};
use datacell_sql::Schema;

/// Block until `basket` holds `n` tuples, woken by its change signal.
fn wait_for_len(basket: &Basket, n: usize) {
    let signal = basket.signal();
    let mut seen = signal.version();
    while basket.len() < n {
        seen = signal.wait_past(seen, Duration::from_millis(100));
    }
}

/// Run `work` on its own thread; the receiver hears when it ends, by
/// return or by panic.
fn spawn_watched<T: Send + 'static>(
    work: impl FnOnce() -> T + Send + 'static,
) -> (JoinHandle<T>, Receiver<()>) {
    let (tx, rx) = mpsc::channel::<()>();
    let handle = std::thread::spawn(move || {
        let _ends = tx;
        work()
    });
    (handle, rx)
}

/// Wait up to `timeout` for a watched thread's result; `None` while it
/// still runs (it is then left behind), so a writer that hangs fails the
/// test instead of hanging it.
fn join_within<T>((handle, ended): (JoinHandle<T>, Receiver<()>), timeout: Duration) -> Option<T> {
    if let Err(RecvTimeoutError::Timeout) = ended.recv_timeout(timeout) {
        return None;
    }
    Some(handle.join().expect("the watched thread panicked"))
}

/// Append `values` to basket `b` and run the scheduler to quiescence.
fn feed(cell: &DataCell, values: std::ops::Range<i64>) {
    let mut w = cell.writer("b").unwrap();
    for i in values {
        w.append((i,)).unwrap();
    }
    w.flush().unwrap();
    cell.run_until_quiescent(10);
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
    let cell = DataCell::new();
    cell.execute("create basket b (x int)").unwrap();
    cell.continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let sub1 = cell
        .subscribe_with::<(i64,)>("q", SubscriptionMode::Shared)
        .unwrap();
    let sub2 = cell
        .subscribe_with::<(i64,)>("q", SubscriptionMode::Shared)
        .unwrap();

    // sub1 claims the first batch by taking one row of it; the second
    // batch is left for sub2.
    feed(&cell, 0..50);
    let mut all = vec![sub1.try_next().unwrap().unwrap()];
    feed(&cell, 50..100);
    let second = sub2.drain().unwrap();
    assert_eq!(second, (50..100).map(|i| (i,)).collect::<Vec<_>>());
    all.extend(second);
    all.extend(sub1.drain().unwrap());

    // Between them the competing consumers see each tuple exactly once.
    let mut values: Vec<i64> = all.iter().map(|r| r.0).collect();
    values.sort_unstable();
    values.dedup();
    assert_eq!(values.len(), 100, "no losses");
    assert_eq!(all.len(), 100, "no duplicates");
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
    // A tiny bounded ingest basket with the Block policy: the producer's
    // writer stalls at capacity and resumes as the factory consumes; every
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

    let mut w = cell.writer_with("b", 16).unwrap();
    let producer = std::thread::spawn(move || {
        for i in 0..200i64 {
            w.append((i,)).unwrap();
        }
        w.flush().unwrap();
        w.stats()
    });

    // The writer alone cannot land 200 tuples in a 4-tuple basket. Start
    // the scheduler only once it has filled the basket, so it must stall
    // until the factory releases room.
    wait_for_len(&cell.basket("b").unwrap(), 4);
    cell.start();
    let rows = sub.collect_n(200, Duration::from_secs(10)).unwrap();
    let stats = producer.join().unwrap();
    cell.stop();
    assert_eq!(rows.len(), 200, "blocked writer resumed without loss");
    let values: Vec<i64> = rows.iter().map(|r| r.0).collect();
    assert_eq!(values, (0..200).collect::<Vec<_>>(), "order preserved");
    assert_eq!(stats.appended, 200);
    let overflows = cell.basket("b").unwrap().stats().overflow_events;
    assert!(overflows > 0, "capacity was actually hit");
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
    });

    // Once the writer has filled the 2-tuple basket it must block: nothing
    // consumes until the scheduler starts.
    let b = cell.basket("b").unwrap();
    wait_for_len(&b, 2);
    assert!(!writer.is_finished(), "writer must be blocked at capacity");
    cell.start();
    let rows = sub.collect_n(20, Duration::from_secs(10)).unwrap();
    writer.join().unwrap();
    cell.stop();
    assert_eq!(rows.len(), 20, "round trip completed without loss");
    assert!(
        b.stats().overflow_events > 0,
        "the flush stalled at capacity"
    );
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
    // The refusal is the basket's, so the session counts it.
    assert_eq!(cell.metrics().overflow_events, 1);
    // A consumer draining the basket lets the retry through.
    cell.basket("b").unwrap().clear();
    assert_eq!(w.flush().unwrap(), 1);
    assert_eq!(w.stats().appended, 4);
}

#[test]
fn writer_obeys_the_baskets_own_overflow_clause() {
    // A basket's OVERFLOW clause, not the session default, decides what a
    // writer's flush does at capacity.
    let cell = DataCell::new(); // session default: Block
    cell.execute("create basket shed (x int) capacity 4 overflow shed")
        .unwrap();
    cell.execute("create basket rej (x int) capacity 4 overflow reject")
        .unwrap();

    let mut w = cell.writer("shed").unwrap();
    let writer = spawn_watched(move || {
        for i in 0..100i64 {
            w.append((i,)).unwrap();
        }
        w.flush().unwrap();
        w.stats()
    });
    let stats =
        join_within(writer, Duration::from_secs(3)).expect("a SHED basket never blocks its writer");
    assert_eq!(stats.appended, 100);
    let shed = cell.basket("shed").unwrap();
    assert_eq!(
        shed.snapshot().columns[0].as_ints().unwrap(),
        &[96, 97, 98, 99],
        "the newest tuples survive"
    );
    assert_eq!(shed.stats().shed, 96);

    let rej = cell.basket("rej").unwrap();
    let mut w = cell.writer("rej").unwrap();
    let writer = spawn_watched(move || {
        for i in 0..4i64 {
            w.append((i,)).unwrap();
        }
        let first = w.flush();
        w.append((4i64,)).unwrap();
        let second = w.flush();
        (first, second, w.pending(), rej.stats().overflow_events)
    });
    let (first, second, pending, overflows) = join_within(writer, Duration::from_secs(3))
        .expect("a REJECT basket never blocks its writer");
    assert_eq!(first.unwrap(), 4);
    assert!(
        matches!(second, Err(DataCellError::Backpressure { .. })),
        "{second:?}"
    );
    assert_eq!(pending, 1, "the refused row stays buffered");
    assert_eq!(overflows, 1, "the refusal is the basket's");

    // A BLOCK clause under a Reject session: the flush waits for room.
    let cell = DataCell::builder()
        .overflow_policy(OverflowPolicy::Reject)
        .writer_batch_size(4)
        .build();
    cell.execute("create basket blk (x int) capacity 4 overflow block")
        .unwrap();
    let blk = cell.basket("blk").unwrap();
    let mut w = cell.writer("blk").unwrap();
    let writer = spawn_watched(move || {
        for i in 0..8i64 {
            w.append((i,))?;
        }
        w.flush()
    });
    wait_for_len(&blk, 4);
    assert!(
        matches!(
            writer.1.recv_timeout(Duration::from_millis(200)),
            Err(RecvTimeoutError::Timeout)
        ),
        "the second batch waits for room"
    );
    assert_eq!(blk.len(), 4);
    blk.clear();
    let flushed = join_within(writer, Duration::from_secs(3)).expect("room frees the writer");
    assert_eq!(
        flushed.unwrap(),
        0,
        "the blocked batch landed in its auto-flush"
    );
    assert_eq!(blk.snapshot().columns[0].as_ints().unwrap(), &[4, 5, 6, 7]);
    assert!(blk.stats().overflow_events > 0, "the stall is counted");
}

#[test]
fn last_shared_subscriber_releases_the_pool_reader() {
    let cell = DataCell::new();
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
    assert_eq!(out.reader_count(), 1, "the other member still holds it");
    drop(s2);
    assert_eq!(out.reader_count(), 0, "the last member released it");
    // Without a reader nothing trims: a fresh shared subscriber gets a
    // fresh reader starting at the front of the resident stream, so it
    // sees the rows nobody claimed, then live tuples.
    feed(&cell, 1..3);
    let s3 = cell
        .subscribe_with::<(i64,)>("q", SubscriptionMode::Shared)
        .unwrap();
    assert_eq!(out.reader_count(), 1);
    feed(&cell, 7..8);
    assert_eq!(s3.drain().unwrap(), vec![(1,), (2,), (7,)]);
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
fn slow_subscriber_defers_the_factory_without_trimming() {
    // A broadcast subscription that does not poll holds its reader's
    // watermark: the bounded Block output fills, the factory defers
    // instead of dropping anything, and once the subscriber catches up it
    // gets every row once, in order.
    let cell = DataCell::builder()
        .basket_capacity(8)
        .overflow_policy(OverflowPolicy::Block)
        .build();
    cell.execute("create basket b (x int)").unwrap();
    let q = cell
        .continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let sub = q.subscribe::<(i64,)>().unwrap();
    let out = q.output().unwrap();

    feed(&cell, 0..8);
    feed(&cell, 8..16);
    assert_eq!(out.len(), 8, "the output is full and nothing was trimmed");
    assert_eq!(cell.basket("b").unwrap().len(), 8, "the input waits");
    assert!(cell.metrics().factory_deferrals > 0, "the factory deferred");

    let mut rows = sub.drain().unwrap();
    assert!(out.is_empty(), "the claim released the output");
    cell.run_until_quiescent(10);
    rows.extend(sub.drain().unwrap());
    assert_eq!(rows, (0..16).map(|i| (i,)).collect::<Vec<_>>());
}

#[test]
fn stop_and_drop_end_a_blocked_subscription() {
    // A subscriber blocked in `next_timeout` is woken by the close of the
    // output basket: it hands out the row it had already claimed, then
    // reports the query gone — at once, not at its timeout.
    for stop in [true, false] {
        let cell = DataCell::new();
        cell.execute("create basket b (x int)").unwrap();
        cell.continuous_query("q", "select s.x from [select * from b] as s")
            .unwrap();
        let sub = cell.subscribe::<(i64,)>("q").unwrap();
        feed(&cell, 1..3);
        assert_eq!(sub.try_next().unwrap(), Some((1,)), "claims both rows");
        let started = Instant::now();
        let waiter = std::thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match sub.next_timeout(Duration::from_secs(30)) {
                    Ok(Some(row)) => got.push(row),
                    end => return (got, end),
                }
            }
        });
        if stop {
            cell.stop();
        } else {
            cell.drop_query("q").unwrap();
        }
        let (got, end) = waiter.join().unwrap();
        assert_eq!(got, vec![(2,)], "the claimed row still arrives");
        assert!(matches!(end, Err(DataCellError::Disconnected)), "{end:?}");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "woken by the close, not the timeout"
        );
    }
}
