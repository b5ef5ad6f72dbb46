//! The continuous-query lifecycle across the full stack: register →
//! subscribe → pause/resume → `DROP CONTINUOUS QUERY`, verifying that the
//! factory and output basket are detached and every subscription closes —
//! the contract behind `QueryHandle`.

use std::sync::Arc;
use std::time::Duration;

use datacell::window::BasicWindowAgg;
use datacell::{DataCell, DataCellError, SchedulePolicy};
use datacell_bat::aggregate::AggFunc;

#[test]
fn register_subscribe_drop_detaches_and_closes() {
    let cell = DataCell::new();
    cell.execute("create basket events (id int, score float)")
        .unwrap();
    let q = cell
        .continuous_query(
            "hot",
            "select e.id, e.score from [select * from events] as e \
             where e.score > 0.5",
        )
        .unwrap();
    let sub = q.subscribe::<(i64, f64)>().unwrap();

    // Flowing: writer → factory → subscription.
    let mut w = cell.writer("events").unwrap();
    w.append((1i64, 0.9f64)).unwrap();
    w.append((2i64, 0.1f64)).unwrap();
    w.flush().unwrap();
    cell.run_until_quiescent(100);
    let rows = sub.collect_n(1, Duration::from_secs(2)).unwrap();
    assert_eq!(rows, vec![(1, 0.9)]);

    // Drop via SQL: the statement and QueryHandle::drop_query are the same
    // code path.
    cell.execute("drop continuous query hot").unwrap();

    // The factory is detached: new input is never processed...
    w.append((3i64, 0.9f64)).unwrap();
    w.flush().unwrap();
    assert_eq!(
        cell.run_until_quiescent(100),
        0,
        "no registered transitions"
    );
    assert_eq!(
        cell.basket("events").unwrap().len(),
        1,
        "input just buffers"
    );
    // ...the output basket left the catalog...
    assert!(cell.basket("hot_out").is_err());
    assert!(cell.query_output("hot").is_err());
    assert!(cell.query_handle("hot").is_err());
    // ...and the subscription is closed.
    assert!(matches!(sub.try_next(), Err(DataCellError::Disconnected)));
    assert!(matches!(
        sub.next_timeout(Duration::from_millis(10)),
        Err(DataCellError::Disconnected)
    ));
}

#[test]
fn drop_via_handle_closes_multiple_subscriptions() {
    let cell = DataCell::new();
    cell.execute("create basket b (x int)").unwrap();
    let q = cell
        .continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let sub1 = q.subscribe::<(i64,)>().unwrap();
    let sub2 = cell.subscribe::<(i64,)>("q").unwrap();
    q.drop_query().unwrap();
    for sub in [&sub1, &sub2] {
        assert!(matches!(sub.try_next(), Err(DataCellError::Disconnected)));
    }
    // Dropping twice reports the unknown query.
    assert!(cell.drop_query("q").is_err());
}

#[test]
fn lifecycle_calls_reach_a_transition_added_by_hand() {
    let cell = DataCell::new();
    cell.execute("create basket ticks (px int)").unwrap();
    cell.execute("create basket volume (value int)").unwrap();
    cell.execute("create basket other (px int)").unwrap();
    cell.execute("create continuous query q as select o.px from [select * from other] as o")
        .unwrap();
    let window = |name: &str| {
        let (ticks, volume) = (
            cell.basket("ticks").unwrap(),
            cell.basket("volume").unwrap(),
        );
        Arc::new(BasicWindowAgg::new(name, ticks, "px", AggFunc::Sum, None, 2, 2, volume).unwrap())
    };
    cell.add_transition(window("vol"), SchedulePolicy::default())
        .unwrap();
    let volume = cell.basket("volume").unwrap();

    // A taken name is refused, whichever side took it first.
    let err = cell
        .add_transition(window("q"), SchedulePolicy::default())
        .unwrap_err();
    assert!(err.to_string().contains("name q already exists"), "{err}");
    assert!(cell
        .execute("create continuous query vol as select o.px from [select * from other] as o")
        .is_err());

    // Pause and resume reach it: the window buffers, then fires.
    cell.pause_query("vol").unwrap();
    assert!(cell.is_query_paused("vol").unwrap());
    cell.execute("insert into ticks values (1), (2)").unwrap();
    cell.run_until_quiescent(100);
    assert!(volume.is_empty(), "paused window fired");
    cell.resume_query("vol").unwrap();
    cell.run_until_quiescent(100);
    assert_eq!(volume.len(), 1, "one window of two ticks");
    cell.set_query_weight("vol", 3).unwrap();

    // Drop detaches it: new ticks close no window, and no reader is
    // left on the input, neither `vol`'s nor the refused window's.
    cell.drop_query("vol").unwrap();
    assert_eq!(cell.basket("ticks").unwrap().reader_count(), 0);
    cell.execute("insert into ticks values (3), (4)").unwrap();
    cell.run_until_quiescent(100);
    assert_eq!(volume.len(), 1, "dropped window fired");
    assert!(cell.drop_query("vol").is_err());
}

#[test]
fn a_refused_factory_releases_its_shared_reader() {
    use datacell::factory::{Factory, FactoryOutput};

    let cell = DataCell::new();
    cell.execute("create basket s (x int)").unwrap();
    cell.execute("create basket other (x int)").unwrap();
    cell.execute("create continuous query q as select o.x from [select * from other] as o")
        .unwrap();
    let s = cell.basket("s").unwrap();
    let mut f = Factory::compile(
        "q",
        "select t.x from [select * from s] as t",
        &cell.catalog().read(),
        FactoryOutput::Discard,
    )
    .unwrap();
    f.set_shared("s").unwrap();
    assert_eq!(s.reader_count(), 1);
    // The name is taken: the factory is refused and dropped, and with it
    // the reader that would pin `s`'s trim watermark.
    let err = cell.add_factory(f, SchedulePolicy::default()).unwrap_err();
    assert!(err.to_string().contains("name q already exists"), "{err}");
    assert_eq!(s.reader_count(), 0);
}

#[test]
fn pause_buffers_resume_drains_under_scheduler_thread() {
    let cell = DataCell::builder().auto_start(true).build();
    cell.execute("create basket b (x int)").unwrap();
    let q = cell
        .continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let sub = q.subscribe::<(i64,)>().unwrap();

    q.pause().unwrap();
    cell.execute("insert into b values (1), (2), (3)").unwrap();
    // Nothing may arrive while paused.
    assert_eq!(
        sub.next_timeout(Duration::from_millis(100)).unwrap(),
        None,
        "paused query delivered a row"
    );
    assert_eq!(cell.basket("b").unwrap().len(), 3);

    q.resume().unwrap();
    let mut rows = sub.collect_n(3, Duration::from_secs(3)).unwrap();
    rows.sort_unstable();
    assert_eq!(rows, vec![(1,), (2,), (3,)]);
    cell.stop();
}

#[test]
fn dropped_broadcast_subscriber_releases_the_watermark() {
    // Two broadcast subscriptions hold two readers on the output basket.
    // Dropping one deregisters its reader, so the surviving subscriber's
    // cursor alone governs the watermark and the output basket drains
    // instead of growing forever.
    let cell = DataCell::builder().auto_start(true).build();
    cell.execute("create basket b (x int)").unwrap();
    let q = cell
        .continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let dead = q.subscribe::<(i64,)>().unwrap();
    let live = q.subscribe::<(i64,)>().unwrap();
    let out = q.output().unwrap();
    assert_eq!(out.reader_count(), 2);

    cell.execute("insert into b values (1), (2)").unwrap();
    assert_eq!(
        live.collect_n(2, Duration::from_secs(3)).unwrap(),
        vec![(1,), (2,)]
    );
    assert_eq!(
        dead.collect_n(2, Duration::from_secs(3)).unwrap(),
        vec![(1,), (2,)],
        "broadcast: both subscribers see both tuples"
    );

    drop(dead);
    assert_eq!(out.reader_count(), 1, "dead reader deregistered");
    cell.execute("insert into b values (3), (4)").unwrap();
    assert_eq!(
        live.collect_n(2, Duration::from_secs(3)).unwrap(),
        vec![(3,), (4,)]
    );
    assert!(out.is_empty(), "watermark advanced past delivered tuples");
    cell.stop();
}

#[test]
fn session_stop_closes_subscriptions() {
    let cell = DataCell::new();
    cell.execute("create basket b (x int)").unwrap();
    let q = cell
        .continuous_query("q", "select s.x from [select * from b] as s")
        .unwrap();
    let sub = q.subscribe::<(i64,)>().unwrap();
    cell.stop();
    assert!(matches!(sub.try_next(), Err(DataCellError::Disconnected)));
}
