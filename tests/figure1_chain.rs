//! Integration test for `fig:architecture` (Figure 1 of the paper): the
//! complete receptor → basket → factory → basket → emitter chain, threaded,
//! spanning every crate in the workspace — driven through the typed client
//! facade: a `StreamWriter` is the receptor, a `Subscription` the emitter.

use std::time::Duration;

use datacell::DataCell;
use datacell_bat::types::Value;

#[test]
fn figure1_threaded_end_to_end() {
    let cell = DataCell::builder().auto_start(true).build();
    cell.execute("create basket b1 (x int)").unwrap();
    let q = cell
        .continuous_query(
            "q",
            "select s.x, s.ts from [select * from b1] as s where s.x % 2 = 0",
        )
        .unwrap();
    let sub = q.subscribe::<(i64,)>().unwrap();

    // A producer thread feeds the stream through its own writer.
    let mut writer = cell.writer("b1").unwrap();
    let producer = std::thread::spawn(move || {
        for i in 0..10_000i64 {
            writer.append((i,)).unwrap();
        }
        writer.flush().unwrap();
    });

    let rows = sub.collect_n(5_000, Duration::from_secs(10)).unwrap();
    producer.join().unwrap();
    assert_eq!(rows.len(), 5_000, "every even number delivered");
    assert!(rows.iter().all(|(x,)| x % 2 == 0));
    assert_eq!(sub.try_next().unwrap(), None, "and nothing else");
    cell.stop();

    // Everything consumed, latency recorded per tuple off the carried ts.
    assert!(cell.basket("b1").unwrap().is_empty());
    let m = cell.metrics();
    let (_, latency) = m
        .per_query_latency
        .iter()
        .find(|(name, _)| name == "q")
        .expect("q records latency");
    assert_eq!(latency.count, 5_000);
    assert!(latency.mean_micros() < 1_000_000.0, "sub-second latency");
}

#[test]
fn figure1_typed_writer_to_subscription() {
    // The same chain with no low-level wiring at all: writer in,
    // subscription out.
    let cell = DataCell::builder().auto_start(true).metrics(true).build();
    cell.execute("create basket b1 (x int)").unwrap();
    let q = cell
        .continuous_query(
            "q",
            "select s.x from [select * from b1] as s where s.x % 2 = 0",
        )
        .unwrap();
    let sub = q.subscribe::<(i64,)>().unwrap();
    let mut writer = cell.writer("b1").unwrap();
    for i in 0..1_000i64 {
        writer.append((i,)).unwrap();
    }
    writer.flush().unwrap();
    let rows = sub.collect_n(500, Duration::from_secs(5)).unwrap();
    assert_eq!(rows.len(), 500);
    assert!(rows.iter().all(|(x,)| x % 2 == 0));
    let m = cell.metrics();
    assert_eq!(m.tuples_ingested, 1_000);
    assert_eq!(m.tuples_delivered, 500);
    cell.stop();
}

#[test]
fn figure1_petri_net_is_well_formed() {
    let cell = DataCell::new();
    cell.execute("create basket b1 (x int)").unwrap();
    cell.execute("create continuous query q as select s.x from [select * from b1] as s")
        .unwrap();
    let sub = cell.subscribe::<Vec<Value>>("q").unwrap();
    let writer = cell.writer("b1").unwrap();
    let net = cell.petri_net();
    // writer → b1 → q → q_out → subscriber, with no warnings.
    assert_eq!(net.transitions.len(), 3);
    assert!(net.validate().is_empty(), "{:?}", net.validate());
    let dot = net.to_dot();
    let (w, s) = (&net.transitions[0].0, &net.transitions[2].0);
    assert!(w.starts_with("writer-b1"), "{w}");
    assert!(s.starts_with("sub-q"), "{s}");
    for edge in [
        format!("\"{w}\" -> \"b1\""),
        "\"b1\" -> \"q\"".into(),
        "\"q\" -> \"q_out\"".into(),
        format!("\"q_out\" -> \"{s}\""),
    ] {
        assert!(dot.contains(&edge), "missing {edge} in\n{dot}");
    }
    // A transition lives as long as its writer or subscription.
    drop((writer, sub));
    assert_eq!(cell.petri_net().transitions.len(), 1);
}
