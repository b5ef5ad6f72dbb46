//! Multi-query plan sharing: shared-prefix detection and refcounted
//! detach, plus a differential property — with sharing ON, every query's
//! output is bit-identical (user columns) to the same query running alone
//! in a sharing-OFF session, across arbitrary query mixes, drops and
//! pauses mid-stream, and Spill-backed baskets.

use datacell::basket::{Durability, OverflowPolicy};
use datacell::session::DataCell;
use datacell::{SchedulePolicy, Value};
use datacell_storage::testutil::TempDir;
use proptest::prelude::*;

fn cell(sharing: bool) -> DataCell {
    DataCell::builder().plan_sharing(sharing).build()
}

/// A cell whose SQL queries, and the shared heads they inherit their
/// policy through, sit in the DRR ring (`priority < 0`).
fn ring_cell(sharing: bool) -> DataCell {
    DataCell::builder()
        .plan_sharing(sharing)
        .scheduler_policy(SchedulePolicy {
            priority: -1,
            ..SchedulePolicy::default()
        })
        .build()
}

fn spill_cell(sharing: bool, dir: &TempDir) -> DataCell {
    DataCell::builder()
        .plan_sharing(sharing)
        .data_dir(dir.path())
        .durability(Durability::Ephemeral)
        .overflow_policy(OverflowPolicy::Spill { mem_rows: 8 })
        .build()
}

fn ints(cell: &DataCell, query: &str, col: usize) -> Vec<i64> {
    cell.query_output(query).unwrap().snapshot().columns[col]
        .as_ints()
        .unwrap()
        .to_vec()
}

#[test]
fn same_prefix_queries_share_one_head() {
    let c = cell(true);
    c.execute("create basket s (a int, b int)").unwrap();
    c.execute(
        "create continuous query q1 as \
         select s2.a from [select * from s where s.b < 50] as s2 where s2.a > 2",
    )
    .unwrap();
    c.execute(
        "create continuous query q2 as \
         select s2.a + 1 as v from [select * from s where s.b < 50] as s2",
    )
    .unwrap();
    // Equivalent predicate after constant folding joins the same node.
    c.execute(
        "create continuous query q3 as \
         select s2.b from [select * from s where s.b < 49 + 1] as s2",
    )
    .unwrap();
    // A different predicate window seeds a second node.
    c.execute(
        "create continuous query q4 as \
         select s2.a from [select * from s where s.b < 60] as s2",
    )
    .unwrap();
    let m = c.metrics();
    assert_eq!(m.shared_subplans, 2);
    let mut subs = m.shared_subscribers.clone();
    subs.sort();
    assert_eq!(subs, vec![("mqo1_mid".into(), 3), ("mqo2_mid".into(), 1)]);
    // DRR cost attribution: the shared head earns its subscribers' share.
    let head = m
        .per_query
        .iter()
        .find(|q| q.name == "mqo1_head")
        .expect("shared head registered");
    assert_eq!(head.weight, 3);

    c.execute("insert into s values (1, 10), (3, 10), (5, 100), (7, 20)")
        .unwrap();
    c.run_until_quiescent(10_000);
    assert_eq!(ints(&c, "q1", 0), vec![3, 7], "a > 2 over b < 50");
    assert_eq!(ints(&c, "q2", 0), vec![2, 4, 8], "a + 1 over b < 50");
    assert_eq!(ints(&c, "q3", 0), vec![10, 10, 20], "b over b < 50");
    assert_eq!(ints(&c, "q4", 0), vec![1, 3, 7], "a over b < 60");
}

#[test]
fn drop_detaches_refcounted_and_last_drop_retires_the_node() {
    let c = cell(true);
    c.execute("create basket s (a int)").unwrap();
    for q in ["q1", "q2"] {
        c.execute(&format!(
            "create continuous query {q} as \
             select s2.a from [select * from s where s.a > 0] as s2"
        ))
        .unwrap();
    }
    assert_eq!(c.metrics().shared_subplans, 1);
    c.execute("insert into s values (1), (2)").unwrap();
    c.run_until_quiescent(10_000);

    c.execute("drop continuous query q1").unwrap();
    let m = c.metrics();
    assert_eq!(m.shared_subplans, 1, "q2 still subscribed");
    assert_eq!(m.shared_subscribers[0].1, 1);
    // The survivor keeps flowing after a sibling detaches.
    c.execute("insert into s values (3)").unwrap();
    c.run_until_quiescent(10_000);
    assert_eq!(ints(&c, "q2", 0), vec![1, 2, 3]);

    c.execute("drop continuous query q2").unwrap();
    let m = c.metrics();
    assert_eq!(m.shared_subplans, 0, "last drop retires the node");
    assert!(c.basket("mqo1_mid").is_err(), "intermediate dropped");
    assert!(
        !m.per_query.iter().any(|q| q.name == "mqo1_head"),
        "head factory removed"
    );
}

#[test]
fn shared_heads_are_internal() {
    let c = cell(true);
    c.execute("create basket s (a int, b int)").unwrap();
    c.execute(
        "create continuous query q1 as \
         select s2.a from [select * from s where s.b < 50] as s2",
    )
    .unwrap();
    for stmt in [
        "drop continuous query mqo1_head",
        "pause continuous query mqo1_head",
        "resume continuous query mqo1_head",
        "set query weight mqo1_head = 3",
    ] {
        let err = c.execute(stmt).unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown continuous query mqo1_head"),
            "{stmt}: {err}"
        );
    }
    assert!(c.query_handle("mqo1_head").is_err());
    assert!(c.is_query_paused("mqo1_head").is_err());

    c.execute("insert into s values (1, 10), (3, 10)").unwrap();
    c.run_until_quiescent(10_000);
    assert_eq!(
        ints(&c, "q1", 0),
        vec![1, 3],
        "the tail keeps receiving rows"
    );
    let m = c.metrics();
    assert_eq!(m.shared_subplans, 1);
    let head = m.per_query.iter().find(|q| q.name == "mqo1_head");
    assert_eq!(
        head.map(|h| h.weight),
        Some(1),
        "metrics still list the head"
    );
}

#[test]
fn a_query_name_never_clashes_with_a_shared_head() {
    let transitions = |c: &datacell::session::DataCell| {
        let mut names: Vec<String> = c
            .scheduler()
            .transitions()
            .iter()
            .map(|t| t.name().to_string())
            .collect();
        names.sort();
        names
    };
    let shared = "select s2.a from [select * from s where s.b < 50] as s2";

    // The user's name first: the head built for it takes the next name.
    let c = cell(true);
    c.execute("create basket s (a int, b int)").unwrap();
    c.execute(&format!("create continuous query mqo1_head as {shared}"))
        .unwrap();
    c.execute(&format!("create continuous query q2 as {shared}"))
        .unwrap();
    assert_eq!(transitions(&c), ["mqo1_head", "mqo2_head", "q2"]);
    c.execute("insert into s values (1, 10)").unwrap();
    c.run_until_quiescent(10_000);
    assert_eq!(ints(&c, "mqo1_head", 0), vec![1]);
    assert_eq!(ints(&c, "q2", 0), vec![1]);
    c.execute("drop continuous query mqo1_head").unwrap();
    assert_eq!(transitions(&c), ["mqo2_head", "q2"]);
    c.execute("insert into s values (3, 10)").unwrap();
    c.run_until_quiescent(10_000);
    assert_eq!(ints(&c, "q2", 0), vec![1, 3], "q2 keeps its head");

    // The head first: a query cannot take the head's name.
    let c = cell(true);
    c.execute("create basket s (a int, b int)").unwrap();
    c.execute(&format!("create continuous query q1 as {shared}"))
        .unwrap();
    let err = c
        .execute(&format!("create continuous query mqo1_head as {shared}"))
        .unwrap_err();
    assert!(err.to_string().contains("mqo1_head"), "{err}");
    assert!(c.query_output("mqo1_head").is_err());
    assert!(c.basket("mqo1_head_out").is_err(), "nothing left behind");
    assert_eq!(transitions(&c), ["mqo1_head", "q1"]);
    assert_eq!(c.metrics().shared_subscribers, vec![("mqo1_mid".into(), 1)]);
    c.execute("insert into s values (1, 10), (3, 10)").unwrap();
    c.run_until_quiescent(10_000);
    assert_eq!(ints(&c, "q1", 0), vec![1, 3]);
}

#[test]
fn set_plan_sharing_toggles_registration_path() {
    let c = cell(false);
    c.execute("create basket s (a int)").unwrap();
    c.execute("create continuous query off1 as select s2.a from [select * from s] as s2")
        .unwrap();
    assert_eq!(c.metrics().shared_subplans, 0, "sharing off: private plan");
    c.execute("set plan sharing on").unwrap();
    assert!(c.plan_sharing());
    c.execute("create continuous query on1 as select s2.a from [select * from s] as s2")
        .unwrap();
    assert_eq!(c.metrics().shared_subplans, 1);
    c.execute("set plan sharing off").unwrap();
    assert!(!c.plan_sharing());
}

#[test]
fn set_plan_sharing_ack_states_toggle_scope() {
    // The toggle affects future registrations only; the ack must say so
    // and report how many live shared subplans it left untouched.
    let c = cell(true);
    c.execute("create basket s (a int)").unwrap();
    for q in ["q1", "q2"] {
        c.execute(&format!(
            "create continuous query {q} as select s2.a from [select * from s] as s2"
        ))
        .unwrap();
    }
    assert_eq!(c.metrics().shared_subplans, 1);
    let ack = c.execute("set plan sharing off").unwrap();
    assert_eq!(
        format!("{ack:?}"),
        r#"Ack("set plan sharing off (affects future registrations; 1 shared subplan unchanged)")"#
    );
    // The existing shared node really is unchanged.
    assert_eq!(c.metrics().shared_subplans, 1);
    let ack = c.execute("set plan sharing on").unwrap();
    assert_eq!(
        format!("{ack:?}"),
        r#"Ack("set plan sharing on (affects future registrations; 1 shared subplan unchanged)")"#
    );
    // Plural form with zero nodes.
    let c2 = cell(true);
    let ack = c2.execute("set plan sharing off").unwrap();
    assert_eq!(
        format!("{ack:?}"),
        r#"Ack("set plan sharing off (affects future registrations; 0 shared subplans unchanged)")"#
    );
}

#[test]
fn windowed_scans_fall_through_plan_sharing() {
    // Cross-stream windowed joins are multi-scan plans whose sources are
    // shaped by the stream layer — never a shareable prefix. Two
    // identical windowed queries must each run privately, and sharing-ON
    // registration must not disturb their outputs.
    let c = cell(true);
    c.execute("create basket s1 (k int, a int)").unwrap();
    c.execute("create basket s2 (k int, b int)").unwrap();
    for q in ["w1", "w2"] {
        c.execute(&format!(
            "create continuous query {q} as \
             select s1.k as k from s1 [rows 2], s2 [rows 2] \
             where s1.k = s2.k order by k"
        ))
        .unwrap();
    }
    assert_eq!(
        c.metrics().shared_subplans,
        0,
        "windowed plans never join shared nodes"
    );
    c.execute("insert into s1 values (1, 10), (2, 20)").unwrap();
    c.execute("insert into s2 values (2, 200), (3, 300)")
        .unwrap();
    c.run_until_quiescent(10_000);
    assert_eq!(ints(&c, "w1", 0), vec![2]);
    assert_eq!(ints(&c, "w2", 0), vec![2]);
}

#[test]
fn multi_basket_plans_fall_through_to_private_path() {
    let c = cell(true);
    c.execute("create basket s (a int)").unwrap();
    c.execute("create basket s2 (a int)").unwrap();
    c.execute(
        "create continuous query j as \
         select x.a from [select s.a from s join s2 on s.a = s2.a] as x",
    )
    .unwrap();
    assert_eq!(
        c.metrics().shared_subplans,
        0,
        "two consuming scans: no sharing"
    );
    c.execute("insert into s values (1), (2)").unwrap();
    c.execute("insert into s2 values (2), (3)").unwrap();
    c.run_until_quiescent(10_000);
    assert_eq!(ints(&c, "j", 0), vec![2], "join still runs privately");
}

#[test]
fn an_unmatched_tuple_does_not_keep_a_query_firing() {
    // The predicate window leaves (1, 10) in `s`. Firing again would see
    // only that tuple again, so the query waits for the next append, in
    // the unbudgeted sweep and in the DRR ring alike.
    for (sharing, c) in [
        (false, cell(false)),
        (true, cell(true)),
        (false, ring_cell(false)),
    ] {
        c.execute("create basket s (a int, b int)").unwrap();
        c.execute(
            "create continuous query q as \
             select s2.a from [select * from s where s.b < 5] as s2",
        )
        .unwrap();
        c.execute("insert into s values (1, 10), (2, 1)").unwrap();
        let fired = c.run_until_quiescent(10_000);
        assert!(fired <= 2, "sharing={sharing}: {fired} firings");
        assert_eq!(ints(&c, "q", 0), vec![2], "sharing={sharing}");
        if !sharing {
            let m = c.metrics();
            let q = m.per_query.iter().find(|p| p.name == "q").unwrap();
            assert_eq!(q.firings, 1, "q fires once");
        }
    }
}

// ---------------- the §3.2 split, as plan sharing wires it ----------------

const HEAVY: &str = "create continuous query heavy as \
                     select s2.a, count(*) as n from [select * from s where s.b > 10] as s2 \
                     group by s2.a order by s2.a";

#[test]
fn split_preserves_semantics() {
    // Head (the predicate window) → mqo1_mid → tail (the aggregate) gives
    // the unsplit query's answer. What differs is the source: unsplit, the
    // window deletes only its qualifying tuples and (2, 5) stays behind
    // (§2.6); split, the head reads through a cursor and passes it.
    for sharing in [false, true] {
        let c = cell(sharing);
        c.execute("create basket s (a int, b int)").unwrap();
        c.execute(HEAVY).unwrap();
        c.execute("insert into s values (1, 20), (1, 30), (2, 5), (2, 40), (3, 15)")
            .unwrap();
        c.run_until_quiescent(100);
        assert_eq!(ints(&c, "heavy", 0), vec![1, 2, 3], "sharing={sharing}");
        assert_eq!(ints(&c, "heavy", 1), vec![2, 1, 1], "sharing={sharing}");
        let left = c.basket("s").unwrap().len();
        assert_eq!(left, usize::from(!sharing), "sharing={sharing}");
    }
}

#[test]
fn split_rejects_multi_basket_plans() {
    // A join consuming two baskets has no single source to split off:
    // registration builds no head and no intermediate, only the query's
    // own factory.
    let c = cell(true);
    c.execute("create basket s (a int)").unwrap();
    c.execute("create basket s2 (a int)").unwrap();
    c.execute(
        "create continuous query j as \
         select x.a from [select s.a from s join s2 on s.a = s2.a] as x",
    )
    .unwrap();
    assert!(c.basket("mqo1_mid").is_err(), "no intermediate basket");
    let names: Vec<String> = c.metrics().per_query.into_iter().map(|q| q.name).collect();
    assert_eq!(names, vec!["j".to_string()], "no head factory");
}

#[test]
fn head_releases_shared_basket_early() {
    let c = cell(true);
    c.execute("create basket s (a int, b int)").unwrap();
    c.execute(HEAVY).unwrap();
    let source = c.basket("s").unwrap();
    // Another (slow) reader holds the shared basket, and the heavy tail is
    // paused: only the head can fire.
    let slow = source.register_reader(true);
    c.pause_query("heavy").unwrap();
    c.execute("insert into s values (1, 20)").unwrap();
    c.run_until_quiescent(100);
    // The head passed the tuple into the intermediate; the source keeps it
    // for the slow reader alone.
    assert_eq!(c.basket("mqo1_mid").unwrap().len(), 1);
    assert_eq!(source.pending_for(slow), 1);
    source.unregister_reader(slow);
    assert!(source.is_empty(), "no other reader holds it");
}

/// §3.2 by hand: a light selection and a time-sliced heavy aggregate
/// each read `s` through a reader cursor; split, the heavy plan becomes a
/// cheap eager head into `heavy_mid` and the time-sliced tail over it.
/// Returns the light query's answers and what stays in `s` and in
/// `heavy_mid` while the heavy reader waits out its slice.
fn time_sliced_heavy_reader(split: bool) -> (Vec<i64>, usize, usize) {
    use datacell::factory::{Factory, FactoryOutput};
    use datacell::scheduler::{SchedulePolicy, Scheduler};
    use std::sync::Arc;

    let mut cat = datacell::catalog::StreamCatalog::new();
    let kv = || {
        let col = |n: &str| (n.to_string(), datacell_bat::DataType::Int);
        datacell_sql::Schema::new(vec![col("k"), col("v")])
    };
    let input = cat.create_basket("s", kv()).unwrap();
    let mid = cat.create_basket("heavy_mid", kv()).unwrap();
    let light_out = cat.create_basket("light_out", kv()).unwrap();
    let heavy_out = cat.create_basket("heavy_out", kv()).unwrap();
    let reading = |name: &str, sql: &str, out: &Arc<datacell::Basket>| {
        let out = FactoryOutput::Basket(Arc::clone(out));
        let mut f = Factory::compile(name, sql, &cat, out).unwrap();
        f.set_shared("s").unwrap();
        f
    };
    let heavy_sql = "select m.k, count(*) as n from [select * from heavy_mid] as m group by m.k";
    let light = reading(
        "light",
        "select s2.k, s2.v from [select * from s] as s2 where s2.v < 10",
        &light_out,
    );
    let sliced = SchedulePolicy {
        min_interval: Some(std::time::Duration::from_secs(3600)),
        ..SchedulePolicy::default()
    };
    let mut factories = vec![(light, SchedulePolicy::default())];
    if split {
        let head = reading(
            "head",
            "select s2.k, s2.v from [select * from s] as s2",
            &mid,
        );
        let out = FactoryOutput::Basket(Arc::clone(&heavy_out));
        let tail = Factory::compile("tail", heavy_sql, &cat, out).unwrap();
        factories.extend([(head, SchedulePolicy::default()), (tail, sliced)]);
    } else {
        let sql = heavy_sql.replace("heavy_mid] as m", "s] as m");
        factories.push((reading("heavy", &sql, &heavy_out), sliced));
    }
    let catalog = Arc::new(parking_lot::RwLock::new(cat));
    let scheduler = Scheduler::new(catalog, datacell::clock::Clock::manual());
    for (f, policy) in factories {
        scheduler.add_factory_with_policy(f, policy);
    }
    // The heavy plan fires on the first batch, then waits out its slice,
    // which the manual clock, never advanced, does not end.
    for batch in 0..4i64 {
        let rows: Vec<_> = (0..50)
            .map(|i| vec![Value::Int(i % 7), Value::Int(batch * 50 + i)])
            .collect();
        input.append_rows(&rows).unwrap();
        scheduler.run_until_quiescent(100);
    }
    let light = light_out.snapshot().columns[1].as_ints().unwrap().to_vec();
    (light, input.len(), mid.len())
}

#[test]
fn splitting_a_time_sliced_heavy_reader_keeps_light_answers() {
    let (monolithic, backlog, _) = time_sliced_heavy_reader(false);
    let (split, drained, moved) = time_sliced_heavy_reader(true);
    assert_eq!(monolithic, (0..10).collect::<Vec<_>>());
    assert_eq!(split, monolithic, "the light query's answers are unchanged");
    // Unsplit, `s` holds every tuple the sliced reader has not passed;
    // split, the head drains `s` and the backlog waits in `heavy_mid`.
    assert_eq!((backlog, drained, moved), (150, 0, 150));
}

#[test]
fn split_pipeline_drains_under_budgeted_drr_firings() {
    // A split head/tail chain must stay correct when the DRR policy
    // slices its firings: the head's cursor commits only the served
    // prefix, the tail fires off the intermediate, and repeated budgeted
    // rounds drain the same answer one bulk firing produces.
    let c = ring_cell(true);
    c.scheduler().set_quantum(200);
    c.execute("create basket s (a int, b int)").unwrap();
    c.execute(
        "create continuous query heavy as \
         select s2.a, count(*) as n from [select * from s] as s2 group by s2.a",
    )
    .unwrap();
    let rows: Vec<String> = (0..500).map(|i| format!("({}, {i})", i % 5)).collect();
    c.execute(&format!("insert into s values {}", rows.join(", ")))
        .unwrap();
    c.run_until_quiescent(10_000);
    let counts: i64 = ints(&c, "heavy", 1).iter().sum();
    assert_eq!(counts, 500, "no tuple lost or duplicated across slices");
    assert!(c.basket("s").unwrap().is_empty(), "source trimmed");
}

#[test]
fn paused_subscriber_catches_up_without_loss() {
    let c = cell(true);
    c.execute("create basket s (a int)").unwrap();
    for q in ["q1", "q2"] {
        c.execute(&format!(
            "create continuous query {q} as \
             select s2.a from [select * from s] as s2"
        ))
        .unwrap();
    }
    c.execute("insert into s values (1)").unwrap();
    c.run_until_quiescent(10_000);
    c.pause_query("q1").unwrap();
    c.execute("insert into s values (2), (3)").unwrap();
    c.run_until_quiescent(10_000);
    assert_eq!(ints(&c, "q1", 0), vec![1], "paused tail holds");
    assert_eq!(ints(&c, "q2", 0), vec![1, 2, 3], "sibling unaffected");
    c.resume_query("q1").unwrap();
    c.run_until_quiescent(10_000);
    assert_eq!(
        ints(&c, "q1", 0),
        vec![1, 2, 3],
        "shared intermediate retained the paused reader's backlog"
    );
}

// ---------------- differential property ----------------

/// One generated continuous query: a shared-prefix window over `s` plus a
/// per-query tail shape. All output columns are Int so snapshots compare
/// exactly.
#[derive(Clone, Copy, Debug)]
struct QSpec {
    window: i64,
    op: usize,
    param: i64,
}

impl QSpec {
    fn from_seed(seed: usize) -> QSpec {
        QSpec {
            window: [10, 30, 50][(seed / 4) % 3],
            op: seed % 4,
            param: (seed % 7) as i64,
        }
    }

    fn sql(&self, name: &str) -> String {
        let prefix = format!("[select * from s where s.b < {}] as s2", self.window);
        let tail = match self.op {
            0 => format!("select s2.a, s2.b from {prefix}"),
            1 => format!("select s2.a from {prefix} where s2.a > {}", self.param),
            2 => format!("select s2.a * 2 as v, s2.b + 1 as w from {prefix}"),
            _ => format!("select s2.b from {prefix} where s2.a = {}", self.param),
        };
        format!("create continuous query {name} as {tail}")
    }
}

/// User-column contents of a query's output basket.
fn output_rows(cell: &DataCell, query: &str) -> Vec<Vec<i64>> {
    let out = cell.query_output(query).unwrap();
    let snap = out.snapshot();
    let width = out.user_width();
    (0..width)
        .map(|i| snap.columns[i].as_ints().unwrap().to_vec())
        .collect()
}

fn insert_batch(cell: &DataCell, batch: &[(i64, i64)]) {
    if batch.is_empty() {
        return;
    }
    let values = batch
        .iter()
        .map(|(a, b)| format!("({a}, {b})"))
        .collect::<Vec<_>>()
        .join(", ");
    cell.execute(&format!("insert into s values {values}"))
        .unwrap();
}

/// Run `specs` over three batches of `rows` in one sharing-ON cell —
/// dropping `drops` after batch 1, pausing `pause` during batch 2 — and
/// each surviving query alone in a sharing-OFF cell (no drops or pauses;
/// the oracle is isolated execution). Outputs must match bit-for-bit.
fn differential(specs: &[QSpec], rows: &[(i64, i64)], drops: &[usize], pause: usize, spill: bool) {
    let dir = TempDir::new("mqo-differential");
    let shared = if spill {
        spill_cell(true, &dir)
    } else {
        cell(true)
    };
    shared.execute("create basket s (a int, b int)").unwrap();
    for (i, spec) in specs.iter().enumerate() {
        shared.execute(&spec.sql(&format!("q{i}"))).unwrap();
    }
    let batches: Vec<&[(i64, i64)]> = rows.chunks(rows.len().div_ceil(3).max(1)).collect();

    insert_batch(&shared, batches.first().copied().unwrap_or(&[]));
    shared.run_until_quiescent(100_000);
    for &d in drops {
        if d < specs.len() {
            shared
                .execute(&format!("drop continuous query q{d}"))
                .unwrap();
        }
    }
    let paused = pause % specs.len().max(1);
    let pause_alive = paused < specs.len() && !drops.contains(&paused);
    if pause_alive {
        shared.pause_query(&format!("q{paused}")).unwrap();
    }
    insert_batch(&shared, batches.get(1).copied().unwrap_or(&[]));
    shared.run_until_quiescent(100_000);
    if pause_alive {
        shared.resume_query(&format!("q{paused}")).unwrap();
    }
    insert_batch(&shared, batches.get(2).copied().unwrap_or(&[]));
    shared.run_until_quiescent(100_000);

    for (i, spec) in specs.iter().enumerate() {
        if drops.contains(&i) {
            assert!(shared.query_output(&format!("q{i}")).is_err());
            continue;
        }
        let oracle_dir = TempDir::new("mqo-oracle");
        let oracle = if spill {
            spill_cell(false, &oracle_dir)
        } else {
            cell(false)
        };
        oracle.execute("create basket s (a int, b int)").unwrap();
        oracle.execute(&spec.sql("q")).unwrap();
        insert_batch(&oracle, rows);
        oracle.run_until_quiescent(100_000);
        assert_eq!(
            output_rows(&shared, &format!("q{i}")),
            output_rows(&oracle, "q"),
            "query q{i} ({spec:?}) diverged from isolated execution"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharing_matches_isolated_execution(
        seeds in proptest::collection::vec(0usize..12, 1..6),
        a_vals in proptest::collection::vec(0i64..12, 6..60),
        b_vals in proptest::collection::vec(0i64..60, 6..60),
        drops in proptest::collection::vec(0usize..6, 0..3),
        pause in 0usize..6,
        spill in 0usize..4,
    ) {
        let specs: Vec<QSpec> = seeds.iter().map(|&s| QSpec::from_seed(s)).collect();
        let rows: Vec<(i64, i64)> = a_vals
            .iter()
            .zip(b_vals.iter())
            .map(|(&a, &b)| (a, b))
            .collect();
        // Exercise the Spill-backed source/intermediate in a quarter of
        // the cases; the rest run the fast in-memory path.
        differential(&specs, &rows, &drops, pause, spill == 0);
    }
}
