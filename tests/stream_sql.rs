//! Cross-crate SQL semantics: basket expressions, predicate windows,
//! stream-table joins, and the one-time/continuous parity the paper's reuse
//! argument depends on.

use datacell::DataCell;
use datacell_bat::types::Value;

#[test]
fn paper_queries_q1_q2() {
    // The exact example queries of §2.6 (v1 = 50, v2 = 30).
    let cell = DataCell::new();
    cell.execute("create basket r (a int, b int)").unwrap();
    cell.execute("insert into r values (60, 10), (40, 10), (70, 99)")
        .unwrap();

    // q2: predicate window — only tuples with b < 30 are referenced.
    let rows = cell
        .query("select * from [select * from r where r.b < 30] as s where s.a > 50")
        .unwrap();
    // a=60 qualifies; a=40 is inside the window but filtered by the outer
    // predicate; a=70 is outside the window.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.row(0).unwrap()[0], Value::Int(60));
    // The window's tuples (60 and 40) were removed; 70 remains.
    let left = cell.query("select a from r").unwrap();
    assert_eq!(left.len(), 1);
    assert_eq!(left.row(0).unwrap()[0], Value::Int(70));

    // q1: plain basket expression — everything referenced, basket empties.
    let rows = cell
        .query("select * from [select * from r] as s where s.a > 50")
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert!(cell.basket("r").unwrap().is_empty());
}

#[test]
fn continuous_query_stream_table_join_and_aggregation() {
    let cell = DataCell::new();
    cell.execute("create table products (pid int, price int)")
        .unwrap();
    cell.execute("insert into products values (1, 10), (2, 20), (3, 30)")
        .unwrap();
    cell.execute("create basket orders (pid int, qty int)")
        .unwrap();
    cell.execute(
        "create continuous query revenue as \
         select p.pid, sum(o.qty * p.price) as rev \
         from [select * from orders] as o join products p on o.pid = p.pid \
         group by p.pid order by p.pid",
    )
    .unwrap();
    cell.execute("insert into orders values (1, 5), (2, 2), (1, 1), (9, 100)")
        .unwrap();
    cell.run_until_quiescent(100);
    let out = cell.query_output("revenue").unwrap().snapshot();
    assert_eq!(out.columns[0].as_ints().unwrap(), &[1, 2]);
    assert_eq!(out.columns[1].as_ints().unwrap(), &[60, 40]);
    // pid 9 has no product row: inner join drops it, but it was still
    // consumed from the basket (the basket expression referenced it).
    assert!(cell.basket("orders").unwrap().is_empty());
}

#[test]
fn continuous_query_keeps_state_across_batches() {
    let cell = DataCell::new();
    cell.execute("create basket s (v int)").unwrap();
    cell.execute(
        "create continuous query q as \
         select s2.v from [select * from s] as s2 where s2.v >= 10",
    )
    .unwrap();
    for batch in [[5i64, 15], [25, 3], [10, 11]] {
        let rows: Vec<Vec<Value>> = batch.iter().map(|&v| vec![Value::Int(v)]).collect();
        cell.basket("s").unwrap().append_rows(&rows).unwrap();
        cell.run_until_quiescent(100);
    }
    let out = cell.query_output("q").unwrap().snapshot();
    assert_eq!(out.columns[0].as_ints().unwrap(), &[15, 25, 10, 11]);
}

#[test]
fn errors_are_reported_not_swallowed() {
    let cell = DataCell::new();
    assert!(cell.execute("select * from nowhere").is_err());
    assert!(
        cell.execute("create basket b (ts int)").is_err(),
        "reserved ts"
    );
    cell.execute("create basket b (v int)").unwrap();
    assert!(cell
        .execute("create continuous query q as select v from b")
        .is_err());
    assert!(cell.execute("insert into b values ('text')").is_err());
    // After all those failures the engine still works.
    cell.execute("insert into b values (1)").unwrap();
    assert_eq!(cell.query("select v from b").unwrap().len(), 1);
}

#[test]
fn explain_shows_reused_optimizer_plan() {
    let cell = DataCell::new();
    cell.execute("create basket s (a int, b int, c int)")
        .unwrap();
    match cell
        .execute("explain select s2.a from [select * from s where s.b > 1] as s2 where s2.c = 5")
        .unwrap()
    {
        datacell::session::CellResult::Plan(p) => {
            assert!(p.contains("[consume]"), "{p}");
            assert!(p.contains("cols="), "column pruning applied: {p}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn one_time_and_continuous_queries_agree_on_a_sql_battery() {
    // The same compiler serves both regimes (§1): each shape runs as a
    // one-time query over table `t` and as a basket-expression query over
    // basket `b` holding the same rows, and the answers must match.
    const ROWS: &str = "(1, 10, 'red'), (2, 25, 'blue'), (3, 25, 'red'), (4, 40, 'green'), \
                        (5, 55, 'blue'), (6, 70, 'red'), (7, 85, 'green'), (8, 100, 'blue')";
    let battery = [
        "select a from {src} where v between 20 and 80 order by a",
        "select a, v * 2 + 1 as vv from {src} where v > 50 order by a",
        "select c, count(*) as n, sum(v) as sv from {src} group by c order by c",
        "select c, count(*) as n from {src} group by c having count(*) > 2 order by c",
        "select distinct v from {src} order by v",
        "select a, case when v in (25, 55) then 'hit' else 'miss' end as tag \
         from {src} order by a",
        "select a from {src} where c like '%ee%' order by a",
        "select a, v from {src} order by v desc limit 3",
        "select count(*) as n, avg(v) as av, min(c) as mc from {src}",
    ];
    let cell = DataCell::new();
    cell.execute("create table t (a int, v int, c varchar(10))")
        .unwrap();
    cell.execute("create basket b (a int, v int, c varchar(10))")
        .unwrap();
    cell.execute(&format!("insert into t values {ROWS}"))
        .unwrap();
    for shape in battery {
        // Basket expressions consume: refill the basket for each shape.
        cell.execute(&format!("insert into b values {ROWS}"))
            .unwrap();
        let rows = |src: &str| {
            let sql = shape.replace("{src}", src);
            cell.query(&sql).unwrap().rows().unwrap()
        };
        let one_time = rows("t");
        assert!(!one_time.is_empty(), "{shape}");
        assert_eq!(one_time, rows("[select * from b] as s"), "{shape}");
        assert!(cell.basket("b").unwrap().is_empty(), "{shape}");
    }
}
