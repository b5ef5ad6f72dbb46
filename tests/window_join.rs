//! Cross-stream windowed joins, end to end: SQL with per-source window
//! specs through the session, differential against a reference join,
//! lifecycle (pause/resume/drop/flush), and composition with the
//! subsystems a transition must not break — the multi-worker pool
//! (two-basket conflict keys), Spill-backed inputs, and DRR fairness.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use datacell::basket::{Durability, OverflowPolicy};
use datacell::{DataCell, SchedulePolicy};
use datacell_bat::types::DataType;
use datacell_bat::Column;
use datacell_engine::Chunk;
use datacell_sql::Schema;
use datacell_storage::testutil::TempDir;
use proptest::prelude::*;

const JOIN_SQL: &str = "create continuous query j as \
     select s1.k as k, s1.a as a, s2.b as b \
     from s1 [rows 3], s2 [rows 3] \
     where s1.k = s2.k order by a, b";

fn join_cell() -> DataCell {
    let cell = DataCell::new();
    cell.execute("create basket s1 (k int, a int)").unwrap();
    cell.execute("create basket s2 (k int, b int)").unwrap();
    cell.execute(JOIN_SQL).unwrap();
    cell
}

fn insert(cell: &DataCell, basket: &str, rows: &[(i64, i64)]) {
    let values = rows
        .iter()
        .map(|(k, v)| format!("({k}, {v})"))
        .collect::<Vec<_>>()
        .join(", ");
    cell.execute(&format!("insert into {basket} values {values}"))
        .unwrap();
}

fn out_rows(cell: &DataCell, query: &str) -> Vec<(i64, i64, i64)> {
    let snap = cell.query_output(query).unwrap().snapshot();
    let k = snap.columns[0].as_ints().unwrap();
    let a = snap.columns[1].as_ints().unwrap();
    let b = snap.columns[2].as_ints().unwrap();
    (0..snap.len()).map(|i| (k[i], a[i], b[i])).collect()
}

#[test]
fn windowed_join_sql_end_to_end() {
    let cell = join_cell();
    insert(&cell, "s1", &[(1, 10), (2, 20), (3, 30)]);
    cell.run_until_quiescent(10_000);
    // Right side has no complete window yet: nothing fires.
    assert_eq!(out_rows(&cell, "j"), vec![]);
    insert(&cell, "s2", &[(2, 200), (3, 300), (4, 400)]);
    cell.run_until_quiescent(10_000);
    assert_eq!(out_rows(&cell, "j"), vec![(2, 20, 200), (3, 30, 300)]);
    // Window 1 joins only window-1 tuples: key 1 from window 0 of s1 must
    // not meet the fresh key-1 tuple of s2's window 1.
    insert(&cell, "s1", &[(5, 50), (6, 60), (1, 70)]);
    insert(&cell, "s2", &[(1, 500), (5, 600), (7, 700)]);
    cell.run_until_quiescent(10_000);
    assert_eq!(
        out_rows(&cell, "j"),
        vec![(2, 20, 200), (3, 30, 300), (5, 50, 600), (1, 70, 500)]
    );
}

#[test]
fn windowed_equi_join_plans_a_hash_join() {
    let cell = DataCell::new();
    cell.execute("create basket s1 (k int, a int)").unwrap();
    cell.execute("create basket s2 (k int, b int)").unwrap();
    let explain = "explain select s1.k as k, s1.a as a, s2.b as b \
                   from s1 [rows 128], s2 [rows 128] where s1.k = s2.k";
    match cell.execute(explain).unwrap() {
        datacell::CellResult::Plan(plan) => assert!(plan.contains("HashJoin"), "{plan}"),
        other => panic!("EXPLAIN returned {other:?}"),
    }
}

#[test]
fn windowed_join_delivers_to_subscribers() {
    let cell = join_cell();
    let sub = cell.subscribe::<(i64, i64, i64)>("j").unwrap();
    insert(&cell, "s1", &[(1, 10), (2, 20), (3, 30)]);
    insert(&cell, "s2", &[(3, 300), (1, 100), (9, 900)]);
    cell.run_until_quiescent(10_000);
    let mut got = Vec::new();
    while let Some(row) = sub.next_timeout(Duration::from_secs(5)).unwrap() {
        got.push(row);
        if got.len() == 2 {
            break;
        }
    }
    assert_eq!(got, vec![(1, 10, 100), (3, 30, 300)]);
}

/// Hand-stamped timestamps drive RANGE windows; `flush_query` closes the
/// tail windows of a quiescent pair at each side's horizon.
#[test]
fn time_windowed_join_and_flush_at_horizon() {
    let cell = DataCell::new();
    cell.execute("create basket s1 (k int, a int)").unwrap();
    cell.execute("create basket s2 (k int, b int)").unwrap();
    cell.execute(
        "create continuous query j as \
         select s1.k as k, s1.a as a, s2.b as b \
         from s1 [range 1000us], s2 [range 1000us] \
         where s1.k = s2.k order by a, b",
    )
    .unwrap();
    let mk = |field: &str, rows: &[(i64, i64, i64)]| {
        Chunk::new(
            Schema::new(vec![
                ("k".into(), DataType::Int),
                (field.into(), DataType::Int),
                ("ts".into(), DataType::Timestamp),
            ]),
            vec![
                Column::from_ints(rows.iter().map(|r| r.0).collect()),
                Column::from_ints(rows.iter().map(|r| r.1).collect()),
                Column::from_timestamps(rows.iter().map(|r| r.2).collect()),
            ],
        )
        .unwrap()
    };
    cell.basket("s1")
        .unwrap()
        .append_chunk(&mk("a", &[(1, 10, 0), (2, 20, 500), (3, 30, 1500)]))
        .unwrap();
    cell.basket("s2")
        .unwrap()
        .append_chunk(&mk("b", &[(1, 100, 100), (2, 200, 600), (3, 300, 1600)]))
        .unwrap();
    cell.run_until_quiescent(10_000);
    // Window [0, 1000) closed on both sides (each horizon passed 1000);
    // window [1000, 2000) is still open — neither side saw ts >= 2000.
    assert_eq!(out_rows(&cell, "j"), vec![(1, 10, 100), (2, 20, 200)]);
    // Declare the streams quiescent: the tail window closes at the
    // horizons and the buffered key-3 pair joins.
    cell.flush_query("j").unwrap();
    assert_eq!(
        out_rows(&cell, "j"),
        vec![(1, 10, 100), (2, 20, 200), (3, 30, 300)]
    );
    assert!(
        cell.flush_query("nope").is_err(),
        "flush of an unknown windowed query reports the name"
    );
}

#[test]
fn windowed_query_pause_resume_drop() {
    let cell = join_cell();
    insert(&cell, "s1", &[(1, 10), (2, 20), (3, 30)]);
    insert(&cell, "s2", &[(1, 100), (2, 200), (3, 300)]);
    cell.run_until_quiescent(10_000);
    let first = vec![(1, 10, 100), (2, 20, 200), (3, 30, 300)];
    assert_eq!(out_rows(&cell, "j"), first);

    cell.pause_query("j").unwrap();
    assert!(cell.is_query_paused("j").unwrap());
    insert(&cell, "s1", &[(4, 40), (5, 50), (6, 60)]);
    insert(&cell, "s2", &[(4, 400), (5, 500), (6, 600)]);
    cell.run_until_quiescent(10_000);
    assert_eq!(out_rows(&cell, "j"), first, "paused join holds its output");

    cell.resume_query("j").unwrap();
    cell.run_until_quiescent(10_000);
    assert_eq!(
        out_rows(&cell, "j"),
        vec![
            (1, 10, 100),
            (2, 20, 200),
            (3, 30, 300),
            (4, 40, 400),
            (5, 50, 500),
            (6, 60, 600),
        ],
        "resume catches up without loss"
    );

    cell.execute("drop continuous query j").unwrap();
    assert!(cell.query_output("j").is_err(), "output basket dropped");
    // The join's reader cursors detached: fresh appends are not retained
    // for a dead query, and the same name can be registered again.
    insert(&cell, "s1", &[(7, 70)]);
    cell.run_until_quiescent(10_000);
    cell.execute(JOIN_SQL).unwrap();
    cell.run_until_quiescent(10_000);
    assert_eq!(out_rows(&cell, "j"), vec![]);
}

/// workers = 4: a windowed join fires through the worker pool while both
/// input baskets take concurrent producers. The transition's conflict
/// keys cover BOTH baskets, so firings serialize against the appends'
/// sibling transitions and every lockstep pair joins exactly once.
#[test]
fn parallel_pool_serializes_two_basket_conflicts() {
    const ROWS: i64 = 1_000;
    let cell = DataCell::builder()
        .workers(4)
        .metrics(true)
        .auto_start(true)
        .build();
    cell.execute("create basket s1 (k int, a int)").unwrap();
    cell.execute("create basket s2 (k int, b int)").unwrap();
    // [rows 1] tumbling: evaluation i joins row i of s1 with row i of s2;
    // both carry key i, so the expected output is exactly one row per i.
    cell.execute(
        "create continuous query j as \
         select s1.k as k, s1.a as a, s2.b as b \
         from s1 [rows 1], s2 [rows 1] \
         where s1.k = s2.k",
    )
    .unwrap();
    let sub = cell.subscribe::<(i64, i64, i64)>("j").unwrap();
    std::thread::scope(|scope| {
        let mut w1 = cell.writer("s1").unwrap();
        let mut w2 = cell.writer("s2").unwrap();
        scope.spawn(move || {
            for i in 0..ROWS {
                w1.append((i, i * 2)).unwrap();
            }
            w1.flush().unwrap();
        });
        scope.spawn(move || {
            for i in 0..ROWS {
                w2.append((i, i * 10)).unwrap();
            }
            w2.flush().unwrap();
        });
    });
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.len() < ROWS as usize && Instant::now() < deadline {
        if let Some(row) = sub.next_timeout(Duration::from_millis(100)).unwrap() {
            got.push(row);
        }
    }
    got.sort_unstable();
    assert_eq!(
        got,
        (0..ROWS).map(|i| (i, i * 2, i * 10)).collect::<Vec<_>>(),
        "every lockstep pair joined exactly once"
    );
    let keys: HashSet<i64> = got.iter().map(|r| r.0).collect();
    assert_eq!(keys.len(), ROWS as usize);
    let m = cell.metrics();
    assert_eq!(m.workers, 4);
    assert!(m.firings_parallel >= 1, "join fired through the pool");
    cell.stop();
}

/// Spill-backed input baskets: the join's reader cursors retain tuples
/// past the in-memory budget and the overflow pages feed windows
/// transparently.
#[test]
fn spill_backed_inputs_compose() {
    let dir = TempDir::new("window-join-spill");
    let cell = DataCell::builder()
        .data_dir(dir.path())
        .durability(Durability::Ephemeral)
        .overflow_policy(OverflowPolicy::Spill { mem_rows: 8 })
        .build();
    cell.execute("create basket s1 (k int, a int)").unwrap();
    cell.execute("create basket s2 (k int, b int)").unwrap();
    cell.execute(JOIN_SQL).unwrap();
    // 60 rows per side — far past the 8-row memory budget — appended
    // before any scheduling, so the windows are rebuilt from spill.
    let left: Vec<(i64, i64)> = (0..60).map(|i| (i % 10, i)).collect();
    let right: Vec<(i64, i64)> = (0..60).map(|i| (i % 10, 1000 + i)).collect();
    insert(&cell, "s1", &left);
    insert(&cell, "s2", &right);
    cell.run_until_quiescent(100_000);
    let expected = reference_join(&left, &right, (3, 3), (3, 3));
    assert_eq!(out_rows(&cell, "j"), expected);
}

/// DRR budgeted firings: in the DRR ring (`priority < 0`) the join is
/// stepped in budgeted slices next to a co-tenant query; output is still complete,
/// both transitions make progress, and the join's budget caps what one
/// firing ingests per side. The first firing's budget is exactly
/// `quantum` tuples (one round's credit at the bootstrap cost of 1 µs a
/// tuple), so 150 tuples per side take at least two firings.
#[test]
fn drr_budgeted_firings_compose() {
    const QUANTUM: u64 = 100;
    let cell = DataCell::builder()
        .scheduler_policy(SchedulePolicy {
            priority: -1,
            ..SchedulePolicy::default()
        })
        .metrics(true)
        .build();
    cell.scheduler().set_quantum(QUANTUM);
    cell.execute("create basket s1 (k int, a int)").unwrap();
    cell.execute("create basket s2 (k int, b int)").unwrap();
    cell.execute("create basket other (x int)").unwrap();
    cell.execute(JOIN_SQL).unwrap();
    cell.execute(
        "create continuous query q as select s.x from [select * from other] as s where s.x >= 0",
    )
    .unwrap();
    let left: Vec<(i64, i64)> = (0..150).map(|i| (i % 7, i)).collect();
    let right: Vec<(i64, i64)> = (0..150).map(|i| (i % 7, 500 + i)).collect();
    insert(&cell, "s1", &left);
    insert(&cell, "s2", &right);
    let others: Vec<(i64, i64)> = (0..50).map(|i| (i, i)).collect();
    let values = others
        .iter()
        .map(|(x, _)| format!("({x})"))
        .collect::<Vec<_>>()
        .join(", ");
    cell.execute(&format!("insert into other values {values}"))
        .unwrap();
    // One pass fires the join at most once, and the join is the only
    // reader of its inputs: what a pass takes out of an input basket is
    // what one firing ingested on that side.
    let inputs = [cell.basket("s1").unwrap(), cell.basket("s2").unwrap()];
    for _ in 0..100_000 {
        let before: Vec<usize> = inputs.iter().map(|b| b.len()).collect();
        if before.iter().all(|&n| n == 0) {
            break;
        }
        cell.run_until_quiescent(1);
        for (b, was) in inputs.iter().zip(before) {
            let took = was - b.len();
            assert!(
                took as u64 <= QUANTUM,
                "one firing ingested {took} tuples of {}",
                b.name()
            );
        }
    }
    cell.run_until_quiescent(100_000);
    assert_eq!(
        out_rows(&cell, "j"),
        reference_join(&left, &right, (3, 3), (3, 3))
    );
    let m = cell.metrics();
    let firings: Vec<(String, u64)> = m
        .per_query
        .iter()
        .map(|q| (q.name.clone(), q.firings))
        .collect();
    assert!(
        firings.iter().all(|(_, f)| *f > 0),
        "both co-tenants fired under DRR: {firings:?}"
    );
    assert!(
        firings.iter().any(|(name, f)| name == "j" && *f > 1),
        "the join's input took several budgeted firings: {firings:?}"
    );
}

/// The README's alias-form example registers and runs (window spec after
/// the alias, time windows, explicit flush).
#[test]
fn readme_example_alias_form() {
    let cell = DataCell::new();
    cell.execute("create basket trades (sym int, px int)")
        .unwrap();
    cell.execute("create basket quotes (sym int, bid int)")
        .unwrap();
    cell.execute(
        "create continuous query spread as \
         select t.sym as sym, t.px as px, q.bid as bid \
         from trades t [range 5s], quotes q [range 5s] \
         where t.sym = q.sym",
    )
    .unwrap();
    insert(&cell, "trades", &[(1, 101), (2, 205)]);
    insert(&cell, "quotes", &[(2, 204), (1, 99)]);
    cell.run_until_quiescent(10_000);
    cell.flush_query("spread").unwrap();
    let mut got = out_rows(&cell, "spread");
    got.sort_unstable();
    assert_eq!(got, vec![(1, 101, 99), (2, 205, 204)]);
}

// ---------------- differential property ----------------

/// Reference lockstep join: evaluation `k` inner-joins arrival positions
/// `[k·slide, k·slide+size)` of each side on the key column, projecting
/// `(k, a, b)` ordered by `(a, b)` within the evaluation — exactly the
/// semantics the `WindowJoin` transition plus `ORDER BY a, b` promise.
fn reference_join(
    s1: &[(i64, i64)],
    s2: &[(i64, i64)],
    (size1, slide1): (usize, usize),
    (size2, slide2): (usize, usize),
) -> Vec<(i64, i64, i64)> {
    let mut out = Vec::new();
    for k in 0.. {
        let (lo1, lo2) = (k * slide1, k * slide2);
        if s1.len() < lo1 + size1 || s2.len() < lo2 + size2 {
            break;
        }
        let mut rows = Vec::new();
        for &(k1, a) in &s1[lo1..lo1 + size1] {
            for &(k2, b) in &s2[lo2..lo2 + size2] {
                if k1 == k2 {
                    rows.push((k1, a, b));
                }
            }
        }
        rows.sort_unstable_by_key(|&(_, a, b)| (a, b));
        out.extend(rows);
    }
    out
}

/// Reference one-source window: evaluation `k` keeps the arrival
/// positions `[k·slide, k·slide+size)` whose key is below 3, projecting
/// `(k, a, a)` ordered by `a` within the evaluation — the re-evaluation
/// semantics a single `[ROWS size SLIDE slide]` source promises.
fn reference_window(s1: &[(i64, i64)], (size, slide): (usize, usize)) -> Vec<(i64, i64, i64)> {
    let mut out = Vec::new();
    for lo in (0..).map(|k| k * slide) {
        if s1.len() < lo + size {
            break;
        }
        out.extend(
            s1[lo..lo + size]
                .iter()
                .filter(|&&(k, _)| k < 3)
                .map(|&(k, a)| (k, a, a)),
        );
    }
    out
}

/// Windows the reference evaluates for arrival sequences of `n1` and `n2`
/// tuples.
fn window_count(
    n1: usize,
    n2: usize,
    (size1, slide1): (usize, usize),
    (size2, slide2): (usize, usize),
) -> u64 {
    (0..)
        .take_while(|k| n1 >= k * slide1 + size1 && n2 >= k * slide2 + size2)
        .count() as u64
}

/// Drive one generated scenario: one windowed source (a filter per
/// window) or two (a join), per-side sequences with unique payloads,
/// per-side count specs, an output capacity (`None` = unbounded, else a
/// `Block` bound), and an arbitrary interleaving of per-side batch splits
/// with scheduler drives in between, each drive optionally followed by a
/// drain of the output. The delivered rows must be bit-identical to the
/// reference over the arrival sequences — interleaving, batching
/// and a full output must not leak into window contents, and eviction
/// must never drop an in-window tuple; every window must be evaluated
/// exactly once however often the output filled up; and no drive may
/// leave a side buffering more than one window plus what it ingested.
#[allow(clippy::too_many_arguments)]
fn differential_case(
    sides: usize,
    keys1: &[i64],
    keys2: &[i64],
    spec1: (usize, usize),
    spec2: (usize, usize),
    schedule: &[(bool, usize)],
    capacity: Option<usize>,
    drains: u32,
) {
    // One source reads only s1: every batch goes to it.
    let keys2 = if sides == 1 { &[][..] } else { keys2 };
    let cell = DataCell::new();
    cell.execute("create basket s1 (k int, a int)").unwrap();
    cell.execute("create basket s2 (k int, b int)").unwrap();
    let (from, filter) = if sides == 1 {
        (
            format!("s1.a as b from s1 [rows {} slide {}]", spec1.0, spec1.1),
            "s1.k < 3",
        )
    } else {
        (
            format!(
                "s2.b as b from s1 [rows {} slide {}], s2 [rows {} slide {}]",
                spec1.0, spec1.1, spec2.0, spec2.1
            ),
            "s1.k = s2.k",
        )
    };
    cell.execute(&format!(
        "create continuous query j as \
         select s1.k as k, s1.a as a, {from} where {filter} order by a, b"
    ))
    .unwrap();
    let join = cell.window_join("j").unwrap();
    let output = cell.query_output("j").unwrap();
    output.set_capacity(capacity, OverflowPolicy::Block);
    let reader = output.register_reader(true);
    let mut delivered: Vec<(i64, i64, i64)> = Vec::new();
    let mut drain = || {
        let (chunk, start, end) = output.claim_for_reader(reader, usize::MAX);
        output.commit_claim(reader, start, end);
        let col = |c: usize| chunk.columns[c].as_ints().unwrap().to_vec();
        let (k, a, b) = (col(0), col(1), col(2));
        delivered.extend((0..chunk.len()).map(|i| (k[i], a[i], b[i])));
        chunk.len()
    };
    let inputs = [cell.basket("s1").unwrap(), cell.basket("s2").unwrap()];
    let sizes = [spec1.0, spec2.0];
    let drive = || {
        // The join is its inputs' only reader: what they still hold is
        // what it has not ingested.
        let pending: Vec<usize> = inputs.iter().map(|b| b.len()).collect();
        let before = join.buffered();
        cell.run_until_quiescent(10_000);
        for (side, after) in join.buffered().into_iter().enumerate() {
            let bound = before[side].max(sizes[side] - 1 + pending[side]);
            assert!(
                after <= bound,
                "side {side} buffers {after} > {bound} (specs {spec1:?}/{spec2:?}, capacity {capacity:?})"
            );
        }
    };
    // Unique payloads (left: 0.., right: 10_000..) make (a, b) a total
    // order inside every evaluation, so outputs compare exactly.
    let s1: Vec<(i64, i64)> = keys1
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as i64))
        .collect();
    let s2: Vec<(i64, i64)> = keys2
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, 10_000 + i as i64))
        .collect();
    let (mut fed1, mut fed2) = (0usize, 0usize);
    for (step, &(left, len)) in schedule.iter().enumerate() {
        if left || sides == 1 {
            let hi = (fed1 + len.max(1)).min(s1.len());
            if hi > fed1 {
                insert(&cell, "s1", &s1[fed1..hi]);
                fed1 = hi;
            }
        } else {
            let hi = (fed2 + len.max(1)).min(s2.len());
            if hi > fed2 {
                insert(&cell, "s2", &s2[fed2..hi]);
                fed2 = hi;
            }
        }
        drive();
        if drains & (1 << step) != 0 {
            drain();
        }
    }
    if fed1 < s1.len() {
        insert(&cell, "s1", &s1[fed1..]);
    }
    if fed2 < s2.len() {
        insert(&cell, "s2", &s2[fed2..]);
    }
    // A drive that adds nothing to a drained output had room throughout,
    // so the join is done.
    loop {
        drive();
        if drain() == 0 {
            break;
        }
    }
    let (expected, windows) = if sides == 1 {
        let n = s1.len();
        (
            reference_window(&s1, spec1),
            window_count(n, n, spec1, spec1),
        )
    } else {
        (
            reference_join(&s1, &s2, spec1, spec2),
            window_count(s1.len(), s2.len(), spec1, spec2),
        )
    };
    assert_eq!(
        delivered, expected,
        "{sides} side(s), specs {spec1:?}/{spec2:?}, capacity {capacity:?}: diverged from the reference"
    );
    assert_eq!(
        join.windows_evaluated(),
        windows,
        "{sides} side(s), specs {spec1:?}/{spec2:?}, capacity {capacity:?}: a window was evaluated twice"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interleavings_match_reference_join(
        sides in 1usize..3,
        keys1 in proptest::collection::vec(0i64..6, 0..40),
        keys2 in proptest::collection::vec(0i64..6, 0..40),
        size1 in 1usize..5,
        slide1 in 1usize..5,
        size2 in 1usize..5,
        slide2 in 1usize..5,
        schedule in proptest::collection::vec(
            (0usize..16).prop_map(|v| (v % 2 == 0, v / 2 + 1)),
            0..16,
        ),
        capacity in 0usize..8,
        drains in 0u32..(1 << 16),
    ) {
        differential_case(
            sides,
            &keys1,
            &keys2,
            (size1, slide1.min(size1)),
            (size2, slide2.min(size2)),
            &schedule,
            (capacity > 0).then_some(capacity),
            drains,
        );
    }
}
