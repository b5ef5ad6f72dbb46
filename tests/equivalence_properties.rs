//! Property-based cross-strategy and cross-evaluator equivalence: the
//! invariants behind `fig:exp3_strategies`, the §3.1 claim that SQL
//! windows and basic windows emit the same windows, and the one output
//! rule (a bounded output changes when rows arrive, never which), checked
//! on randomized workloads.

use std::sync::Arc;

use datacell::basket::ReaderLease;
use datacell::scheduler::{SchedulePolicy, Transition};
use datacell::window::BasicWindowAgg;
use datacell::{DataCell, OverflowPolicy};
use datacell_bat::aggregate::AggFunc;
use datacell_bat::types::Value;
use datacell_bench::strategy::{deploy, Wiring, COMPLEMENT};
use proptest::prelude::*;

const DOMAIN: i64 = 300;

/// Every range query's sorted answer, plus the complement's (empty unless
/// the cascade registered one), after feeding `data` in `batch`es.
fn run_wiring(
    wiring: Wiring,
    data: &[i64],
    ranges: &[(i64, i64)],
    batch: usize,
) -> (Vec<Vec<i64>>, Vec<i64>) {
    let d = deploy(wiring, ranges, 0..=DOMAIN - 1).unwrap();
    let rows: Vec<Vec<Value>> = data.iter().map(|&v| vec![Value::Int(v)]).collect();
    for chunk in rows.chunks(batch.max(1)) {
        d.ingest(chunk).unwrap();
        d.cell.run_until_quiescent(100_000);
    }
    // Whatever the wiring, quiescence means every source was consumed.
    for b in &d.inputs {
        assert!(b.is_empty(), "{wiring:?}: {} holds {}", b.name(), b.len());
    }
    let sorted = |mut v: Vec<i64>| {
        v.sort_unstable();
        v
    };
    let answers = d.queries.iter().map(|q| sorted(d.output(q))).collect();
    let rest = match d.cell.query_output(COMPLEMENT) {
        Ok(_) => sorted(d.output(COMPLEMENT)),
        Err(_) => Vec::new(),
    };
    (answers, rest)
}

/// The transitions the output rule is checked on, by index: a filter
/// factory, a grouped factory, a one-source SQL window and
/// [`BasicWindowAgg`].
const TRANSITIONS: usize = 4;

/// Feed `data` in `batch`es to transition `kind` over `w (k int, v int)`
/// (`k = v mod 5`), with windows of `size` rows sliding by `slide`, into
/// an output of `capacity` (`None`: unbounded) that a reader drains by
/// the cycled `drains` amounts after every `run_until_quiescent` pass.
/// The next batch arrives once the input is consumed, so a factory's
/// firings cover the same batches however small the output. Returns the
/// rows delivered, in order, and the windows computed.
fn deliver(
    kind: usize,
    data: &[i64],
    batch: usize,
    (size, slide): (usize, usize),
    capacity: Option<(usize, OverflowPolicy)>,
    drains: &[usize],
) -> (Vec<Vec<i64>>, u64) {
    let cell = DataCell::new();
    cell.execute("create basket w (k int, v int)").unwrap();
    let input = cell.basket("w").unwrap();
    let sql = [
        "select s.k, s.v from [select * from w] as s where s.v > 0".to_string(),
        "select s.k, count(*) as n, sum(s.v) as t from [select * from w] as s \
         group by s.k order by s.k"
            .to_string(),
        format!("select sum(w.v) as t from w [rows {size} slide {slide}]"),
    ];
    let mut incremental = None;
    let output = match sql.get(kind) {
        Some(sql) => {
            cell.execute(&format!("create continuous query q as {sql}"))
                .unwrap();
            cell.query_output("q").unwrap()
        }
        None => {
            cell.execute("create basket io (value int)").unwrap();
            let output = cell.basket("io").unwrap();
            let inc = Arc::new(
                BasicWindowAgg::new(
                    "inc",
                    Arc::clone(&input),
                    "v",
                    AggFunc::Sum,
                    None,
                    size,
                    slide,
                    Arc::clone(&output),
                )
                .unwrap(),
            );
            cell.add_transition(Arc::clone(&inc) as _, SchedulePolicy::default())
                .unwrap();
            incremental = Some(inc);
            output
        }
    };
    if let Some((capacity, policy)) = capacity {
        output.set_capacity(Some(capacity), policy);
    }
    let width = output.user_width();
    let reader = ReaderLease::register(Arc::clone(&output), true);
    let mut drains = drains.iter().cycle();
    let mut rows = Vec::new();
    // One pass, then one drain: what fired, and the rows taken.
    let mut pass = || {
        let fired = cell.run_until_quiescent(1_000);
        let (got, claim) = reader.claim(*drains.next().unwrap());
        claim.commit();
        for i in 0..got.len() {
            let row = (0..width).map(|c| got.columns[c].as_ints().unwrap()[i]);
            rows.push(row.collect::<Vec<i64>>());
        }
        (fired, got.len())
    };
    for chunk in data.chunks(batch) {
        let tuples: Vec<Vec<Value>> = chunk
            .iter()
            .map(|&v| vec![Value::Int(v.rem_euclid(5)), Value::Int(v)])
            .collect();
        input.append_rows(&tuples).unwrap();
        // The next batch arrives once this one is consumed, whatever the
        // output still holds.
        for spins in 0.. {
            assert!(spins < 100_000, "the input is never consumed");
            if pass().0 == 0 && input.is_empty() {
                break;
            }
        }
    }
    while pass() != (0, 0) {}
    let windows = match (&incremental, kind) {
        (Some(inc), _) => inc.windows_emitted(),
        (None, 2) => cell.window_join("q").unwrap().windows_evaluated(),
        (None, _) => 0,
    };
    (rows, windows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bounded_outputs_deliver_the_unbounded_rows(
        data in prop::collection::vec(-50i64..50, 1..300),
        kind in 0usize..TRANSITIONS,
        batch in 1usize..40,
        slide in 1usize..5,
        multiple in 1usize..4,
        capacity in 1usize..9,
        block in 0usize..2,
        drains in prop::collection::vec(1usize..9, 1..8),
    ) {
        let window = (slide * multiple, slide);
        let policy = [OverflowPolicy::Reject, OverflowPolicy::Block][block];
        let unbounded = deliver(kind, &data, batch, window, None, &[usize::MAX]);
        let bounded = deliver(kind, &data, batch, window, Some((capacity, policy)), &drains);
        prop_assert_eq!(&bounded.0, &unbounded.0);
        prop_assert_eq!(bounded.1, unbounded.1);
    }

    #[test]
    fn strategies_agree_on_random_workloads(
        data in prop::collection::vec(0i64..DOMAIN, 1..400),
        batch in 1usize..64,
        n_queries in 1usize..6,
        start in -40i64..40,
        shrink in -40i64..40,
    ) {
        // Disjoint adjacent ranges over [start, DOMAIN - shrink). Negative
        // draws clamp to 0, so about a quarter of the cases cover the whole
        // domain; the rest leave an edge uncovered, and the cascade then
        // registers its complement query.
        let (start, shrink) = (start.max(0), shrink.max(0));
        let width = (DOMAIN - start - shrink) / n_queries as i64;
        let ranges: Vec<(i64, i64)> = (0..n_queries as i64)
            .map(|i| (start + i * width, start + (i + 1) * width - 1))
            .collect();
        let (sep, _) = run_wiring(Wiring::Separate, &data, &ranges, batch);
        let (sha, _) = run_wiring(Wiring::Shared, &data, &ranges, batch);
        let (cas, rest) = run_wiring(Wiring::Cascading, &data, &ranges, batch);
        prop_assert_eq!(&sep, &sha);
        prop_assert_eq!(&sha, &cas);
        // Oracle: every qualifying value appears in the right output, and
        // the complement took exactly what no range covers.
        let covered = |v: &i64| ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(v));
        for (qi, &(lo, hi)) in ranges.iter().enumerate() {
            let mut want: Vec<i64> = data
                .iter()
                .copied()
                .filter(|v| (lo..=hi).contains(v))
                .collect();
            want.sort_unstable();
            prop_assert_eq!(&sep[qi], &want);
        }
        let mut want_rest: Vec<i64> = data.iter().copied().filter(|v| !covered(v)).collect();
        want_rest.sort_unstable();
        prop_assert_eq!(&rest, &want_rest);
    }

    #[test]
    fn window_evaluators_agree_on_random_streams(
        data in prop::collection::vec(-100i64..100, 1..600),
        slide in 1usize..20,
        multiple in 1usize..10,
        batch in 1usize..100,
    ) {
        let size = slide * multiple;
        // Re-evaluation: the one-source SQL window.
        let cell = DataCell::new();
        cell.execute("create basket w (v int)").unwrap();
        cell.execute("create basket w2 (v int)").unwrap();
        cell.execute("create basket io (value int)").unwrap();
        cell.execute(&format!(
            "create continuous query re as \
             select sum(w.v) as value from w [rows {size} slide {slide}]"
        ))
        .unwrap();
        let re_in = cell.basket("w").unwrap();
        let re_out = cell.query_output("re").unwrap();
        let inc_in = cell.basket("w2").unwrap();
        let inc_out = cell.basket("io").unwrap();
        let inc = BasicWindowAgg::new(
            "inc",
            Arc::clone(&inc_in),
            "v",
            AggFunc::Sum,
            None,
            size,
            slide,
            Arc::clone(&inc_out),
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = data.iter().map(|&v| vec![Value::Int(v)]).collect();
        for chunk in rows.chunks(batch) {
            re_in.append_rows(chunk).unwrap();
            cell.run_until_quiescent(1_000);
            inc_in.append_rows(chunk).unwrap();
            inc.step(None, usize::MAX).unwrap();
        }
        let revals = re_out.snapshot().columns[0].as_ints().unwrap().to_vec();
        let incvals = inc_out.snapshot().columns[0].as_ints().unwrap().to_vec();
        prop_assert_eq!(&revals, &incvals);
        // Oracle for the first window, if any.
        if data.len() >= size {
            prop_assert_eq!(revals[0], data[..size].iter().sum::<i64>());
        }
    }
}
