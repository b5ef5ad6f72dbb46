//! Property-based cross-strategy and cross-evaluator equivalence: the
//! invariants behind `fig:exp3_strategies` and `fig:exp5_windows`, checked
//! on randomized workloads.

use std::sync::Arc;

use datacell::catalog::StreamCatalog;
use datacell::factory::FactoryOutput;
use datacell::scheduler::Transition;
use datacell::window::{BasicWindowAgg, ReEvalWindow, WindowSpec};
use datacell_bat::aggregate::AggFunc;
use datacell_bat::types::{DataType, Value};
use datacell_bench::strategy::{deploy, Wiring, COMPLEMENT};
use datacell_sql::Schema;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

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
        let mut cat = StreamCatalog::new();
        let re_in = cat
            .create_basket("w", Schema::new(vec![("v".into(), DataType::Int)]))
            .unwrap();
        let re_out = cat
            .create_basket("ro", Schema::new(vec![("value".into(), DataType::Int)]))
            .unwrap();
        let inc_in = cat
            .create_basket("w2", Schema::new(vec![("v".into(), DataType::Int)]))
            .unwrap();
        let inc_out = cat
            .create_basket("io", Schema::new(vec![("value".into(), DataType::Int)]))
            .unwrap();
        let re = ReEvalWindow::new(
            "re",
            "select sum(s.v) as value from [select * from w] as s",
            &cat,
            Arc::clone(&re_in),
            WindowSpec::Count { size, slide },
            FactoryOutput::Basket(Arc::clone(&re_out)),
        )
        .unwrap();
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
            re.step(None).unwrap();
            inc_in.append_rows(chunk).unwrap();
            inc.step(None).unwrap();
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
