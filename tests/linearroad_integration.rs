//! Integration test for `tab:linearroad`: a short full-system Linear Road
//! run must validate against the reference implementation and meet the
//! response-time deadline.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::basket::{Basket, ReaderLease};
use datacell::{Chunk, OverflowPolicy};
use linearroad::harness::run_linear_road;
use linearroad::validator::validate;
use linearroad::{LinearRoadSystem, TrafficConfig, TrafficSim};

#[test]
fn short_run_validates_and_meets_deadline() {
    let report = run_linear_road(1, 300, 777);
    assert!(
        report.validation.passed(),
        "{:?}",
        report.validation.mismatches
    );
    assert!(report.max_response_micros < 5_000_000, "5 s deadline");
    assert!(report.tolls > 0);
}

#[test]
fn interleaved_feeding_matches_reference() {
    // Feed record-by-record with scheduler drains at odd points: arrival
    // batching must never change answers.
    let sim = TrafficSim::generate(TrafficConfig {
        xways: 1,
        cars_per_xway_per_min: 8,
        duration_s: 240,
        accidents_per_xway: 1,
        balance_query_permille: 30,
        daily_query_permille: 10,
        seed: 99,
    });
    let history = vec![(1, 1, 0, 10), (2, 2, 0, 20)];
    let sys = LinearRoadSystem::new(&history).unwrap();
    for (i, rec) in sim.records().iter().enumerate() {
        sys.feed(std::slice::from_ref(rec)).unwrap();
        if i % 7 == 0 {
            sys.drain();
        }
    }
    sys.drain();
    let report = validate(&sys, sim.records());
    assert!(report.passed(), "{:?}", report.mismatches);
    assert!(!sys.daily_out.is_empty());
}

#[test]
fn scaling_l_scales_output_not_correctness() {
    let r1 = run_linear_road(1, 180, 5);
    let r2 = run_linear_road(2, 180, 5);
    assert!(r2.tolls > r1.tolls);
    assert!(r1.validation.passed() && r2.validation.passed());
}

/// A small generated run with balance queries, and its `history` table.
fn small_run(seed: u64) -> (TrafficSim, Vec<(i64, i64, i64, i64)>) {
    let sim = TrafficSim::generate(TrafficConfig {
        xways: 1,
        cars_per_xway_per_min: 10,
        duration_s: 240,
        accidents_per_xway: 1,
        balance_query_permille: 250,
        daily_query_permille: 10,
        seed,
    });
    let history = (1..30).map(|v| (v, 1 + v % 5, 0, v * 7 % 40)).collect();
    (sim, history)
}

/// The first `width` integer columns of `chunks`, row by row.
fn int_rows<'a>(chunks: impl IntoIterator<Item = &'a Chunk>, width: usize) -> Vec<Vec<i64>> {
    let mut rows = Vec::new();
    for chunk in chunks {
        for i in 0..chunk.len() {
            let row = (0..width)
                .map(|c| chunk.columns[c].as_ints().unwrap()[i])
                .collect();
            rows.push(row);
        }
    }
    rows
}

#[test]
fn lr_core_full_block_output_lets_drop_query_return() {
    let (sim, history) = small_run(3);
    let (first, rest) = sim.records().split_at(sim.records().len() / 2);
    let sys = Arc::new(LinearRoadSystem::new(&history).unwrap());
    sys.toll_out.set_capacity(Some(1), OverflowPolicy::Block);
    sys.cell.start();
    // The first firing finds `toll_out` empty, which takes its tolls whole
    // and is then full: the core stays disabled however much arrives.
    sys.feed(first).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while sys.toll_out.is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let tolls = sys.toll_out.len();
    assert!(tolls > 0, "the first firing delivered");
    sys.feed(rest).unwrap();
    let (done, dropped) = mpsc::channel();
    let dropping = Arc::clone(&sys);
    std::thread::spawn(move || {
        let _ = done.send(dropping.cell.drop_query("lr_core"));
    });
    let result = dropped
        .recv_timeout(Duration::from_secs(10))
        .expect("drop_query waited on the full output");
    result.unwrap();
    assert_eq!(sys.toll_out.len(), tolls, "nothing more was delivered");
    sys.cell.stop();
}

#[test]
fn lr_core_full_reject_output_applies_each_record_once() {
    let (sim, history) = small_run(5);
    let free = LinearRoadSystem::new(&history).unwrap();
    free.feed(sim.records()).unwrap();
    free.drain();
    let want_tolls = int_rows([&free.toll_out.snapshot()], 4);
    let want_balances = int_rows([&free.bal_out.snapshot()], 4);
    assert!(want_tolls.len() > 50 && want_balances.len() > 5);

    // Both outputs refuse what does not fit. Between passes, records
    // arrive eight at a time, a reader takes every toll and one balance.
    let sys = LinearRoadSystem::new(&history).unwrap();
    sys.toll_out.set_capacity(Some(1), OverflowPolicy::Reject);
    sys.bal_out.set_capacity(Some(2), OverflowPolicy::Reject);
    let outputs: [&Arc<Basket>; 2] = [&sys.toll_out, &sys.bal_out];
    let readers = outputs.map(|b| ReaderLease::register(Arc::clone(b), true));
    let mut got: [Vec<Chunk>; 2] = Default::default();
    let mut batches = sim.records().chunks(8);
    for pass in 0.. {
        assert!(pass < 100_000, "the pipeline does not settle");
        let fed = batches.next().map(|b| sys.feed(b).unwrap()).is_some();
        let fired = sys.cell.run_until_quiescent(1);
        let mut drained = 0;
        for ((reader, got), take) in readers.iter().zip(&mut got).zip([usize::MAX, 1]) {
            let (rows, claim) = reader.claim(take);
            drained += rows.len();
            got.push(Arc::unwrap_or_clone(rows));
            claim.commit();
        }
        if !fed && fired == 0 && drained == 0 {
            break;
        }
    }
    assert!(sys.input.is_empty(), "every record was applied");
    assert_eq!(int_rows(&got[0], 4), want_tolls);
    assert_eq!(int_rows(&got[1], 4), want_balances);
    let metrics = sys.cell.metrics();
    assert_eq!(metrics.factory_errors, 0);
    // A firing claims no more records than its outputs have room for, so
    // no result had to be held.
    assert_eq!(metrics.factory_deferrals, 0, "a firing claimed too much");
}
