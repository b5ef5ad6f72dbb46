//! `fig:exp15_window_join` — cross-stream windowed join throughput vs
//! window size and key skew.
//!
//! Two streams feed one continuous query with per-source count windows
//! (`FROM s1 [ROWS w], s2 [ROWS w] WHERE s1.k = s2.k`): evaluation k
//! hash-joins window k of each side via the unchanged `bat` join kernel,
//! then evicts behind the joint watermark. The binary first checks through
//! `EXPLAIN` that the query really plans a `HashJoin` and exits non-zero
//! when it does not. The matrix sweeps
//! window size (per-evaluation state and probe cost) against key skew
//! (join fan-out): a hot key makes output quadratic in its window share,
//! so skewed large windows are the stress corner for eviction and
//! delivery. Throughput is ingest-side (input tuples/s across both
//! streams); output rows/s is reported alongside. Emits one
//! machine-readable summary line (`BENCH_window_join.json: {...}`).

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use datacell::{CellResult, DataCell};
use datacell_bat::types::Value;
use datacell_bench::{banner, f, TablePrinter};

/// Key domain for the uniform share of the stream.
const DOMAIN: u64 = 1024;

/// Tuples per append batch.
const FEED_BATCH: usize = 2_000;

struct Outcome {
    wall: f64,
    in_tps: f64,
    out_rows: u64,
    out_rps: f64,
}

/// Deterministic key stream: with probability `hot_pct`% the tuple
/// carries the hot key 0, otherwise a uniform key over `DOMAIN`.
fn keys(total: usize, hot_pct: u64, seed: u64) -> Vec<i64> {
    let mut x = seed | 1;
    (0..total)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 100 < hot_pct {
                0
            } else {
                ((x >> 32) % DOMAIN) as i64
            }
        })
        .collect()
}

/// Reference lockstep count: evaluation k joins window k of each side,
/// so the expected output size is the sum over windows of the per-key
/// count products.
fn expected_matches(k1: &[i64], k2: &[i64], w: usize) -> u64 {
    let evals = k1.len().min(k2.len()) / w;
    let mut total = 0u64;
    for e in 0..evals {
        let mut hist: HashMap<i64, u64> = HashMap::new();
        for &k in &k1[e * w..(e + 1) * w] {
            *hist.entry(k).or_insert(0) += 1;
        }
        for &k in &k2[e * w..(e + 1) * w] {
            total += hist.get(&k).copied().unwrap_or(0);
        }
    }
    total
}

/// The windowed join every cell of the matrix runs.
fn join_sql(window: usize) -> String {
    format!(
        "select s1.k as k, s1.a as a, s2.b as b \
         from s1 [rows {window}], s2 [rows {window}] \
         where s1.k = s2.k"
    )
}

fn cell_with_baskets(auto_start: bool) -> DataCell {
    let cell = DataCell::builder().auto_start(auto_start).build();
    cell.execute("create basket s1 (k int, a int)").unwrap();
    cell.execute("create basket s2 (k int, b int)").unwrap();
    cell
}

/// The plan the join query compiles to.
fn explain(window: usize) -> String {
    match cell_with_baskets(false)
        .execute(&format!("explain {}", join_sql(window)))
        .unwrap()
    {
        CellResult::Plan(plan) => plan,
        other => panic!("EXPLAIN returned {other:?}"),
    }
}

fn run(k1: &[i64], k2: &[i64], window: usize) -> Outcome {
    let cell = cell_with_baskets(true);
    cell.execute(&format!(
        "create continuous query j as {}",
        join_sql(window)
    ))
    .unwrap();
    let expected = expected_matches(k1, k2, window);
    let rows = |ks: &[i64]| -> Vec<Vec<Value>> {
        ks.iter()
            .enumerate()
            .map(|(i, &k)| vec![Value::Int(k), Value::Int(i as i64)])
            .collect()
    };
    let (r1, r2) = (rows(k1), rows(k2));
    let (b1, b2) = (cell.basket("s1").unwrap(), cell.basket("s2").unwrap());

    let started = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for chunk in r1.chunks(FEED_BATCH) {
                b1.append_rows(chunk).unwrap();
            }
        });
        scope.spawn(|| {
            for chunk in r2.chunks(FEED_BATCH) {
                b2.append_rows(chunk).unwrap();
            }
        });
    });
    let deadline = Instant::now() + Duration::from_secs(120);
    let out = cell.query_output("j").unwrap();
    while (out.len() as u64) < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let wall = started.elapsed().as_secs_f64();
    let delivered = out.len() as u64;
    assert_eq!(
        delivered, expected,
        "window {window}: every lockstep pair joined exactly once"
    );
    cell.stop();
    Outcome {
        wall,
        in_tps: (k1.len() + k2.len()) as f64 / wall,
        out_rows: delivered,
        out_rps: delivered as f64 / wall,
    }
}

fn main() -> ExitCode {
    let total: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let plan = explain(128);
    if !plan.contains("HashJoin") {
        eprintln!("exp15: the windowed join does not plan a HashJoin:\n{plan}");
        return ExitCode::FAILURE;
    }
    banner(
        "fig:exp15_window_join",
        &format!(
            "{total} tuples per side through a two-stream windowed hash join; \
             window size x key skew matrix (hot key share 0% / 10%)"
        ),
        "ingest throughput degrades gracefully as windows grow and skew \
         turns the join quadratic; outputs stay exact at every cell",
    );
    let table = TablePrinter::new(&[
        "window",
        "hot key",
        "wall (s)",
        "in tuples/s",
        "out rows",
        "out rows/s",
    ]);
    let mut json_rows = Vec::new();
    for &hot_pct in &[0u64, 10] {
        let k1 = keys(total, hot_pct, 0x9e37_79b9_7f4a_7c15);
        let k2 = keys(total, hot_pct, 0xd1b5_4a32_d192_ed03);
        for &window in &[16usize, 128, 1024] {
            let o = run(&k1, &k2, window);
            table.row(&[
                window.to_string(),
                format!("{hot_pct}%"),
                f(o.wall),
                f(o.in_tps),
                o.out_rows.to_string(),
                f(o.out_rps),
            ]);
            json_rows.push(format!(
                "{{\"window\":{window},\"hot_pct\":{hot_pct},\"wall_s\":{:.3},\
                 \"in_tps\":{:.0},\"out_rows\":{},\"out_rps\":{:.0}}}",
                o.wall, o.in_tps, o.out_rows, o.out_rps
            ));
        }
    }
    println!(
        "BENCH_window_join.json: {{\"experiment\":\"exp15_window_join\",\
         \"rows_per_side\":{total},\"results\":[{}]}}",
        json_rows.join(",")
    );
    ExitCode::SUCCESS
}
