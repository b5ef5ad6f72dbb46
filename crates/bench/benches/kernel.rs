//! Criterion micro-benchmarks for the column-store kernel — the statistical
//! backing for the experiment binaries' kernel-level claims (DESIGN.md §6).
//!
//! Two tiers:
//! - the original `kernel/*` groups keep their historical names so runs stay
//!   comparable release-to-release (element throughput);
//! - the `matrix/*` groups sweep type × operator × selectivity × candidate
//!   shape and report GB/s of tail data scanned — `matrix/group`, key
//!   cardinality × candidate shape, rows per second (see docs/kernels.md for
//!   how to read them).
//!
//! `cargo bench --bench kernel -- --test` runs every closure exactly once
//! (no timing windows) as a CI smoke test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datacell_bat::aggregate::{grouped_agg, scalar_agg, AggFunc};
use datacell_bat::calc::{arith, compare, true_candidates, ArithOp, Operand};
use datacell_bat::candidates::Candidates;
use datacell_bat::group::group_by;
use datacell_bat::join::{hash_join, semi_join};
use datacell_bat::select::{select_range, theta_select, CmpOp};
use datacell_bat::sort::{order, SortOrder};
use datacell_bat::types::Value;
use datacell_bat::{Bat, Column};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 100_000;

fn ints(n: usize, domain: i64, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
}

fn floats(n: usize, domain: i64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain) as f64).collect()
}

/// Every other row: a position-list candidate shape covering 50% of rows.
fn every_other(n: usize) -> Candidates {
    Candidates::from_sorted_unchecked((0..n).step_by(2).collect())
}

// --- historical groups (names stable since PR 3) -----------------------

fn bench_select(c: &mut Criterion) {
    let bat = Bat::from_ints(ints(N, 1000, 1));
    let mut g = c.benchmark_group("kernel/select");
    g.throughput(Throughput::Elements(N as u64));
    for selectivity in [1i64, 10, 50] {
        let hi = selectivity * 10 - 1;
        g.bench_with_input(
            BenchmarkId::new("range", format!("{selectivity}%")),
            &hi,
            |b, &hi| {
                b.iter(|| {
                    select_range(
                        &bat,
                        Some(&Value::Int(0)),
                        Some(&Value::Int(hi)),
                        true,
                        true,
                        false,
                        None,
                    )
                    .unwrap()
                })
            },
        );
    }
    g.bench_function("theta_eq", |b| {
        b.iter(|| theta_select(&bat, CmpOp::Eq, &Value::Int(500), None).unwrap())
    });
    g.finish();
}

/// `n` keys over `0..domain`, `hot_pct` % of them the hot key 0.
fn skewed_ints(n: usize, domain: i64, hot_pct: u32, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if hot_pct > 0 && rng.gen_range(0..100) < hot_pct {
                0
            } else {
                rng.gen_range(0..domain)
            }
        })
        .collect()
}

fn bench_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/join");
    let cases = [
        (10_000usize, 10_000usize, 50_000i64, 0u32),
        (100_000, 10_000, 50_000, 0),
        // One pairing of a `[rows 128]` window join: 1 024 keys, 10 % on
        // one hot key (the `window_join` benchmark workload's shape).
        (128, 128, 1_024, 10),
        (65_536, 65_536, 65_536, 0),
    ];
    for (ln, rn, domain, hot_pct) in cases {
        let l = Bat::from_ints(skewed_ints(ln, domain, hot_pct, 2));
        let r = Bat::from_ints(skewed_ints(rn, domain, hot_pct, 3));
        let name = if hot_pct > 0 {
            format!("{ln}x{rn}/hot{hot_pct}%")
        } else {
            format!("{ln}x{rn}")
        };
        g.throughput(Throughput::Elements((ln + rn) as u64));
        g.bench_with_input(BenchmarkId::new("hash", name), &(), |b, ()| {
            b.iter(|| hash_join(&l, &r, None, None).unwrap())
        });
    }
    g.finish();
}

fn bench_group_agg(c: &mut Criterion) {
    let keys = Bat::from_ints(ints(N, 100, 4));
    let vals = Bat::from_ints(ints(N, 1000, 5));
    let mut g = c.benchmark_group("kernel/aggregate");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("group_by_100_groups", |b| {
        b.iter(|| group_by(&keys, None, None).unwrap())
    });
    let grouping = group_by(&keys, None, None).unwrap();
    g.bench_function("grouped_sum", |b| {
        b.iter(|| grouped_agg(AggFunc::Sum, &vals, &grouping).unwrap())
    });
    g.bench_function("scalar_sum", |b| {
        b.iter(|| scalar_agg(AggFunc::Sum, &vals, None).unwrap())
    });
    g.finish();
}

fn bench_sort(c: &mut Criterion) {
    let bat = Bat::from_ints(ints(N, 1_000_000, 6));
    let mut g = c.benchmark_group("kernel/sort");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(20);
    g.bench_function("order_permutation", |b| {
        b.iter(|| order(&bat, SortOrder::Asc, None).unwrap())
    });
    g.finish();
}

// --- GB/s matrix: type × op × selectivity × candidate shape ------------

fn bench_matrix_select(c: &mut Criterion) {
    let ib = Bat::from_ints(ints(N, 1000, 11));
    let fb = Bat::from_floats(floats(N, 1000, 12));
    let half = every_other(N);
    let mut g = c.benchmark_group("matrix/select");
    g.throughput(Throughput::Bytes(8 * N as u64));
    for selectivity in [1i64, 10, 50, 90, 100] {
        let hi = selectivity * 10 - 1;
        for (cand, shape) in [(None, "dense"), (Some(&half), "pos50")] {
            g.bench_with_input(
                BenchmarkId::new("i64/range", format!("{selectivity}%/{shape}")),
                &hi,
                |b, &hi| {
                    b.iter(|| {
                        select_range(
                            &ib,
                            Some(&Value::Int(0)),
                            Some(&Value::Int(hi)),
                            true,
                            true,
                            false,
                            cand,
                        )
                        .unwrap()
                    })
                },
            );
            g.bench_with_input(
                BenchmarkId::new("f64/range", format!("{selectivity}%/{shape}")),
                &hi,
                |b, &hi| {
                    b.iter(|| {
                        select_range(
                            &fb,
                            Some(&Value::Float(0.0)),
                            Some(&Value::Float(hi as f64)),
                            true,
                            true,
                            false,
                            cand,
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
    for op in [CmpOp::Eq, CmpOp::Lt] {
        g.bench_function(format!("i64/theta_{op:?}"), |b| {
            b.iter(|| theta_select(&ib, op, &Value::Int(500), None).unwrap())
        });
        g.bench_function(format!("f64/theta_{op:?}"), |b| {
            b.iter(|| theta_select(&fb, op, &Value::Float(500.0), None).unwrap())
        });
    }
    g.finish();

    // String selects scan u32 codes after one dictionary qualification pass.
    let pool: Vec<String> = (0..1000).map(|i| format!("key{i:04}")).collect();
    let idx = ints(N, 1000, 13);
    let sb = Bat::from_strs(
        &idx.iter()
            .map(|&i| pool[i as usize].as_str())
            .collect::<Vec<_>>(),
    );
    let mut g = c.benchmark_group("matrix/select_str");
    g.throughput(Throughput::Bytes(4 * N as u64));
    g.bench_function("str/range_50%", |b| {
        b.iter(|| {
            select_range(
                &sb,
                Some(&Value::Str("key0000".into())),
                Some(&Value::Str("key0499".into())),
                true,
                true,
                false,
                None,
            )
            .unwrap()
        })
    });
    g.bench_function("str/theta_Eq", |b| {
        b.iter(|| theta_select(&sb, CmpOp::Eq, &Value::Str("key0500".into()), None).unwrap())
    });
    g.finish();
}

fn bench_matrix_calc(c: &mut Criterion) {
    let ia = Column::from_ints(ints(N, 1000, 21));
    let ib = Column::from_ints(ints(N, 999, 22).iter().map(|v| v + 1).collect());
    let fa = Column::from_floats(floats(N, 1000, 23));
    let fb = Column::from_floats(floats(N, 999, 24).iter().map(|v| v + 1.0).collect());
    let k = Value::Int(7);
    let mut g = c.benchmark_group("matrix/calc");
    // Two input columns scanned per iteration.
    g.throughput(Throughput::Bytes(16 * N as u64));
    g.bench_function("i64/add_col_col", |b| {
        b.iter(|| arith(ArithOp::Add, Operand::Col(&ia), Operand::Col(&ib)).unwrap())
    });
    g.bench_function("i64/div_col_col", |b| {
        b.iter(|| arith(ArithOp::Div, Operand::Col(&ia), Operand::Col(&ib)).unwrap())
    });
    g.bench_function("f64/mul_col_col", |b| {
        b.iter(|| arith(ArithOp::Mul, Operand::Col(&fa), Operand::Col(&fb)).unwrap())
    });
    g.bench_function("i64/compare_lt_col_col", |b| {
        b.iter(|| compare(CmpOp::Lt, Operand::Col(&ia), Operand::Col(&ib)).unwrap())
    });
    g.finish();

    let mut g = c.benchmark_group("matrix/calc_scalar");
    g.throughput(Throughput::Bytes(8 * N as u64));
    g.bench_function("i64/add_col_const", |b| {
        b.iter(|| arith(ArithOp::Add, Operand::Col(&ia), Operand::Scalar(&k)).unwrap())
    });
    let mask = compare(
        CmpOp::Lt,
        Operand::Col(&ia),
        Operand::Scalar(&Value::Int(500)),
    )
    .unwrap();
    g.throughput(Throughput::Bytes(N as u64));
    g.bench_function("bool/true_candidates_50%", |b| {
        b.iter(|| true_candidates(&mask).unwrap())
    });
    g.finish();
}

fn bench_matrix_aggregate(c: &mut Criterion) {
    let iv = Bat::from_ints(ints(N, 1000, 31));
    let fv = Bat::from_floats(floats(N, 1000, 32));
    let half = every_other(N);
    let mut g = c.benchmark_group("matrix/aggregate");
    g.throughput(Throughput::Bytes(8 * N as u64));
    for (func, name) in [
        (AggFunc::Sum, "sum"),
        (AggFunc::Min, "min"),
        (AggFunc::Avg, "avg"),
        (AggFunc::Count { star: false }, "count"),
    ] {
        g.bench_function(format!("i64/{name}/dense"), |b| {
            b.iter(|| scalar_agg(func, &iv, None).unwrap())
        });
        g.bench_function(format!("f64/{name}/dense"), |b| {
            b.iter(|| scalar_agg(func, &fv, None).unwrap())
        });
    }
    g.bench_function("i64/sum/pos50", |b| {
        b.iter(|| scalar_agg(AggFunc::Sum, &iv, Some(&half)).unwrap())
    });
    g.finish();
}

/// Key cardinality × candidate shape. Cardinality decides the table
/// (`dense` domains are direct-addressed, `sparse` ones — the same number of
/// distinct keys spread over a wide range — hash), the shape decides
/// whether keys are read as a slice or gathered.
fn bench_matrix_group(c: &mut Criterion) {
    let half = every_other(N);
    let mut g = c.benchmark_group("matrix/group");
    g.throughput(Throughput::Elements(N as u64));
    for groups in [16i64, 256, 4096, 65_536] {
        let dense = Bat::from_ints(ints(N, groups, 51));
        let sparse = Bat::from_ints(ints(N, groups, 52).iter().map(|k| k * 1_000_003).collect());
        for (keys, domain) in [(&dense, "dense"), (&sparse, "sparse")] {
            for (cand, shape) in [(None, "all"), (Some(&half), "pos50")] {
                g.bench_function(format!("i64/{groups}/{domain}/{shape}"), |b| {
                    b.iter(|| group_by(keys, None, cand).unwrap())
                });
            }
        }
    }
    let first = Bat::from_ints(ints(N, 256, 53));
    let second = Bat::from_ints(ints(N, 16, 54));
    let grouping = group_by(&first, None, None).unwrap();
    g.bench_function("i64/256x16/refine", |b| {
        b.iter(|| group_by(&second, Some(&grouping), None).unwrap())
    });
    let pool: Vec<String> = (0..1000).map(|i| format!("key{i:04}")).collect();
    let idx = ints(N, 1000, 55);
    let strs = Bat::from_strs(
        &idx.iter()
            .map(|&i| pool[i as usize].as_str())
            .collect::<Vec<_>>(),
    );
    g.bench_function("str/1000/all", |b| {
        b.iter(|| group_by(&strs, None, None).unwrap())
    });
    let floats = Bat::from_floats(floats(N, 256, 56));
    g.bench_function("f64/256/all", |b| {
        b.iter(|| group_by(&floats, None, None).unwrap())
    });
    g.finish();
}

fn bench_matrix_join(c: &mut Criterion) {
    let l = Bat::from_ints(ints(N, 50_000, 41));
    let r = Bat::from_ints(ints(10_000, 50_000, 42));
    let mut g = c.benchmark_group("matrix/join");
    g.throughput(Throughput::Bytes(8 * (N + 10_000) as u64));
    g.bench_function("i64/semi", |b| b.iter(|| semi_join(&l, &r, None).unwrap()));
    g.finish();

    let pool: Vec<String> = (0..2000).map(|i| format!("name{i:04}")).collect();
    let lidx = ints(20_000, 2000, 43);
    let ridx = ints(2_000, 2000, 44);
    let ls = Bat::from_strs(
        &lidx
            .iter()
            .map(|&i| pool[i as usize].as_str())
            .collect::<Vec<_>>(),
    );
    let rs = Bat::from_strs(
        &ridx
            .iter()
            .map(|&i| pool[i as usize].as_str())
            .collect::<Vec<_>>(),
    );
    let mut g = c.benchmark_group("matrix/join_str");
    g.throughput(Throughput::Bytes(4 * 22_000u64));
    g.bench_function("str/hash_20000x2000", |b| {
        b.iter(|| hash_join(&ls, &rs, None, None).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_select,
    bench_join,
    bench_group_agg,
    bench_sort,
    bench_matrix_select,
    bench_matrix_calc,
    bench_matrix_aggregate,
    bench_matrix_group,
    bench_matrix_join
);
criterion_main!(benches);
