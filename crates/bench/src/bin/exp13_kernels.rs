//! `fig:exp13_kernels` — data-parallel kernel throughput against the
//! row-at-a-time scalar reference paths they replaced.
//!
//! Each kernel runs twice over the same data: the vectorized slice loop
//! shipped in `datacell-bat`, and an in-binary scalar comparator that boxes
//! one [`Value`] per row (the pre-vectorization implementation shape, and
//! the same oracle the differential proptest tier checks against). The
//! table reports GB/s of tail data scanned, input Mtuples/s and the speedup
//! of the vectorized loop; results are cross-checked for agreement before
//! timing (a mismatch aborts the run, which is what CI's smoke run checks).
//!
//! Usage: `exp13_kernels [rows]` (default 1,000,000).
//!
//! Emits one machine-readable summary line at the end
//! (`BENCH_kernels.json: {...}`).

use std::hint::black_box;
use std::time::Instant;

use datacell_bat::aggregate::{scalar_agg, Accumulator, AggFunc};
use datacell_bat::calc::{arith, ArithOp, Operand};
use datacell_bat::group::group_by;
use datacell_bat::join::hash_join;
use datacell_bat::select::{select_range, theta_select, CmpOp};
use datacell_bat::types::Value;
use datacell_bat::{Bat, Column};
use datacell_bench::{banner, TablePrinter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ints(n: usize, domain: i64, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
}

/// Mean ns per call: one warm-up, then enough iterations for ~200ms.
fn time(mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    let per = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.2 / per) as u64).clamp(3, 2_000);
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

struct Row {
    name: &'static str,
    bytes: u64,
    /// Input rows per iteration (for the Mtuples/s column).
    tuples: u64,
    vec_ns: f64,
    scalar_ns: f64,
}

/// Row-at-a-time `group_by`: one boxed [`Value`] per row into a std
/// `HashMap` keyed by `(refined group, key)` — the implementation shape the
/// typed kernel replaced. Returns `(ids, representatives)`.
fn scalar_group<K: std::hash::Hash + Eq>(
    bat: &Bat,
    prev: Option<&[usize]>,
    key: impl Fn(Value) -> K,
) -> (Vec<usize>, Vec<usize>) {
    let mut map: std::collections::HashMap<(usize, K), usize> = std::collections::HashMap::new();
    let mut reps = Vec::new();
    let ids = (0..bat.len())
        .map(|p| {
            let k = (prev.map_or(0, |g| g[p]), key(bat.get(p).unwrap()));
            let next = map.len();
            *map.entry(k).or_insert_with(|| {
                reps.push(p);
                next
            })
        })
        .collect();
    (ids, reps)
}

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    banner(
        "fig:exp13_kernels",
        "vectorized select/calc/aggregate/join kernels vs the row-at-a-time \
         scalar reference (one boxed Value per row)",
        "branchless slice loops over sentinel-encoded columns; count-then-fill \
         position emission; hoisted type dispatch",
    );

    let iv = ints(rows, 1000, 1);
    let ib = Bat::from_ints(iv.clone());
    let fv: Vec<f64> = iv.iter().map(|&v| v as f64).collect();
    let fb = Bat::from_floats(fv.clone());
    let ca = Column::from_ints(ints(rows, 1000, 2));
    let cb = Column::from_ints(ints(rows, 999, 3).iter().map(|v| v + 1).collect());
    let jl = Bat::from_ints(ints(rows / 5, 50_000, 4));
    let jr = Bat::from_ints(ints(10_000, 50_000, 5));

    let mut results: Vec<Row> = Vec::new();

    // --- int range select, ~50% selectivity, dense candidates ----------
    let (lo, hi) = (Value::Int(0), Value::Int(499));
    let vec_sel = || {
        select_range(&ib, Some(&lo), Some(&hi), true, true, false, None)
            .unwrap()
            .len()
    };
    let scalar_sel = || {
        let mut out = Vec::new();
        for p in 0..ib.len() {
            match ib.get(p).unwrap() {
                Value::Int(v) if (0..=499).contains(&v) => out.push(p),
                _ => {}
            }
        }
        out.len()
    };
    assert_eq!(vec_sel(), scalar_sel());
    results.push(Row {
        name: "select/range_i64_50%",
        bytes: 8 * rows as u64,
        tuples: rows as u64,
        vec_ns: time(|| {
            black_box(vec_sel());
        }),
        scalar_ns: time(|| {
            black_box(scalar_sel());
        }),
    });

    // --- float range select, ~50% selectivity --------------------------
    let (flo, fhi) = (Value::Float(0.0), Value::Float(499.0));
    let vec_fsel = || {
        select_range(&fb, Some(&flo), Some(&fhi), true, true, false, None)
            .unwrap()
            .len()
    };
    let scalar_fsel = || {
        let mut out = Vec::new();
        for p in 0..fb.len() {
            match fb.get(p).unwrap() {
                Value::Float(v) if (0.0..=499.0).contains(&v) => out.push(p),
                _ => {}
            }
        }
        out.len()
    };
    assert_eq!(vec_fsel(), scalar_fsel());
    results.push(Row {
        name: "select/range_f64_50%",
        bytes: 8 * rows as u64,
        tuples: rows as u64,
        vec_ns: time(|| {
            black_box(vec_fsel());
        }),
        scalar_ns: time(|| {
            black_box(scalar_fsel());
        }),
    });

    // --- int theta select (point predicate) ----------------------------
    let pivot = Value::Int(500);
    let vec_theta = || theta_select(&ib, CmpOp::Eq, &pivot, None).unwrap().len();
    let scalar_theta = || {
        let mut out = Vec::new();
        for p in 0..ib.len() {
            if ib.get(p).unwrap() == pivot {
                out.push(p);
            }
        }
        out.len()
    };
    assert_eq!(vec_theta(), scalar_theta());
    results.push(Row {
        name: "select/theta_eq_i64",
        bytes: 8 * rows as u64,
        tuples: rows as u64,
        vec_ns: time(|| {
            black_box(vec_theta());
        }),
        scalar_ns: time(|| {
            black_box(scalar_theta());
        }),
    });

    // --- scalar aggregates ---------------------------------------------
    for (bat, name) in [(&ib, "aggregate/sum_i64"), (&fb, "aggregate/sum_f64")] {
        let vec_sum = || scalar_agg(AggFunc::Sum, bat, None).unwrap();
        let scalar_sum = || {
            let mut acc = Accumulator::new();
            for p in 0..bat.len() {
                acc.update(&bat.get(p).unwrap());
            }
            acc.finish(AggFunc::Sum, bat.data_type()).unwrap()
        };
        assert_eq!(vec_sum(), scalar_sum());
        results.push(Row {
            name,
            bytes: 8 * rows as u64,
            tuples: rows as u64,
            vec_ns: time(|| {
                black_box(vec_sum());
            }),
            scalar_ns: time(|| {
                black_box(scalar_sum());
            }),
        });
    }

    // --- calc: col + col addition --------------------------------------
    let vec_add = || arith(ArithOp::Add, Operand::Col(&ca), Operand::Col(&cb)).unwrap();
    let scalar_add = || {
        let mut out = Vec::with_capacity(ca.len());
        for p in 0..ca.len() {
            let (x, y) = (ca.get(p).unwrap(), cb.get(p).unwrap());
            match (x.as_int(), y.as_int()) {
                (Some(x), Some(y)) => out.push(Value::Int(x + y)),
                _ => out.push(Value::Nil),
            }
        }
        out.len()
    };
    results.push(Row {
        name: "calc/add_i64_col_col",
        bytes: 16 * rows as u64,
        tuples: rows as u64,
        vec_ns: time(|| {
            black_box(vec_add());
        }),
        scalar_ns: time(|| {
            black_box(scalar_add());
        }),
    });

    // --- hash join (batch probe vs per-row boxed keys) ------------------
    let vec_join = || hash_join(&jl, &jr, None, None).unwrap().0.len();
    let scalar_join = || {
        let mut table: std::collections::HashMap<i64, Vec<usize>> =
            std::collections::HashMap::new();
        for p in 0..jr.len() {
            if let Some(k) = jr.get(p).unwrap().as_int() {
                table.entry(k).or_default().push(p);
            }
        }
        let (mut lout, mut rout) = (Vec::new(), Vec::new());
        for p in 0..jl.len() {
            if let Some(m) = jl.get(p).unwrap().as_int().and_then(|k| table.get(&k)) {
                for &q in m {
                    lout.push(p);
                    rout.push(q);
                }
            }
        }
        black_box(rout);
        lout.len()
    };
    assert_eq!(vec_join(), scalar_join());
    results.push(Row {
        name: "join/hash_i64",
        bytes: 8 * (rows / 5 + 10_000) as u64,
        tuples: (rows / 5 + 10_000) as u64,
        vec_ns: time(|| {
            black_box(vec_join());
        }),
        scalar_ns: time(|| {
            black_box(scalar_join());
        }),
    });

    // --- string hash join (dictionary-once translation vs per-row String) --
    let pool: Vec<String> = (0..2000).map(|i| format!("name{i:04}")).collect();
    let lidx = ints(rows / 50, 2000, 6);
    let ridx = ints(2_000, 2000, 7);
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
    let vec_sjoin = || hash_join(&ls, &rs, None, None).unwrap().0.len();
    let scalar_sjoin = || {
        let mut table: std::collections::HashMap<String, Vec<usize>> =
            std::collections::HashMap::new();
        for p in 0..rs.len() {
            if let Value::Str(s) = rs.get(p).unwrap() {
                table.entry(s).or_default().push(p);
            }
        }
        let (mut lout, mut rout) = (Vec::new(), Vec::new());
        for p in 0..ls.len() {
            if let Value::Str(s) = ls.get(p).unwrap() {
                if let Some(m) = table.get(&s) {
                    for &q in m {
                        lout.push(p);
                        rout.push(q);
                    }
                }
            }
        }
        black_box(rout);
        lout.len()
    };
    assert_eq!(vec_sjoin(), scalar_sjoin());
    results.push(Row {
        name: "join/hash_str",
        bytes: 4 * (rows / 50 + 2_000) as u64,
        tuples: (rows / 50 + 2_000) as u64,
        vec_ns: time(|| {
            black_box(vec_sjoin());
        }),
        scalar_ns: time(|| {
            black_box(scalar_sjoin());
        }),
    });

    // --- group_by: direct-addressed, hashed, dictionary codes, refinement --
    let int_key = |v: Value| v.as_int();
    let str_key = |v: Value| v.as_str().map(str::to_string);
    let dense_keys = Bat::from_ints(ints(rows, 256, 8));
    let sparse_keys = Bat::from_ints(ints(rows, 256, 9).iter().map(|k| k * 1_000_003).collect());
    let sidx = ints(rows, 2000, 10);
    let str_keys = Bat::from_strs(
        &sidx
            .iter()
            .map(|&i| pool[i as usize].as_str())
            .collect::<Vec<_>>(),
    );
    for (name, bat, width) in [
        ("group/i64_dense_256", &dense_keys, 8),
        ("group/i64_sparse_256", &sparse_keys, 8),
    ] {
        let g = group_by(bat, None, None).unwrap();
        assert_eq!((g.ids, g.representatives), scalar_group(bat, None, int_key));
        results.push(Row {
            name,
            bytes: width * rows as u64,
            tuples: rows as u64,
            vec_ns: time(|| {
                black_box(group_by(bat, None, None).unwrap());
            }),
            scalar_ns: time(|| {
                black_box(scalar_group(bat, None, int_key));
            }),
        });
    }
    let g = group_by(&str_keys, None, None).unwrap();
    assert_eq!(
        (g.ids, g.representatives),
        scalar_group(&str_keys, None, str_key)
    );
    results.push(Row {
        name: "group/str_dict_2000",
        bytes: 4 * rows as u64,
        tuples: rows as u64,
        vec_ns: time(|| {
            black_box(group_by(&str_keys, None, None).unwrap());
        }),
        scalar_ns: time(|| {
            black_box(scalar_group(&str_keys, None, str_key));
        }),
    });
    // Two-column grouping: 256 keys refined by 16.
    let second = Bat::from_ints(ints(rows, 16, 11));
    let first = group_by(&dense_keys, None, None).unwrap();
    let refined = group_by(&second, Some(&first), None).unwrap();
    assert_eq!(
        (refined.ids, refined.representatives),
        scalar_group(&second, Some(&first.ids), int_key)
    );
    results.push(Row {
        name: "group/refine_256x16",
        bytes: 16 * rows as u64,
        tuples: rows as u64,
        vec_ns: time(|| {
            let first = group_by(&dense_keys, None, None).unwrap();
            black_box(group_by(&second, Some(&first), None).unwrap());
        }),
        scalar_ns: time(|| {
            let (first, _) = scalar_group(&dense_keys, None, int_key);
            black_box(scalar_group(&second, Some(&first), int_key));
        }),
    });

    let table = TablePrinter::new(&[
        "kernel",
        "ns/iter",
        "GB/s",
        "Mtuples/s",
        "scalar ns/iter",
        "speedup",
    ]);
    let mut json = Vec::new();
    for r in &results {
        let gbps = r.bytes as f64 / r.vec_ns;
        let mtuples = r.tuples as f64 * 1e3 / r.vec_ns;
        let speedup = r.scalar_ns / r.vec_ns;
        table.row(&[
            r.name.to_string(),
            format!("{:.0}", r.vec_ns),
            format!("{gbps:.2}"),
            format!("{mtuples:.1}"),
            format!("{:.0}", r.scalar_ns),
            format!("{speedup:.1}x"),
        ]);
        json.push(format!(
            "{{\"name\":\"{}\",\"ns_per_iter\":{:.0},\"gbps\":{gbps:.3},\
             \"mtuples_s\":{mtuples:.2},\"scalar_ns_per_iter\":{:.0},\"speedup\":{speedup:.2}}}",
            r.name, r.vec_ns, r.scalar_ns
        ));
    }
    println!();
    println!(
        "BENCH_kernels.json: {{\"experiment\":\"exp13_kernels\",\"rows\":{rows},\
         \"results\":[{}]}}",
        json.join(",")
    );
}
