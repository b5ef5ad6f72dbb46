//! Criterion micro-benchmarks for the DataCell streaming layer: basket
//! traffic and an empty subscription poll, factory steps at varying batch sizes (the statistical backing
//! for `exp1_batch`), window evaluation (SQL against basic windows), the
//! wire text format in columns against the row-at-a-time adapters, and the
//! WAL's record framing and CRC.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datacell::catalog::StreamCatalog;
use datacell::factory::{Factory, FactoryOutput};
use datacell::scheduler::Transition;
use datacell::text::{parse_tuple, render_chunk_into, render_row, ChunkBuilder};
use datacell::window::BasicWindowAgg;
use datacell::{Chunk, DataCell};
use datacell_baseline::{Query, Selection, TupleEngine};
use datacell_bat::aggregate::AggFunc;
use datacell_bat::column::Column;
use datacell_bat::types::Value;
use datacell_bat::DataType;
use datacell_bench::int_stream;
use datacell_sql::Schema;
use datacell_storage::crc::crc32;
use datacell_storage::testutil::TempDir;
use datacell_storage::wal::{Wal, WAL_FILE};

fn bench_basket(c: &mut Criterion) {
    let mut cat = StreamCatalog::new();
    let basket = cat
        .create_basket("b", Schema::new(vec![("v".into(), DataType::Int)]))
        .unwrap();
    let rows = int_stream(1_000, 1000, 1);
    let reader = basket.register_reader(true);
    let mut g = c.benchmark_group("streaming/basket");
    g.throughput(Throughput::Elements(rows.len() as u64));
    g.bench_function("append_claim_commit_1k", |b| {
        b.iter(|| {
            basket.append_rows(&rows).unwrap();
            let (chunk, start, end) = basket.claim_for_reader(reader, usize::MAX);
            basket.commit_claim(reader, start, end);
            chunk
        })
    });
    g.finish();

    // An empty poll of an in-process subscriber: the claim lends the
    // basket's one empty chunk, so nothing is allocated.
    let cell = DataCell::new();
    cell.execute("create basket e (v int)").unwrap();
    cell.execute("create continuous query eq as select e.v from [select * from e] as e")
        .unwrap();
    let sub = cell.subscribe::<Vec<Value>>("eq").unwrap();
    let mut g = c.benchmark_group("streaming/subscription");
    g.bench_function("empty_try_next", |b| b.iter(|| sub.try_next().unwrap()));
    g.finish();
}

fn bench_factory_batches(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming/factory_step");
    for batch in [1usize, 100, 10_000] {
        let mut cat = StreamCatalog::new();
        let input = cat
            .create_basket("s", Schema::new(vec![("v".into(), DataType::Int)]))
            .unwrap();
        let factory = Factory::compile(
            "q",
            "select s2.v from [select * from s] as s2 where s2.v between 0 and 99",
            &cat,
            FactoryOutput::Discard,
        )
        .unwrap();
        let rows = int_stream(batch, 1000, 2);
        g.throughput(Throughput::Elements(batch as u64));
        g.bench_with_input(BenchmarkId::new("batch", batch), &(), |b, ()| {
            b.iter(|| {
                input.append_rows(&rows).unwrap();
                factory.step(None, usize::MAX).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_baseline_per_tuple(c: &mut Criterion) {
    let mut engine = TupleEngine::new();
    engine.add_query(Query::new(
        "q",
        vec![Box::new(Selection {
            column: 0,
            lo: 0,
            hi: 99,
        })],
    ));
    let tuples: Vec<datacell_baseline::Tuple> = int_stream(1_000, 1000, 3)
        .into_iter()
        .map(|v| datacell_baseline::Tuple::new(v, 0))
        .collect();
    let mut g = c.benchmark_group("streaming/baseline");
    g.throughput(Throughput::Elements(tuples.len() as u64));
    g.bench_function("tuple_at_a_time_1k", |b| {
        b.iter(|| {
            for t in &tuples {
                engine.push(t);
            }
            engine.query_mut(0).drain_results()
        })
    });
    g.finish();
}

fn bench_windows(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming/window");
    let rows = int_stream(10_000, 1000, 4);
    g.throughput(Throughput::Elements(rows.len() as u64));
    g.sample_size(20);
    for (name, size, slide) in [
        ("tumbling_1k", 1_000usize, 1_000usize),
        ("sliding_4k_500", 4_000, 500),
    ] {
        g.bench_with_input(BenchmarkId::new("sql_window", name), &(), |b, ()| {
            let cell = DataCell::new();
            cell.execute("create basket w (v int)").unwrap();
            cell.execute(&format!(
                "create continuous query re as \
                 select sum(w.v) as value from w [rows {size} slide {slide}]"
            ))
            .unwrap();
            let input = cell.basket("w").unwrap();
            let out = cell.query_output("re").unwrap();
            let w = cell.window_join("re").unwrap();
            b.iter(|| {
                input.append_rows(&rows).unwrap();
                while w.ready() {
                    w.step(None, usize::MAX).unwrap();
                }
                out.clear()
            })
        });
        g.bench_with_input(BenchmarkId::new("incremental", name), &(), |b, ()| {
            let mut cat = StreamCatalog::new();
            let input = cat
                .create_basket("w", Schema::new(vec![("v".into(), DataType::Int)]))
                .unwrap();
            let out = cat
                .create_basket("o", Schema::new(vec![("value".into(), DataType::Int)]))
                .unwrap();
            let w = BasicWindowAgg::new(
                "inc",
                Arc::clone(&input),
                "v",
                AggFunc::Sum,
                None,
                size,
                slide,
                Arc::clone(&out),
            )
            .unwrap();
            b.iter(|| {
                input.append_rows(&rows).unwrap();
                w.step(None, usize::MAX).unwrap();
                out.clear()
            })
        });
    }
    g.finish();
}

fn bench_sql_compile(c: &mut Criterion) {
    let mut cat = StreamCatalog::new();
    cat.create_basket(
        "s",
        Schema::new(vec![
            ("k".into(), DataType::Int),
            ("v".into(), DataType::Int),
        ]),
    )
    .unwrap();
    let mut g = c.benchmark_group("streaming/compile");
    g.bench_function("continuous_groupby", |b| {
        b.iter(|| {
            datacell_sql::compile_query(
                "select s2.k, sum(s2.v) as sv from [select * from s where s.v > 10] as s2 \
                 group by s2.k order by sv desc limit 5",
                &cat,
            )
            .unwrap()
        })
    });
    g.finish();
}

/// `k,v,sent_us` int lines like the wire workloads send, filling 64 KiB.
fn wire_lines() -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 << 10);
    let mut i: i64 = 0;
    while buf.len() < (64 << 10) - 40 {
        buf.extend_from_slice(
            format!("{},{},{}\n", i % 1024, (i * 7919) % 1000, 1_700_000_000 + i).as_bytes(),
        );
        i += 1;
    }
    buf
}

/// [`wire_lines`] with 1 line in 16 off the integer fast shape: a padded
/// field, a `nil`, or a 19-digit value (leading zeros, still in range).
fn wire_lines_off_shape() -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 << 10);
    let mut i: i64 = 0;
    while buf.len() < (64 << 10) - 40 {
        let (k, v, sent) = (i % 1024, (i * 7919) % 1000, 1_700_000_000 + i);
        let line = match (i % 16, i / 16 % 3) {
            (15, 0) => format!("{k}, {v} ,{sent}\n"),
            (15, 1) => format!("{k},nil,{sent}\n"),
            (15, _) => format!("{k},{v},{sent:019}\n"),
            _ => format!("{k},{v},{sent}\n"),
        };
        buf.extend_from_slice(line.as_bytes());
        i += 1;
    }
    buf
}

/// `x int, s str` lines filling 64 KiB, three in eight plain: the rest
/// are quoted, non-ASCII, not UTF-8, `NIL`, empty or malformed.
fn mixed_lines() -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 << 10);
    let mut i = 0;
    while buf.len() < (64 << 10) - 80 {
        match i % 8 {
            0 => buf.extend_from_slice(format!("oops{i}, malformed\n").as_bytes()),
            1 => buf.extend_from_slice(format!("{i}, \"quoted, {i} \"\"x\"\"\\n\"\r\n").as_bytes()),
            2 => buf.extend_from_slice(format!("  {i} ,\t é→ {i}  \n").as_bytes()),
            3 => {
                buf.extend_from_slice(format!("{i}, bad").as_bytes());
                buf.extend_from_slice(b"\xff\xc3 utf8\n");
            }
            4 => buf.extend_from_slice(format!("{i}, NIL\n").as_bytes()),
            5 => buf.extend_from_slice(format!("{i},\n").as_bytes()),
            _ => {
                buf.extend_from_slice(format!("{i}, plain-{i:06}-{}\n", "p".repeat(32)).as_bytes())
            }
        }
        i += 1;
    }
    buf
}

fn bench_text(c: &mut Criterion) {
    let schema = Schema::new(vec![
        ("k".into(), DataType::Int),
        ("v".into(), DataType::Int),
        ("sent_us".into(), DataType::Int),
    ]);
    let buf = wire_lines();
    let lines: Vec<&[u8]> = buf
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    let mut g = c.benchmark_group("streaming/text");
    g.throughput(Throughput::Elements(lines.len() as u64));
    g.bench_function("decode_64k_into_chunk", |b| {
        b.iter(|| {
            let mut builder = ChunkBuilder::new(schema.clone());
            for line in &lines {
                builder.decode_line(line).unwrap();
            }
            builder
        })
    });
    g.bench_function("decode_64k_read_at_a_time", |b| {
        b.iter(|| {
            // One call per 64 KiB, as the receptor decodes a socket read.
            let mut builder = ChunkBuilder::new(schema.clone());
            let decoded = builder.decode_lines(&buf, usize::MAX);
            assert_eq!(decoded, (buf.len(), lines.len()));
            builder
        })
    });
    g.bench_function("decode_64k_parse_tuple_per_line", |b| {
        b.iter(|| {
            lines
                .iter()
                .map(|l| parse_tuple(std::str::from_utf8(l).unwrap(), &schema).unwrap())
                .collect::<Vec<_>>()
        })
    });

    // The receptor's read when some fields leave the integer fast shape:
    // each such field takes the exact rule, the rest of its line does not.
    let off_shape = wire_lines_off_shape();
    let off_rows = off_shape.iter().filter(|&&b| b == b'\n').count();
    g.throughput(Throughput::Elements(off_rows as u64));
    g.bench_function("decode_64k_off_shape_read_at_a_time", |b| {
        b.iter(|| {
            let mut builder = ChunkBuilder::new(schema.clone());
            let decoded = builder.decode_lines(&off_shape, usize::MAX);
            assert_eq!(decoded, (off_shape.len(), off_rows));
            builder
        })
    });

    // The in-process writer's path: value rows whose values already have
    // their columns' types.
    let typed: Vec<Vec<Value>> = (0..8192i64)
        .map(|i| {
            vec![
                Value::Int(i % 1024),
                Value::Int((i * 7919) % 1000),
                Value::Int(1_700_000_000 + i),
            ]
        })
        .collect();
    g.throughput(Throughput::Elements(typed.len() as u64));
    g.bench_function("push_row_8192_typed_rows", |b| {
        b.iter(|| {
            let mut builder = ChunkBuilder::new(schema.clone());
            for row in &typed {
                builder.push_row(row).unwrap();
            }
            builder
        })
    });

    // Lines off the one-pass core: strings, quotes, non-ASCII, nil and
    // malformed lines, as in `net_integration`'s mixed ingest script.
    let mixed_schema = Schema::new(vec![
        ("x".into(), DataType::Int),
        ("s".into(), DataType::Str),
    ]);
    let mixed = mixed_lines();
    let mixed_lines: Vec<&[u8]> = mixed.split_inclusive(|&b| b == b'\n').collect();
    g.throughput(Throughput::Elements(mixed_lines.len() as u64));
    g.bench_function("decode_64k_mixed_into_chunk", |b| {
        b.iter(|| {
            let mut builder = ChunkBuilder::new(mixed_schema.clone());
            for line in &mixed_lines {
                let _ = builder.decode_line(line.strip_suffix(b"\n").unwrap());
            }
            builder
        })
    });
    g.bench_function("decode_64k_mixed_read_at_a_time", |b| {
        b.iter(|| {
            // The receptor's loop: one pass, and a stopped line on its own.
            let mut builder = ChunkBuilder::new(mixed_schema.clone());
            let mut at = 0;
            while at < mixed.len() {
                at += builder.decode_lines(&mixed[at..], usize::MAX).0;
                if let Some(n) = mixed[at..].iter().position(|&b| b == b'\n') {
                    let _ = builder.decode_line(&mixed[at..at + n]);
                    at += n + 1;
                }
            }
            builder
        })
    });

    let mut builder = ChunkBuilder::new(schema.clone());
    for line in &lines[..1024] {
        builder.decode_line(line).unwrap();
    }
    let chunk = builder.chunk();
    let rows = chunk.rows().unwrap();
    g.throughput(Throughput::Elements(rows.len() as u64));
    g.bench_function("render_1024_row_chunk", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            render_chunk_into(chunk, 3, &mut out);
            out.len()
        })
    });
    g.bench_function("render_1024_rows_render_row", |b| {
        b.iter(|| rows.iter().map(|r| render_row(r)).collect::<Vec<_>>())
    });
    g.finish();
}

/// Log size at which the WAL benchmark truncates its log to one record.
const WAL_KEEP_BYTES: u64 = 64 << 20;

fn bench_wal(c: &mut Criterion) {
    let schema = Schema::new((0..4).map(|i| (format!("c{i}"), DataType::Int)).collect());
    let columns = (0..4)
        .map(|c| Column::from_ints((0..1024).map(|r| r * 4 + c).collect()))
        .collect();
    let chunk = Chunk::new(schema, columns).unwrap();
    let empty = Chunk::empty(chunk.schema.clone());
    let dir = TempDir::new("bench-wal");
    let wal = Wal::open(&dir.path().join(WAL_FILE)).unwrap();
    let mut g = c.benchmark_group("streaming/wal");
    g.throughput(Throughput::Elements(chunk.len() as u64));
    g.bench_function("append_rows_1024x4_int", |b| {
        b.iter(|| {
            if wal.bytes_written() > WAL_KEEP_BYTES {
                wal.checkpoint(0, 0, 0, &empty).unwrap();
            }
            wal.append_rows(&chunk).unwrap()
        })
    });
    let bytes: Vec<u8> = (0..32u32 << 10).map(|i| (i * 31 % 251) as u8).collect();
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("crc32_32k", |b| b.iter(|| crc32(&bytes)));
    g.finish();
}

criterion_group!(
    benches,
    bench_text,
    bench_wal,
    bench_basket,
    bench_factory_batches,
    bench_baseline_per_tuple,
    bench_windows,
    bench_sql_compile
);
criterion_main!(benches);
