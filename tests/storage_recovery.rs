//! Integration tier for the storage subsystem: spill-to-disk under
//! `OverflowPolicy::Spill`, the segment codec's round-trip and corruption
//! behavior, and the crash-recovery contract of `Durability::Persistent`
//! baskets (`DataCellBuilder::data_dir` + `DataCell::recover`).
//!
//! The recovery contract under test:
//! * a row whose append was acknowledged is **never lost**;
//! * a row an exclusive consumer had fully committed (trimmed) before the
//!   crash is **never re-delivered** after `recover()`;
//! * rows in flight at the crash may be re-delivered (at-least-once);
//! * corrupt or truncated on-disk state fails with a clean
//!   `Storage`-class error (or withholds rows) — never a panic, never
//!   corrupt rows served.
//!
//! Every test uses its own unique temp dir (removed on drop), so
//! `cargo test -q` stays parallel-safe and leaves no artifacts.

use std::sync::Arc;
use std::time::Duration;

use datacell::basket::{Basket, OverflowPolicy};
use datacell::{DataCell, DataCellError, Durability};
use datacell_bat::column::Column;
use datacell_bat::types::{DataType, Value};
use datacell_engine::Chunk;
use datacell_sql::Schema;
use datacell_storage::testutil::TempDir;
use datacell_storage::{codec, segment, SegmentStore, StorageError};
use proptest::prelude::*;

fn int_schema() -> Schema {
    Schema::new(vec![("x".into(), DataType::Int)])
}

/// A standalone spill basket over its own store, with `mem_rows` budget.
fn spill_basket(dir: &TempDir, mem_rows: usize) -> (Arc<Basket>, SegmentStore) {
    let store = SegmentStore::open(dir.path()).unwrap();
    let basket = Arc::new(
        Basket::bounded("b", int_schema(), None, OverflowPolicy::Spill { mem_rows }).unwrap(),
    );
    basket.attach_storage(store.basket("b").unwrap(), None);
    (basket, store)
}

fn push_ints(basket: &Basket, range: std::ops::Range<i64>) {
    let rows: Vec<Vec<Value>> = range.map(|i| vec![Value::Int(i)]).collect();
    basket.append_rows(&rows).unwrap();
}

fn ints_of(chunk: &Chunk) -> Vec<i64> {
    chunk.columns[0].as_ints().unwrap().to_vec()
}

// ---------------------------------------------------------------- spill

#[test]
fn spill_bounds_memory_without_loss_and_reads_back_in_order() {
    let dir = TempDir::new("spill-order");
    let (basket, store) = spill_basket(&dir, 100);
    let reader = basket.register_reader(true);

    push_ints(&basket, 0..1000);
    assert_eq!(basket.len(), 1000, "logical backlog counts disk + memory");
    assert!(
        basket.resident_len() <= 100,
        "memory stays within the budget: {} resident",
        basket.resident_len()
    );
    assert_eq!(basket.spilled_len(), 1000 - basket.resident_len());
    assert_eq!(basket.stats().shed, 0, "spill loses nothing");
    assert!(basket.stats().spilled >= 900);
    assert_eq!(basket.pending_for(reader), 1000);
    let m = store.metrics_snapshot();
    assert!(m.segments_written >= 1);
    assert!(m.bytes_on_disk > 0);

    // Drain through claim/commit exactly as an emitter would: every tuple
    // arrives exactly once, in order, across the disk/memory boundary.
    let mut got = Vec::new();
    while got.len() < 1000 {
        let (chunk, start, end) = basket.claim_for_reader(reader, usize::MAX);
        assert!(
            end > start,
            "claim makes progress (got {} so far)",
            got.len()
        );
        got.extend(ints_of(&chunk));
        basket.commit_claim(reader, start, end);
    }
    assert_eq!(got, (0..1000).collect::<Vec<i64>>());
    assert!(basket.is_empty());
    let m = store.metrics_snapshot();
    assert_eq!(
        m.segments_deleted, m.segments_written,
        "fully-consumed segment files are deleted by the watermark trim"
    );
    assert_eq!(m.bytes_on_disk, 0);
}

#[test]
fn spilled_claims_survive_rewind_and_commit_exactly_once() {
    let dir = TempDir::new("spill-rewind");
    let (basket, _store) = spill_basket(&dir, 50);
    let reader = basket.register_reader(true);
    push_ints(&basket, 0..400);

    // Claim a disk-resident range, fail its delivery, rewind.
    let (chunk, start, end) = basket.claim_for_reader(reader, 30);
    assert_eq!(ints_of(&chunk), (0..30).collect::<Vec<i64>>());
    basket.rewind_claim(reader, start, end);
    assert_eq!(
        basket.pending_for(reader),
        400,
        "rewound range pending again"
    );

    let mut got = Vec::new();
    loop {
        let (chunk, start, end) = basket.claim_for_reader(reader, 77);
        if end == start {
            break;
        }
        got.extend(ints_of(&chunk));
        basket.commit_claim(reader, start, end);
    }
    assert_eq!(
        got,
        (0..400).collect::<Vec<i64>>(),
        "exactly once, in order"
    );
    assert!(basket.is_empty());
}

#[test]
fn exclusive_snapshot_stitches_spilled_head_back() {
    // A full snapshot sees the whole logical content: the spilled head is
    // decoded into the returned chunk, and stays on disk.
    let dir = TempDir::new("spill-exclusive");
    let (basket, store) = spill_basket(&dir, 10);
    push_ints(&basket, 0..100);
    assert!(basket.resident_len() <= 10);
    let (resident, spilled) = (basket.resident_len(), basket.spilled_len());
    let on_disk = store.metrics_snapshot().bytes_on_disk;
    let chunk = basket.snapshot();
    assert_eq!(ints_of(&chunk), (0..100).collect::<Vec<i64>>());
    assert_eq!(basket.resident_len(), resident, "nothing unspilled");
    assert_eq!(basket.spilled_len(), spilled);
    assert_eq!(
        store.metrics_snapshot().bytes_on_disk,
        on_disk,
        "files kept"
    );
}

#[test]
fn read_only_select_keeps_spill_residency() {
    // A one-time SELECT scans a basket through a snapshot; on a Spill
    // basket that must read the disk tier in place, not drain it into
    // memory past the `mem_rows` budget.
    let dir = TempDir::new("spill-select");
    let cell = DataCell::builder().data_dir(dir.path()).build();
    cell.execute("create basket b (x int) overflow spill 10")
        .unwrap();
    let b = cell.basket("b").unwrap();
    push_ints(&b, 0..1000);
    let spilled = b.spilled_len();
    assert!(spilled > 0);
    let count = cell.query("select count(*) as n from b").unwrap();
    assert_eq!(count.columns[0].as_ints().unwrap(), &[1000]);
    let sum = cell.query("select sum(b.x) as s from b").unwrap();
    assert_eq!(sum.columns[0].as_ints().unwrap(), &[999 * 1000 / 2]);
    assert!(b.resident_len() <= 10, "{} resident", b.resident_len());
    assert_eq!(b.spilled_len(), spilled, "the disk tier stays on disk");
    assert_eq!(b.len(), 1000, "inspection consumes nothing");
}

#[test]
fn slow_disk_seal_blocks_only_the_sealing_appender() {
    // Regression: the spill seal (segment encode + fsync) used to run
    // under the basket lock, so a slow disk stalled every producer and
    // reader on the basket. The seal now runs outside the lock
    // (publish-then-drop): while one appender sits in a 400ms-injected
    // seal, other appends and claims on the same basket complete fast.
    let dir = TempDir::new("slow-seal");
    let store = SegmentStore::open(dir.path()).unwrap();
    let basket = Arc::new(
        Basket::bounded(
            "b",
            int_schema(),
            None,
            OverflowPolicy::Spill { mem_rows: 100 },
        )
        .unwrap(),
    );
    let bs = store.basket("b").unwrap();
    bs.set_seal_delay(Duration::from_millis(400));
    basket.attach_storage(bs, None);
    let reader = basket.register_reader(true);

    // The sealing appender: crosses the memory budget, so its append
    // carries the (delayed) seal and takes >= 400ms.
    let sealer = {
        let basket = Arc::clone(&basket);
        std::thread::spawn(move || push_ints(&basket, 0..150))
    };
    // Rows become visible (and the seal goes in flight) before the seal
    // completes: wait for them, then race the in-flight seal.
    let t0 = std::time::Instant::now();
    while basket.len() < 150 {
        assert!(t0.elapsed() < Duration::from_secs(5), "appender stuck");
        std::thread::yield_now();
    }
    let t1 = std::time::Instant::now();
    push_ints(&basket, 1000..1010);
    let (chunk, start, end) = basket.claim_for_reader(reader, 20);
    assert_eq!(ints_of(&chunk), (0..20).collect::<Vec<i64>>());
    assert!(
        t1.elapsed() < Duration::from_millis(200),
        "concurrent append + claim waited on the in-flight seal: {:?}",
        t1.elapsed()
    );
    sealer.join().unwrap();
    // Committing *after* the seal: a commit trims the consumed head,
    // which would bump the epoch and (correctly) abort the in-flight
    // seal — here we want the publication path.
    basket.commit_claim(reader, start, end);

    // Nothing lost or duplicated across the concurrent seal: the
    // remaining drain yields exactly the unclaimed suffix, in order.
    let mut got = Vec::new();
    while got.len() < 140 {
        let (chunk, start, end) = basket.claim_for_reader(reader, usize::MAX);
        assert!(end > start, "claim makes progress ({} so far)", got.len());
        got.extend(ints_of(&chunk));
        basket.commit_claim(reader, start, end);
    }
    let want: Vec<i64> = (20..150).chain(1000..1010).collect();
    assert_eq!(got, want);
    assert!(basket.stats().spilled >= 1, "the delayed seal published");
}

#[test]
fn stale_seal_is_orphaned_not_published() {
    // A head mutation (here: `clear`) racing an in-flight seal bumps the
    // basket epoch, so the late-finishing seal must discard its segment
    // as an orphan instead of resurrecting cleared rows.
    let dir = TempDir::new("slow-seal-abort");
    let store = SegmentStore::open(dir.path()).unwrap();
    let basket = Arc::new(
        Basket::bounded(
            "b",
            int_schema(),
            None,
            OverflowPolicy::Spill { mem_rows: 50 },
        )
        .unwrap(),
    );
    let bs = store.basket("b").unwrap();
    bs.set_seal_delay(Duration::from_millis(400));
    basket.attach_storage(bs, None);
    let reader = basket.register_reader(true);

    let sealer = {
        let basket = Arc::clone(&basket);
        std::thread::spawn(move || push_ints(&basket, 0..200))
    };
    let t0 = std::time::Instant::now();
    while basket.len() < 200 {
        assert!(t0.elapsed() < Duration::from_secs(5), "appender stuck");
        std::thread::yield_now();
    }
    // Seal in flight (sleeping in the injected delay): clear the basket.
    assert_eq!(basket.clear(), 200);
    sealer.join().unwrap();

    assert_eq!(basket.len(), 0, "cleared rows must not come back");
    assert_eq!(basket.spilled_len(), 0);
    let m = store.metrics_snapshot();
    assert_eq!(
        m.segments_deleted, m.segments_written,
        "the stale segment was deleted as an orphan"
    );
    assert_eq!(m.bytes_on_disk, 0);

    // The basket stays fully serviceable afterwards.
    push_ints(&basket, 500..510);
    let (chunk, start, end) = basket.claim_for_reader(reader, usize::MAX);
    assert_eq!(ints_of(&chunk), (500..510).collect::<Vec<i64>>());
    basket.commit_claim(reader, start, end);
}

#[test]
fn exclusive_consume_keeps_spill_residency_bounded() {
    // Regression (PR-5 corner): exclusive-factory anchored snapshots used
    // to unspill the *entire* spilled backlog into memory, so one step
    // over a deep backlog silently broke the `Spill { mem_rows }` memory
    // ceiling. The budgeted snapshot/consume pair serves the backlog from
    // disk in budget-sized bites: residency stays bounded the whole way
    // down, and every tuple still arrives exactly once, in order.
    let dir = TempDir::new("spill-excl-budget");
    let (basket, store) = spill_basket(&dir, 50);
    push_ints(&basket, 0..2000);
    assert!(basket.resident_len() <= 50, "spill ceiling holds on ingest");
    assert!(basket.spilled_len() >= 1900);

    let mut got = Vec::new();
    while !basket.is_empty() {
        let (chunk, anchor) = basket.snapshot_exclusive(100);
        assert!(!chunk.is_empty(), "progress ({} so far)", got.len());
        assert!(chunk.len() <= 100, "snapshot respects the budget");
        got.extend(ints_of(&chunk));
        let n = chunk.len();
        basket
            .consume_exclusive(&anchor, &datacell_bat::candidates::Candidates::all(n))
            .unwrap();
        assert!(
            basket.resident_len() <= 150,
            "exclusive consumption re-materialized the backlog: {} resident",
            basket.resident_len()
        );
    }
    assert_eq!(got, (0..2000).collect::<Vec<i64>>());
    let m = store.metrics_snapshot();
    assert_eq!(m.bytes_on_disk, 0, "consumed segments were deleted");
}

#[test]
fn exclusive_partial_consume_reseals_survivors_in_place() {
    // A predicate window consumes a sparse subset of a spilled snapshot:
    // the partially-consumed segment is re-sealed with its survivors at
    // the same base (no unspill), and the survivors drain later exactly
    // once, in order.
    let dir = TempDir::new("spill-excl-partial");
    let (basket, _store) = spill_basket(&dir, 10);
    push_ints(&basket, 0..100);
    let resident_before = basket.resident_len();
    assert!(resident_before <= 10);

    let (chunk, anchor) = basket.snapshot_exclusive(60);
    assert_eq!(ints_of(&chunk), (0..60).collect::<Vec<i64>>());
    let evens: Vec<usize> = (0..60).step_by(2).collect();
    let removed = basket
        .consume_exclusive(
            &anchor,
            &datacell_bat::candidates::Candidates::from_sorted_unchecked(evens),
        )
        .unwrap();
    assert_eq!(removed, 30);
    assert_eq!(basket.len(), 70);
    assert_eq!(
        basket.resident_len(),
        resident_before,
        "partial consume must not change residency"
    );

    let mut got = Vec::new();
    while !basket.is_empty() {
        let (chunk, anchor) = basket.snapshot_exclusive(40);
        got.extend(ints_of(&chunk));
        let n = chunk.len();
        basket
            .consume_exclusive(&anchor, &datacell_bat::candidates::Candidates::all(n))
            .unwrap();
    }
    let want: Vec<i64> = (0..60).filter(|v| v % 2 == 1).chain(60..100).collect();
    assert_eq!(got, want, "survivors drain in order, exactly once");
}

#[test]
fn slow_disk_decode_blocks_only_the_decoding_claimer() {
    // Regression: a claim that missed the segment cache used to *decode*
    // the segment while holding the basket lock, so a slow disk stalled
    // every producer on the basket for the whole read. The decode now runs
    // outside the lock (decode, re-validate the segment layout, install
    // into the cache, retry): while one claimer sits in a 400ms-injected
    // segment read, appends on the same basket complete fast.
    let dir = TempDir::new("slow-decode");
    let store = SegmentStore::open(dir.path()).unwrap();
    let basket = Arc::new(
        Basket::bounded(
            "b",
            int_schema(),
            None,
            OverflowPolicy::Spill { mem_rows: 50 },
        )
        .unwrap(),
    );
    let bs = store.basket("b").unwrap();
    basket.attach_storage(bs.clone(), None);
    let reader = basket.register_reader(true);
    push_ints(&basket, 0..500);
    assert!(basket.spilled_len() > 0, "the head spilled to disk");
    // Injected only now, so the spill itself was not slowed.
    bs.set_read_delay(Duration::from_millis(400));

    // The claimer: its cursor sits in a spilled segment nobody has read
    // yet (cold cache), so this claim carries the delayed decode.
    let claimer = {
        let basket = Arc::clone(&basket);
        std::thread::spawn(move || {
            let t = std::time::Instant::now();
            let (chunk, start, end) = basket.claim_for_reader(reader, 20);
            (ints_of(&chunk), start, end, t.elapsed())
        })
    };
    // Let the claimer enter the decode, then race it with appends.
    std::thread::sleep(Duration::from_millis(100));
    let t1 = std::time::Instant::now();
    push_ints(&basket, 1000..1010);
    assert!(
        t1.elapsed() < Duration::from_millis(200),
        "concurrent append waited on the in-flight segment decode: {:?}",
        t1.elapsed()
    );
    let (got, start, end, took) = claimer.join().unwrap();
    assert_eq!(got, (0..20).collect::<Vec<i64>>());
    assert!(
        took >= Duration::from_millis(350),
        "claim was expected to carry the injected decode delay, took {took:?}"
    );
    basket.commit_claim(reader, start, end);
    bs.set_read_delay(Duration::ZERO);

    // Nothing lost or duplicated across the concurrent decode: the
    // remaining drain yields exactly the unclaimed suffix, in order.
    let mut drained = Vec::new();
    while drained.len() < 490 {
        let (chunk, start, end) = basket.claim_for_reader(reader, usize::MAX);
        assert!(
            end > start,
            "claim makes progress ({} so far)",
            drained.len()
        );
        drained.extend(ints_of(&chunk));
        basket.commit_claim(reader, start, end);
    }
    let want: Vec<i64> = (20..500).chain(1000..1010).collect();
    assert_eq!(drained, want);
    assert!(basket.is_empty());
}

#[test]
fn corrupt_segment_withholds_rows_cleanly() {
    let dir = TempDir::new("spill-corrupt");
    let (basket, _store) = spill_basket(&dir, 10);
    let reader = basket.register_reader(true);
    push_ints(&basket, 0..100);
    assert!(basket.spilled_len() > 0);

    // Flip one byte in the middle of every sealed segment file.
    let mut flipped = 0;
    for entry in std::fs::read_dir(dir.path().join("b")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "seg") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            flipped += 1;
        }
    }
    assert!(flipped > 0);

    // The claim serves nothing (rather than corrupt or skipped rows), and
    // the failure is observable.
    let (chunk, start, end) = basket.claim_for_reader(reader, usize::MAX);
    assert_eq!(chunk.len(), 0);
    assert_eq!(start, end);
    assert!(basket.stats().storage_errors > 0);
    assert_eq!(
        basket.pending_for(reader),
        100,
        "rows stay pending, none skipped"
    );
}

// ------------------------------------------------------- codec round-trip

/// Hostile string palette: newlines, quotes, NUL, escapes, unicode.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '\t', '\n', '\r', ',', '"', '\\', 'é', '→', '\u{0}', '\u{7f}',
];

/// Generate one random column of `rows` values with in-band nils, using a
/// seeded rng (the proptest shim has no dependent strategies, so row
/// counts are coordinated here instead).
fn gen_column(rng: &mut rand::rngs::StdRng, ty: DataType, rows: usize) -> Column {
    use rand::Rng;
    let mut col = Column::empty(ty);
    for _ in 0..rows {
        if rng.gen_range(0usize..8) == 0 {
            col.push_nil();
            continue;
        }
        let v = match ty {
            DataType::Int => Value::Int(rng.gen_range(-1_000_000_000i64..1_000_000_000)),
            DataType::Float => Value::Float(rng.gen_range(-4_000_000i64..4_000_000) as f64 / 64.0),
            DataType::Bool => Value::Bool(rng.gen_range(0usize..2) == 1),
            DataType::Timestamp => Value::Timestamp(rng.gen_range(0i64..1_000_000_000)),
            DataType::Str => {
                let n = rng.gen_range(0usize..12);
                Value::Str(
                    (0..n)
                        .map(|_| PALETTE[rng.gen_range(0usize..PALETTE.len())])
                        .collect(),
                )
            }
        };
        col.push(&v).unwrap();
    }
    col
}

fn type_of_tag(tag: usize) -> DataType {
    match tag % 5 {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Bool,
        3 => DataType::Str,
        _ => DataType::Timestamp,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Arbitrary rows → segment payload bytes → rows is the identity, for
    // every column type, nils included, across hostile string contents
    // (newlines, quotes, NUL, unicode).
    #[test]
    fn segment_codec_roundtrip_identity(
        rows in 0usize..40,
        tags in prop::collection::vec(0usize..5, 1..5),
        seed in 0u64..u64::MAX,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let schema = Schema::new(
            tags.iter()
                .enumerate()
                .map(|(i, &t)| (format!("c{i}"), type_of_tag(t)))
                .collect(),
        );
        let columns: Vec<Column> = tags
            .iter()
            .map(|&t| gen_column(&mut rng, type_of_tag(t), rows))
            .collect();
        let chunk = Chunk::new(schema.clone(), columns).unwrap();
        let mut buf = Vec::new();
        codec::encode_chunk_into(&mut buf, &chunk).unwrap();
        let back = codec::decode_chunk(&buf, &schema).unwrap();
        prop_assert_eq!(back.len(), chunk.len());
        for i in 0..chunk.len() {
            prop_assert_eq!(back.row(i).unwrap(), chunk.row(i).unwrap(), "row {}", i);
        }
    }

    // Truncations and single-byte corruptions of a sealed segment always
    // fail as a clean Corrupt error — never a panic, never decoded rows.
    #[test]
    fn corrupted_segments_fail_cleanly(
        vals in prop::collection::vec(-1000i64..1000, 1..50),
        cut in 0usize..2048,
        flip_at in 0usize..2048,
        flip_bit in 0u8..8,
    ) {
        let dir = TempDir::new("segment-prop");
        let chunk = Chunk::new(
            int_schema(),
            vec![Column::from_ints(vals)],
        ).unwrap();
        let meta = segment::write_segment(dir.path(), 7, &chunk).unwrap();
        let bytes = std::fs::read(&meta.path).unwrap();

        let torn = &bytes[..cut.min(bytes.len().saturating_sub(1))];
        prop_assert!(matches!(
            segment::decode_segment(torn, &int_schema()),
            Err(StorageError::Corrupt(_))
        ));

        let mut mutant = bytes.clone();
        let pos = flip_at % mutant.len();
        mutant[pos] ^= 1 << flip_bit;
        match segment::decode_segment(&mutant, &int_schema()) {
            Err(StorageError::Corrupt(_)) => {}
            Ok(_) => prop_assert!(false, "bit flip at {} undetected", pos),
            Err(other) => prop_assert!(false, "unexpected class {:?}", other),
        }
    }
}

// ------------------------------------------------------------- recovery

/// Build a persistent session rooted at `dir`.
fn persistent_cell(dir: &TempDir) -> DataCell {
    DataCell::builder()
        .data_dir(dir.path())
        .durability(Durability::Persistent)
        .build()
}

#[test]
fn kill_and_recover_loses_nothing_and_redelivers_nothing_committed() {
    let dir = TempDir::new("kill-recover");

    // ---- Run 1: ingest, deliver-and-commit batch A, leave batch B
    // undelivered, then die without any graceful finalization.
    {
        let cell = persistent_cell(&dir);
        cell.execute("create basket b (x int)").unwrap();
        let q = cell
            .continuous_query("q", "select s.x from [select * from b] as s")
            .unwrap();
        let sub = q.subscribe::<(i64,)>().unwrap();

        // Batch A: fully delivered AND committed (a broadcast subscription
        // commits its claim as it takes it: the output basket trims, the
        // trim is logged).
        cell.execute("insert into b values (1), (2), (3)").unwrap();
        cell.run_until_quiescent(100);
        assert_eq!(sub.drain().unwrap(), vec![(1,), (2,), (3,)]);
        assert!(cell.query_output("q").unwrap().is_empty(), "A trimmed");

        // No subscriber anymore: batch B reaches the output basket and
        // stays there, undelivered.
        drop(sub);
        cell.execute("insert into b values (10), (20)").unwrap();
        cell.run_until_quiescent(100);
        drop(cell);
    }

    // ---- Run 2: recover into a fresh session and re-run the same
    // startup script; delivery resumes exactly where it stopped.
    {
        let cell = persistent_cell(&dir);
        let report = cell.recover().unwrap();
        assert!(report.baskets.contains(&"b".to_string()), "{report:?}");
        assert!(report.baskets.contains(&"q_out".to_string()), "{report:?}");

        // The input basket was fully consumed pre-crash; its accounting
        // baseline survives (receptor SYNC totals keep counting).
        let b = cell.basket("b").unwrap();
        assert!(b.is_empty(), "consumed input rows are not replayed");
        assert_eq!(b.stats().appended, 5, "lifetime append count restored");

        // Identical re-declarations adopt the recovered baskets.
        cell.execute("create basket b (x int)").unwrap();
        let q = cell
            .continuous_query("q", "select s.x from [select * from b] as s")
            .unwrap();
        let sub = q.subscribe::<(i64,)>().unwrap();
        cell.run_until_quiescent(100);
        // Batch B arrives, and nothing else: committed batch A is never
        // re-delivered.
        assert_eq!(sub.drain().unwrap(), vec![(10,), (20,)]);

        // New appends keep flowing through the recovered pipeline.
        cell.execute("insert into b values (30)").unwrap();
        cell.run_until_quiescent(100);
        let got = sub.collect_n(1, Duration::from_secs(5)).unwrap();
        assert_eq!(got, vec![(30,)]);
        let m = cell.metrics();
        let storage = m.storage.expect("data_dir attached");
        assert_eq!(storage.baskets_recovered, 2);
        assert!(storage.wal_bytes_replayed > 0);
    }
}

#[test]
fn torn_wal_tail_recovers_the_acknowledged_prefix() {
    let dir = TempDir::new("torn-tail");
    {
        let cell = persistent_cell(&dir);
        cell.execute("create basket b (x int)").unwrap();
        cell.execute("insert into b values (1), (2)").unwrap();
        cell.execute("insert into b values (3)").unwrap();
        drop(cell);
    }
    // Crash mid-write: chop bytes off the WAL tail so the last record is
    // torn. (A torn record was never acknowledged durable.)
    let wal_path = dir.path().join("b").join("wal.log");
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();

    let cell = persistent_cell(&dir);
    let report = cell.recover().unwrap();
    assert_eq!(report.baskets, vec!["b".to_string()]);
    assert!(report.torn_bytes > 0, "the torn tail is reported");
    let b = cell.basket("b").unwrap();
    assert_eq!(b.len(), 2, "the acknowledged prefix survives");
    assert_eq!(ints_of(&b.snapshot().head(2).unwrap()), vec![1, 2]);
}

#[test]
fn recovery_is_idempotent_across_restarts() {
    let dir = TempDir::new("recover-twice");
    {
        let cell = persistent_cell(&dir);
        cell.execute("create basket b (x int)").unwrap();
        cell.execute("insert into b values (7), (8)").unwrap();
        drop(cell);
    }
    for round in 0..3 {
        let cell = persistent_cell(&dir);
        cell.recover().unwrap();
        let b = cell.basket("b").unwrap();
        assert_eq!(b.len(), 2, "round {round}");
        assert_eq!(b.stats().appended, 2, "baseline stable across rounds");
        drop(cell);
    }
}

#[test]
fn recovered_spill_basket_keeps_its_memory_budget() {
    // Recovery materializes the whole backlog to rebuild it; a Spill
    // basket must immediately seal the excess back to disk instead of
    // holding the entire recovered backlog in memory.
    let dir = TempDir::new("recover-spill-budget");
    {
        let cell = DataCell::builder().data_dir(dir.path()).build();
        cell.execute("create basket b (x int) overflow spill 50 persistent")
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..500).map(|i| vec![Value::Int(i)]).collect();
        cell.basket("b").unwrap().append_rows(&rows).unwrap();
        drop(cell);
    }
    let cell = DataCell::builder().data_dir(dir.path()).build();
    cell.recover().unwrap();
    let b = cell.basket("b").unwrap();
    assert_eq!(b.len(), 500, "nothing lost");
    assert!(
        b.resident_len() <= 50,
        "recovered backlog re-spilled: {} resident",
        b.resident_len()
    );
    // And it still drains in order across the disk boundary.
    let r = b.register_reader(true);
    let mut got = Vec::new();
    loop {
        let (c, s, e) = b.claim_for_reader(r, usize::MAX);
        if e == s {
            break;
        }
        got.extend(ints_of(&c));
        b.commit_claim(r, s, e);
    }
    assert_eq!(got, (0..500).collect::<Vec<i64>>());
}

#[test]
fn live_wal_checkpoint_bounds_the_log_and_recovers_exactly() {
    // Regression (PR-5 corner): WAL compaction used to happen only at
    // recovery, so a long-running session's log grew without bound even
    // when the basket stayed small. The live checkpoint rewrites the log
    // behind a baseline once it crosses a size threshold.
    let dir = TempDir::new("wal-live-checkpoint");
    let wal_path = dir.path().join("b").join("wal.log");
    {
        let cell = persistent_cell(&dir);
        cell.execute("create basket b (x int)").unwrap();
        let b = cell.basket("b").unwrap();
        b.set_wal_checkpoint_bytes(2048);
        // Append/consume churn: ~50 KiB of lifetime log traffic over a
        // basket that never holds more than 100 rows.
        for _ in 0..30 {
            push_ints(&b, 0..100);
            b.clear();
        }
        push_ints(&b, 0..5);
        let log = std::fs::metadata(&wal_path).unwrap().len();
        assert!(
            log < 16 * 1024,
            "live checkpoint keeps the log near the resident size, got {log} bytes"
        );
        drop(cell);
    }
    let cell = persistent_cell(&dir);
    cell.recover().unwrap();
    let b = cell.basket("b").unwrap();
    assert_eq!(ints_of(&b.snapshot().head(5).unwrap()), vec![0, 1, 2, 3, 4]);
    assert_eq!(b.stats().appended, 3005, "lifetime baseline survives");
    assert_eq!(b.stats().consumed, 3000);
}

#[test]
fn live_checkpoint_of_spilled_basket_preserves_the_disk_head() {
    // The checkpoint image is the *full logical* contents: for a
    // Spill+Persistent basket that means decoding the on-disk head, so a
    // post-checkpoint crash still recovers every acknowledged row.
    let dir = TempDir::new("wal-checkpoint-spill");
    {
        let cell = DataCell::builder()
            .data_dir(dir.path())
            .durability(Durability::Persistent)
            .build();
        cell.execute("create basket b (x int) overflow spill 50 persistent")
            .unwrap();
        let b = cell.basket("b").unwrap();
        b.set_wal_checkpoint_bytes(1024);
        // Crosses the threshold repeatedly while most rows live in spill
        // segments below the memory budget.
        for start in 0..10 {
            push_ints(&b, start * 100..(start + 1) * 100);
        }
        assert!(b.resident_len() <= 50);
        let log = std::fs::metadata(dir.path().join("b").join("wal.log"))
            .unwrap()
            .len();
        assert!(log > 0);
        drop(cell);
    }
    let cell = DataCell::builder()
        .data_dir(dir.path())
        .durability(Durability::Persistent)
        .build();
    cell.recover().unwrap();
    let b = cell.basket("b").unwrap();
    assert_eq!(b.len(), 1000, "nothing lost across checkpoint + crash");
    assert!(b.resident_len() <= 50, "recovered backlog re-spilled");
    let r = b.register_reader(true);
    let mut got = Vec::new();
    loop {
        let (c, s, e) = b.claim_for_reader(r, usize::MAX);
        if e == s {
            break;
        }
        got.extend(ints_of(&c));
        b.commit_claim(r, s, e);
    }
    assert_eq!(got, (0..1000).collect::<Vec<i64>>());
}

#[test]
fn adoption_is_one_shot_and_validates_clauses() {
    let dir = TempDir::new("adopt-once");
    {
        let cell = persistent_cell(&dir);
        cell.execute("create basket b (x int)").unwrap();
        cell.execute("insert into b values (1)").unwrap();
        drop(cell);
    }
    let cell = persistent_cell(&dir);
    cell.recover().unwrap();
    // Changed clauses are refused, not silently ignored (the basket
    // keeps its recovered configuration).
    let err = cell
        .execute("create basket b (x int) capacity 7 overflow reject")
        .unwrap_err();
    assert!(matches!(err, DataCellError::Catalog(_)), "{err}");
    // The faithful re-declaration adopts, rows intact...
    cell.execute("create basket b (x int)").unwrap();
    assert_eq!(cell.basket("b").unwrap().len(), 1);
    // ...exactly once: a duplicate declaration fails again as usual.
    assert!(cell.execute("create basket b (x int)").is_err());
}

#[test]
fn spill_and_persistence_require_a_data_dir() {
    let err = match DataCell::builder()
        .durability(Durability::Persistent)
        .try_build()
    {
        Err(e) => e,
        Ok(_) => panic!("Persistent without data_dir must not build"),
    };
    assert!(matches!(err, DataCellError::Storage(_)), "{err}");

    let cell = DataCell::new();
    let err = cell
        .execute("create basket b (x int) overflow spill 100")
        .unwrap_err();
    assert!(matches!(err, DataCellError::Storage(_)), "{err}");
    let err = cell
        .execute("create basket b (x int) persistent")
        .unwrap_err();
    assert!(matches!(err, DataCellError::Storage(_)), "{err}");

    let err = cell.recover().unwrap_err();
    assert!(matches!(err, DataCellError::Storage(_)), "{err}");
}

#[test]
fn sql_declares_per_basket_policy_end_to_end() {
    let dir = TempDir::new("sql-policy");
    let cell = DataCell::builder().data_dir(dir.path()).build();
    cell.execute("create basket hot (x int) capacity 10 overflow reject")
        .unwrap();
    cell.execute("create basket cold (x int) overflow spill 50 persistent")
        .unwrap();

    let hot = cell.basket("hot").unwrap();
    assert_eq!(hot.capacity(), Some(10));
    assert_eq!(hot.overflow_policy(), OverflowPolicy::Reject);

    let cold = cell.basket("cold").unwrap();
    assert_eq!(
        cold.overflow_policy(),
        OverflowPolicy::Spill { mem_rows: 50 }
    );
    let rows: Vec<Vec<Value>> = (0..200).map(|i| vec![Value::Int(i)]).collect();
    cold.append_rows(&rows).unwrap();
    assert!(cold.resident_len() <= 50);
    assert_eq!(cold.len(), 200);

    // DROP removes the on-disk state with the basket.
    assert!(dir.path().join("cold").exists());
    cell.execute("drop basket cold").unwrap();
    assert!(!dir.path().join("cold").exists());

    // Parse errors for malformed clauses.
    assert!(cell.execute("create basket z (x int) capacity 0").is_err());
    assert!(cell
        .execute("create basket z (x int) overflow sideways")
        .is_err());
}
