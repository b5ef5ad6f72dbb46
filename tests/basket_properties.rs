//! Property/stress tier for the registered-reader cursor engine
//! (PR 2's `claim`/`commit`/`rewind` discipline), plus the deterministic
//! regression for the documented `SubscriptionMode::Shared` rewind corner.
//!
//! The properties pin down the invariants later refactors must preserve:
//!
//! * a **committed-only reader** (every claim acknowledged immediately)
//!   sees every appended tuple exactly once, in order, whatever other
//!   readers do around it — claims, out-of-order commits, rewinds, drops;
//! * **trim never outruns a reader**: tuples a live reader has not yet
//!   seen stay resident (the low-watermark rule of §2.5);
//! * the traffic counters (`appended`/`consumed`/`shed`/
//!   `overflow_events`) are **monotone** under any op interleaving.

use std::collections::VecDeque;
use std::sync::{Arc, Barrier};

use datacell::basket::{Basket, OverflowPolicy, ReaderId};
use datacell::DataCellError;
use datacell_bat::column::Column;
use datacell_bat::types::{DataType, Value};
use datacell_engine::Chunk;
use datacell_sql::Schema;
use datacell_storage::testutil::TempDir;
use datacell_storage::wal::{read_wal, WAL_FILE};
use datacell_storage::{SegmentStore, WalRecord};
use proptest::prelude::*;

fn int_basket() -> Basket {
    Basket::new("b", Schema::new(vec![("x".into(), DataType::Int)])).unwrap()
}

fn values_of(chunk: &datacell_engine::Chunk) -> Vec<i64> {
    chunk.columns[0].as_ints().unwrap().to_vec()
}

fn typed_schema() -> Schema {
    Schema::new(vec![
        ("i".into(), DataType::Int),
        ("f".into(), DataType::Float),
        ("s".into(), DataType::Str),
    ])
}

/// A typed row derived from one drawn integer (the shim has no tuple
/// strategies): nils in every column, ints that must coerce into the float
/// column, a small string dictionary.
fn typed_row(v: i64) -> Vec<Value> {
    vec![
        if v % 7 == 0 {
            Value::Nil
        } else {
            Value::Int(v)
        },
        if v % 3 == 0 {
            Value::Int(v)
        } else {
            Value::Float(v as f64 / 2.0)
        },
        if v % 5 == 0 {
            Value::Nil
        } else {
            Value::Str(format!("s{}", v % 11))
        },
    ]
}

/// `rows` transposed into a chunk of user columns (values coerced).
fn transposed(rows: &[Vec<Value>]) -> Chunk {
    let schema = typed_schema();
    let mut columns: Vec<Column> = schema.columns.iter().map(|c| Column::empty(c.ty)).collect();
    for row in rows {
        for (c, v) in columns.iter_mut().zip(row) {
            c.push(v).unwrap();
        }
    }
    Chunk::new(schema, columns).unwrap()
}

/// A persistent basket over its own store: every append is WAL-logged.
fn persistent_basket(dir: &TempDir, name: &str, cap: usize, policy: OverflowPolicy) -> Basket {
    let capacity = (!matches!(policy, OverflowPolicy::Spill { .. })).then_some(cap);
    let b = Basket::bounded(name, typed_schema(), capacity, policy).unwrap();
    let store = SegmentStore::open(dir.path())
        .unwrap()
        .basket(name)
        .unwrap();
    let wal = Arc::new(store.open_wal().unwrap());
    b.attach_storage(store, Some(wal));
    // Small enough that longer runs also cross a live checkpoint.
    b.set_wal_checkpoint_bytes(1024);
    b
}

/// User-column rows of a full-width chunk (the trailing `ts` stripped).
fn user_rows(chunk: &Chunk) -> Vec<Vec<Value>> {
    let mut rows = chunk.rows().unwrap();
    for row in &mut rows {
        row.pop();
    }
    rows
}

/// Fold a basket's WAL into the user rows it replays to. Appends log only
/// rows, head trims (sheds) and checkpoint baselines.
fn replayed_rows(dir: &TempDir, name: &str, full_schema: &Schema) -> Vec<Vec<Value>> {
    let replay = read_wal(&dir.path().join(name).join(WAL_FILE), full_schema).unwrap();
    assert_eq!(replay.torn_bytes, 0);
    let mut rows: VecDeque<Vec<Value>> = VecDeque::new();
    let mut base = 0u64;
    for record in replay.records {
        match record {
            WalRecord::Baseline { base_oid, .. } => base = base_oid,
            WalRecord::Rows(chunk) => rows.extend(user_rows(&chunk)),
            WalRecord::TrimTo(oid) => {
                let drop = (oid.saturating_sub(base) as usize).min(rows.len());
                rows.drain(..drop);
                base += drop as u64;
            }
            WalRecord::Consume(_) => panic!("appends never log a consume"),
        }
    }
    rows.into()
}

/// One randomized action against the basket under test.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Append `n` fresh tuples.
    Append(usize),
    /// The observer claims up to `n` tuples and commits immediately.
    ObserverTake(usize),
    /// Auxiliary reader `r` claims up to `n` tuples (held in flight).
    AuxClaim(usize, usize),
    /// Auxiliary reader `r` commits its most recent in-flight claim
    /// (out-of-order acknowledgement on purpose).
    AuxCommitNewest(usize),
    /// Auxiliary reader `r` commits its oldest in-flight claim.
    AuxCommitOldest(usize),
    /// Auxiliary reader `r` rewinds its oldest in-flight claim.
    AuxRewind(usize),
    /// Auxiliary reader `r` snapshots and commits everything pending.
    AuxSnapshotCommit(usize),
    /// Drop auxiliary reader `r` (its in-flight claims die with it).
    AuxDrop(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (1usize..6).prop_map(Op::Append),
        4 => (1usize..8).prop_map(Op::ObserverTake),
        // (reader, claim size) folded into one draw: the shim has no
        // tuple strategies.
        3 => (0usize..12).prop_map(|x| Op::AuxClaim(x % 3, 1 + x / 3)),
        2 => (0usize..3).prop_map(Op::AuxCommitNewest),
        2 => (0usize..3).prop_map(Op::AuxCommitOldest),
        2 => (0usize..3).prop_map(Op::AuxRewind),
        1 => (0usize..3).prop_map(Op::AuxSnapshotCommit),
        1 => (0usize..3).prop_map(Op::AuxDrop),
    ]
}

/// Tracking state of one auxiliary reader.
struct Aux {
    id: ReaderId,
    live: bool,
    inflight: Vec<(u64, u64)>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Arbitrary append/claim/commit/rewind/drop interleavings around a
    // committed-only observer: the observer must receive every appended
    // value exactly once, in order, and trim must never evict a tuple a
    // live reader still has pending.
    #[test]
    fn committed_reader_sees_every_tuple_exactly_once(
        ops in prop::collection::vec(op_strategy(), 1..120)
    ) {
        let b = int_basket();
        let observer = b.register_reader(true);
        let mut auxes: Vec<Aux> = (0..3)
            .map(|_| Aux {
                id: b.register_reader(true),
                live: true,
                inflight: Vec::new(),
            })
            .collect();
        let mut next_value = 0i64;
        // Values appended but not yet delivered to the observer.
        let mut expected: VecDeque<i64> = VecDeque::new();
        let mut prev_stats = b.stats();

        for op in ops {
            match op {
                Op::Append(n) => {
                    let rows: Vec<Vec<Value>> = (0..n)
                        .map(|_| {
                            let v = next_value;
                            next_value += 1;
                            expected.push_back(v);
                            vec![Value::Int(v)]
                        })
                        .collect();
                    b.append_rows(&rows).unwrap();
                }
                Op::ObserverTake(n) => {
                    let (chunk, s, e) = b.claim_for_reader(observer, n);
                    let got = values_of(&chunk);
                    // Exactly-once, in order: the claim must be precisely
                    // the next prefix of the expected stream.
                    let want: Vec<i64> =
                        expected.iter().take(got.len()).copied().collect();
                    prop_assert_eq!(&got, &want, "observer lost/duplicated/reordered");
                    for _ in 0..got.len() {
                        expected.pop_front();
                    }
                    b.commit_claim(observer, s, e);
                }
                Op::AuxClaim(r, n) => {
                    let aux = &mut auxes[r];
                    if aux.live {
                        let (_chunk, s, e) = b.claim_for_reader(aux.id, n);
                        if e > s {
                            aux.inflight.push((s, e));
                        }
                    }
                }
                Op::AuxCommitNewest(r) => {
                    let aux = &mut auxes[r];
                    if let Some((s, e)) = aux.inflight.pop() {
                        b.commit_claim(aux.id, s, e);
                    }
                }
                Op::AuxCommitOldest(r) => {
                    let aux = &mut auxes[r];
                    if !aux.inflight.is_empty() {
                        let (s, e) = aux.inflight.remove(0);
                        b.commit_claim(aux.id, s, e);
                    }
                }
                Op::AuxRewind(r) => {
                    let aux = &mut auxes[r];
                    if !aux.inflight.is_empty() {
                        let (s, e) = aux.inflight.remove(0);
                        b.rewind_claim(aux.id, s, e);
                    }
                }
                Op::AuxSnapshotCommit(r) => {
                    let aux = &mut auxes[r];
                    if aux.live && aux.inflight.is_empty() {
                        let (_chunk, end) = b.snapshot_for_reader(aux.id, usize::MAX);
                        b.commit_reader(aux.id, end);
                    }
                }
                Op::AuxDrop(r) => {
                    let aux = &mut auxes[r];
                    if aux.live {
                        b.unregister_reader(aux.id);
                        aux.live = false;
                        aux.inflight.clear();
                    }
                }
            }

            // Trim bound: a live reader's pending tuples are resident.
            let len = b.len();
            prop_assert!(
                b.pending_for(observer) <= len,
                "trim outran the observer: pending {} > resident {}",
                b.pending_for(observer),
                len
            );
            for aux in auxes.iter().filter(|a| a.live && a.inflight.is_empty()) {
                prop_assert!(
                    b.pending_for(aux.id) <= len,
                    "trim outran a live reader"
                );
            }

            // Counters are monotone under every op.
            let stats = b.stats();
            prop_assert!(stats.appended >= prev_stats.appended);
            prop_assert!(stats.consumed >= prev_stats.consumed);
            prop_assert!(stats.shed >= prev_stats.shed);
            prop_assert!(stats.overflow_events >= prev_stats.overflow_events);
            prev_stats = stats;
        }

        // Drain: whatever is still pending must complete the stream.
        let (chunk, s, e) = b.claim_for_reader(observer, usize::MAX);
        let got = values_of(&chunk);
        let want: Vec<i64> = expected.iter().copied().collect();
        prop_assert_eq!(got, want, "tail lost or duplicated");
        b.commit_claim(observer, s, e);
        prop_assert_eq!(b.pending_for(observer), 0);
    }

    // Monotone shed/overflow counters and a strict residency bound under
    // `ShedOldest`, whatever the interleaving of appends, reads, clears
    // and capacity changes.
    #[test]
    fn shed_and_overflow_counters_stay_monotone(
        caps in prop::collection::vec(1usize..8, 1..4),
        batches in prop::collection::vec(1usize..12, 1..60),
    ) {
        let b = Basket::bounded(
            "b",
            Schema::new(vec![("x".into(), DataType::Int)]),
            Some(caps[0]),
            OverflowPolicy::ShedOldest,
        )
        .unwrap();
        let reader = b.register_reader(true);
        let mut prev = b.stats();
        let mut v = 0i64;
        for (i, n) in batches.iter().enumerate() {
            let rows: Vec<Vec<Value>> = (0..*n)
                .map(|_| {
                    v += 1;
                    vec![Value::Int(v)]
                })
                .collect();
            b.append_rows(&rows).unwrap();
            let cap = b.capacity().unwrap();
            prop_assert!(b.len() <= cap, "ShedOldest bound is strict");
            match i % 4 {
                0 => {
                    let (_, end) = b.snapshot_for_reader(reader, usize::MAX);
                    b.commit_reader(reader, end);
                }
                1 => {
                    let (_, s, e) = b.claim_for_reader(reader, 2);
                    b.rewind_claim(reader, s, e);
                }
                2 => {
                    b.clear();
                }
                _ => {
                    b.set_capacity(Some(caps[i % caps.len()]), OverflowPolicy::ShedOldest);
                }
            }
            let stats = b.stats();
            prop_assert!(stats.appended >= prev.appended);
            prop_assert!(stats.consumed >= prev.consumed);
            prop_assert!(stats.shed >= prev.shed);
            prop_assert!(stats.overflow_events >= prev.overflow_events);
            prev = stats;
        }
    }

    // The row and chunk append paths are one splice: for arbitrary typed
    // rows, batch splits, capacity and every overflow policy, appending
    // via `append_rows` and via `append_chunk` of the transposed rows
    // leaves identical contents (modulo `ts`), identical stats, and WALs
    // that replay to those same contents.
    #[test]
    fn row_and_chunk_appends_are_one_splice(
        values in prop::collection::vec(0i64..1000, 1..60),
        splits in prop::collection::vec(1usize..9, 1..8),
        cap in 1usize..12,
    ) {
        let rows: Vec<Vec<Value>> = values.iter().map(|&v| typed_row(v)).collect();
        for policy in [
            OverflowPolicy::Block,
            OverflowPolicy::Reject,
            OverflowPolicy::ShedOldest,
            OverflowPolicy::Spill { mem_rows: cap },
        ] {
            let dir = TempDir::new("append-differential");
            let by_rows = persistent_basket(&dir, "rows", cap, policy);
            let by_chunk = persistent_basket(&dir, "chunk", cap, policy);
            // `Block` goes through the non-waiting entry points: nobody
            // consumes here, so a full basket must surface as
            // `Backpressure`, not park the test.
            let wait = policy != OverflowPolicy::Block;
            let mut offset = 0;
            for n in splits.iter().cycle() {
                if offset == rows.len() {
                    break;
                }
                let batch = &rows[offset..(offset + n).min(rows.len())];
                offset += batch.len();
                let chunk = transposed(batch);
                let (r, c) = if wait {
                    (by_rows.append_rows(batch), by_chunk.append_chunk(&chunk))
                } else {
                    (by_rows.try_append_rows(batch), by_chunk.try_append_chunk(&chunk))
                };
                match (r, c) {
                    (Ok(()), Ok(())) => {}
                    (
                        Err(DataCellError::Backpressure { .. }),
                        Err(DataCellError::Backpressure { .. }),
                    ) => {
                        // Full-or-nothing on both; make room and go on.
                        prop_assert_eq!(by_rows.clear(), by_chunk.clear());
                    }
                    (r, c) => prop_assert!(false, "outcomes differ: {r:?} vs {c:?}"),
                }
                prop_assert_eq!(by_rows.stats(), by_chunk.stats());
                prop_assert_eq!(by_rows.resident_len(), by_chunk.resident_len());
            }
            let live = by_rows.snapshot();
            prop_assert_eq!(user_rows(&live), user_rows(&by_chunk.snapshot()));
            let ts = live.columns.last().unwrap().as_timestamps().unwrap();
            prop_assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts monotone in oid order");
            let replayed = replayed_rows(&dir, "rows", by_rows.schema());
            prop_assert_eq!(&replayed, &replayed_rows(&dir, "chunk", by_chunk.schema()));
            prop_assert_eq!(replayed, user_rows(&live));
        }
    }
}

/// Stamping happens under the basket lock, after admission: concurrent
/// `append_rows` callers leave a `ts` column that is non-decreasing in oid
/// order, however their validation/transposition work interleaves.
#[test]
fn concurrent_row_appends_keep_ts_monotone() {
    const PER_THREAD: i64 = 2_000;
    let b = Arc::new(int_basket());
    let start = Arc::new(Barrier::new(2));
    let writers: Vec<_> = (0..2)
        .map(|t| {
            let (b, start) = (Arc::clone(&b), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    let rows: Vec<Vec<Value>> =
                        (0..1 + i % 4).map(|_| vec![Value::Int(t)]).collect();
                    b.append_rows(&rows).unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let snap = b.snapshot();
    let ts = snap.columns[1].as_timestamps().unwrap();
    assert_eq!(ts.len() as u64, b.stats().appended);
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts regressed");
    for t in 0..2 {
        let n = values_of(&snap).iter().filter(|&&v| v == t).count() as i64;
        assert_eq!(n, (0..PER_THREAD).map(|i| 1 + i % 4).sum::<i64>());
    }
}

/// The PR-3 "exclusive consumption vs concurrent shed" corner, fixed by
/// oid-anchored consumption: a `ShedOldest` basket that sheds *while* an
/// exclusive factory is mid-step (after its snapshot, before its
/// consumption) must not let the post-step delete eat newer tuples that
/// shifted into the processed positions. The shed bumps the layout epoch,
/// so `consume_exclusive` takes its shift-corrected anchored fallback.
#[test]
fn exclusive_consumption_is_oid_anchored_under_mid_step_shed() {
    let b = Basket::bounded(
        "b",
        Schema::new(vec![("x".into(), DataType::Int)]),
        Some(4),
        OverflowPolicy::ShedOldest,
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..4).map(|i| vec![Value::Int(i)]).collect();
    b.append_rows(&rows).unwrap();

    // The factory step starts: snapshot anchored at the current head oid.
    let (snap, anchor) = b.snapshot_exclusive(usize::MAX);
    assert_eq!(values_of(&snap), vec![0, 1, 2, 3]);

    // Mid-step, a receptor appends past capacity: tuples 0 and 1 shed.
    b.append_rows(&[vec![Value::Int(4)], vec![Value::Int(5)]])
        .unwrap();
    assert_eq!(values_of(&b.snapshot()), vec![2, 3, 4, 5]);

    // The step's basket expression referenced snapshot positions {0,1,2}
    // (tuples 0, 1, 2). Anchored consumption deletes only the survivor
    // among them (tuple 2); positional consumption would have deleted the
    // *current* positions {0,1,2} = tuples 2, 3, 4 — eating tuple 4, which
    // the step never saw, and keeping tuple 3's fate wrong both ways.
    let removed = b
        .consume_exclusive(
            &anchor,
            &datacell_bat::candidates::Candidates::from_positions(vec![0, 1, 2]).unwrap(),
        )
        .unwrap();
    assert_eq!(removed, 1, "only the surviving processed tuple is deleted");
    assert_eq!(
        values_of(&b.snapshot()),
        vec![3, 4, 5],
        "unprocessed tuple 3 and newer arrivals 4, 5 stay resident"
    );

    // Consuming a whole old snapshot (a plain `[select * from b]`) anchors
    // the same way: it deletes only the snapshot's survivors.
    let (snap2, anchor2) = b.snapshot_exclusive(usize::MAX);
    assert_eq!(values_of(&snap2), vec![3, 4, 5]);
    b.append_rows(&[vec![Value::Int(6)], vec![Value::Int(7)]])
        .unwrap(); // 3 + 2 > capacity 4: sheds tuple 3
    assert_eq!(values_of(&b.snapshot()), vec![4, 5, 6, 7]);
    let removed = b
        .consume_exclusive(
            &anchor2,
            &datacell_bat::candidates::Candidates::all(snap2.len()),
        )
        .unwrap();
    assert_eq!(removed, 2, "of the snapshot [3,4,5], only 4 and 5 reside");
    assert_eq!(values_of(&b.snapshot()), vec![6, 7]);

    // Sheds and consumption stayed correctly accounted.
    let stats = b.stats();
    assert_eq!(stats.shed, 3, "0, 1, then 3 were shed");
    assert_eq!(stats.consumed, 3, "2, then 4 and 5 were consumed");
}

/// The documented `SubscriptionMode::Shared` rewind corner (see the enum's
/// rustdoc): a claim rewound *behind* an already-committed later claim
/// re-opens the committed range too — at-least-once, no loss, no reorder
/// within a claim.
#[test]
fn shared_rewind_behind_committed_claim_redelivers_at_least_once() {
    let b = int_basket();
    let pool = b.register_reader(true);
    let rows: Vec<Vec<Value>> = (0..6).map(|i| vec![Value::Int(i)]).collect();
    b.append_rows(&rows).unwrap();

    // Two competing consumers claim adjacent ranges.
    let (a_chunk, a_start, a_end) = b.claim_for_reader(pool, 2);
    let (b_chunk, b_start, b_end) = b.claim_for_reader(pool, 2);
    assert_eq!(values_of(&a_chunk), vec![0, 1]);
    assert_eq!(values_of(&b_chunk), vec![2, 3]);

    // The *later* claim is acknowledged first (consumer B is fast)...
    b.commit_claim(pool, b_start, b_end);
    // ...then consumer A dies mid-delivery and its claim is rewound.
    b.rewind_claim(pool, a_start, a_end);

    // Nothing was trimmed: the failed range still holds the watermark.
    assert_eq!(b.len(), 6, "no loss");

    // A surviving consumer re-claims from the rewound start: it receives
    // the failed range *and* the already-committed later range again
    // (at-least-once), in stream order, followed by the undelivered tail.
    let (re_chunk, re_start, re_end) = b.claim_for_reader(pool, usize::MAX);
    assert_eq!(
        values_of(&re_chunk),
        vec![0, 1, 2, 3, 4, 5],
        "redelivery covers the rewound range, the committed-later range \
         (duplicated — at-least-once), and the tail, in order"
    );
    b.commit_claim(pool, re_start, re_end);
    assert!(b.is_empty(), "all claims acknowledged: trimmed");

    // Per-tuple accounting: 0,1 delivered once (rewound before delivery),
    // 2,3 delivered twice, 4,5 once — never zero times.
    let delivered = [1, 1, 2, 2, 1, 1];
    let mut counts = [0usize; 6];
    for v in values_of(&a_chunk)
        .iter()
        .chain(values_of(&b_chunk).iter())
        .chain(values_of(&re_chunk).iter())
    {
        counts[*v as usize] += 1;
    }
    // a_chunk was rewound before reaching its sink: subtract its claim.
    counts[0] -= 1;
    counts[1] -= 1;
    assert_eq!(counts, delivered);
}
