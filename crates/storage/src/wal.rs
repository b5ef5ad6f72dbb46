//! The per-basket write-ahead log: durable appends with group commit.
//!
//! A persistent basket funnels every mutation through an append-only log
//! of CRC-framed records:
//!
//! ```text
//! record := len:u32  kind:u8  body  crc:u32(kind + body)
//! kind 1 = Rows      body = columnar codec payload (full width incl. ts)
//! kind 2 = TrimTo    body = oid:u64       (head dropped below this oid)
//! kind 3 = Consume   body = n:u32, position:u32 × n   (positional delete)
//! ```
//!
//! **Group commit.** [`Wal::append_rows`] writes the record under the log lock
//! and returns a sequence number without waiting for the disk;
//! [`Wal::sync_to`] makes it durable, and [`Wal::durable_len`] is the file
//! length the last completed sync covered — the log a power loss leaves. While one thread is inside
//! `fdatasync`, later committers park on a condvar and are all released by
//! that single sync if it covered their records — concurrent appenders
//! share fsyncs instead of queueing one each, which is where the paper's
//! batched-ingest advantage survives durability.
//!
//! **One copy per record.** A record is framed in place: the codec
//! encodes the body into the log's reused frame buffer behind a reserved
//! `len | kind` header, the CRC runs over `kind + body` where they lie, and
//! one `write_all` hands the frame to the file.
//!
//! Replay ([`read_wal`]) stops cleanly at the first torn or corrupt
//! record (the crash tail) and reports how many bytes were dropped; a
//! record that was never acknowledged durable carries no guarantee.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
#[cfg(any(test, feature = "fault-injection"))]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use datacell_bat::column::Column;
use datacell_engine::Chunk;
use datacell_sql::Schema;
use parking_lot::{Condvar, Mutex};

use crate::codec;
use crate::crc::crc32;
use crate::error::{Result, StorageError};
use crate::store::StorageMetrics;

/// File name of a basket's write-ahead log.
pub const WAL_FILE: &str = "wal.log";

/// One replayed log record.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A batch of appended rows (full basket width, including `ts`).
    Rows(Chunk),
    /// The head of the stream was dropped below this oid (trim, shed,
    /// clear).
    TrimTo(u64),
    /// Positional delete relative to the then-current residents (the §2.6
    /// basket-expression side effect on an exclusive basket).
    Consume(Vec<u32>),
    /// Accounting carried across a compaction: the basket's lifetime
    /// `appended`/`consumed` totals and the oid of the first row that
    /// follows — so repeated recoveries keep oid continuity and the
    /// receptor-`SYNC`-style counters never reset.
    Baseline {
        /// Lifetime appended total at compaction time.
        appended: u64,
        /// Lifetime consumed total at compaction time.
        consumed: u64,
        /// Oid of the first live row.
        base_oid: u64,
    },
}

const KIND_ROWS: u8 = 1;
const KIND_TRIM: u8 = 2;
const KIND_CONSUME: u8 = 3;
const KIND_BASELINE: u8 = 4;

#[derive(Debug)]
struct WalInner {
    file: File,
    /// Records written (not necessarily durable yet).
    written_seq: u64,
    /// Records known durable (covered by a completed fdatasync).
    durable_seq: u64,
    /// A sync is in flight on some thread; others wait on the condvar.
    syncing: bool,
    /// Approximate live-log size: bytes present at open plus bytes
    /// appended since; reset by [`Wal::checkpoint`].
    bytes_written: u64,
    /// `bytes_written` as of the last completed sync (or checkpoint): the
    /// prefix of the file that survives a power loss.
    durable_len: u64,
    /// The error of a failed sync, returned to every later sync until a
    /// checkpoint rewrites the log: the kernel may have dropped the pages
    /// that sync was writing, so no later sync can vouch for them.
    sync_failed: Option<StorageError>,
    /// The frame of the record being appended, reused across appends.
    frame: Vec<u8>,
}

/// Largest frame buffer a log keeps between appends; a larger one (a big
/// batch) is released once written.
const FRAME_KEEP_BYTES: usize = 1 << 20;

/// An open write-ahead log (see module docs).
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalInner>,
    synced: Condvar,
    /// Counts the log's fdatasyncs (`wal_syncs`).
    metrics: Arc<StorageMetrics>,
    /// Set by [`Wal::fail_next_sync`]: the next fdatasync fails.
    #[cfg(any(test, feature = "fault-injection"))]
    fail_next_sync: AtomicBool,
}

impl Wal {
    /// Open (creating if absent) the log at `path`, appending at the end.
    pub fn open(path: &Path) -> Result<Wal> {
        Wal::open_counted(path, Arc::default())
    }

    /// [`Wal::open`], counting the log's syncs in `metrics`.
    pub fn open_counted(path: &Path, metrics: Arc<StorageMetrics>) -> Result<Wal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        // Whatever the file holds at open is on disk as far as this log
        // knows: nothing it writes is durable before its first sync.
        let existing = file.metadata()?.len();
        Ok(Wal {
            path: path.to_path_buf(),
            inner: Mutex::new(WalInner {
                file,
                written_seq: 0,
                durable_seq: 0,
                syncing: false,
                bytes_written: existing,
                durable_len: existing,
                sync_failed: None,
                frame: Vec::new(),
            }),
            synced: Condvar::new(),
            metrics,
            #[cfg(any(test, feature = "fault-injection"))]
            fail_next_sync: AtomicBool::new(false),
        })
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append a batch-of-rows record; returns the sequence number to pass
    /// to [`Wal::sync_to`] for a durability guarantee.
    pub fn append_rows(&self, chunk: &Chunk) -> Result<u64> {
        self.append_record(KIND_ROWS, |body| codec::encode_chunk_into(body, chunk))
    }

    /// [`Wal::append_rows`] of rows `rows` of equal-length `columns` (full
    /// basket width), encoded straight from them: a basket logs its newly
    /// appended tail without copying it out first.
    pub fn append_row_range(&self, columns: &[Column], rows: Range<usize>) -> Result<u64> {
        self.append_record(KIND_ROWS, |body| {
            codec::encode_rows_into(body, columns, rows)
        })
    }

    /// Append a head-trim record (no fsync needed for correctness: replay
    /// of a lost trim only re-delivers, never loses).
    pub fn append_trim(&self, to_oid: u64) -> Result<u64> {
        self.append_record(KIND_TRIM, |body| {
            body.extend_from_slice(&to_oid.to_le_bytes());
            Ok(())
        })
    }

    /// Append a positional-consume record.
    pub fn append_consume(&self, positions: &[usize]) -> Result<u64> {
        let n = u32::try_from(positions.len())
            .map_err(|_| StorageError::Invalid("too many consume positions".into()))?;
        self.append_record(KIND_CONSUME, |body| {
            body.reserve(4 + positions.len() * 4);
            body.extend_from_slice(&n.to_le_bytes());
            for &p in positions {
                let p = u32::try_from(p)
                    .map_err(|_| StorageError::Invalid("consume position overflows u32".into()))?;
                body.extend_from_slice(&p.to_le_bytes());
            }
            Ok(())
        })
    }

    /// Frame one record in the log's reused buffer and write it.
    fn append_record(
        &self,
        kind: u8,
        body: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<u64> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        encode_frame(&mut inner.frame, kind, body)?;
        inner.file.write_all(&inner.frame)?;
        inner.written_seq += 1;
        inner.bytes_written += inner.frame.len() as u64;
        if inner.frame.capacity() > FRAME_KEEP_BYTES {
            inner.frame = Vec::new();
        }
        Ok(inner.written_seq)
    }

    /// Compact the **live** log in place (the PR-5 "compaction only
    /// happens at recovery" corner): write a fresh log holding a
    /// [`WalRecord::Baseline`] plus `chunk` as a single rows record — the
    /// basket's full logical contents at the cut — fsync it, rename it
    /// over the current file, and swap the append handle onto the new
    /// file. The whole sequence runs under the log lock, so records
    /// appended after the checkpoint land strictly behind the baseline.
    ///
    /// The caller must hold whatever lock makes `(appended, consumed,
    /// base_oid, chunk)` a consistent cut of the state the log describes
    /// (for a basket: the basket lock), or concurrent mutations could
    /// slip between the snapshot and the swap and be lost from the log.
    ///
    /// A crash before the rename leaves the old log intact; after it, the
    /// new one — never a mix. Everything the checkpoint wrote is fsynced
    /// before the swap, so [`Wal::sync_to`] targets taken before the
    /// checkpoint are already satisfied and `durable_seq` jumps to
    /// `written_seq`; a failed sync's error is cleared with it.
    pub fn checkpoint(
        &self,
        appended: u64,
        consumed: u64,
        base_oid: u64,
        chunk: &Chunk,
    ) -> Result<()> {
        let mut inner = self.inner.lock();
        let tmp = self.path.with_extension("log.tmp");
        let mut bytes = 0u64;
        {
            let mut file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)?;
            // A checkpoint is rare and may be large: frame it in a buffer
            // of its own rather than grow the append buffer.
            let mut frame = Vec::new();
            encode_frame(&mut frame, KIND_BASELINE, |body| {
                body.extend_from_slice(&appended.to_le_bytes());
                body.extend_from_slice(&consumed.to_le_bytes());
                body.extend_from_slice(&base_oid.to_le_bytes());
                Ok(())
            })?;
            file.write_all(&frame)?;
            bytes += frame.len() as u64;
            if !chunk.is_empty() {
                encode_frame(&mut frame, KIND_ROWS, |body| {
                    codec::encode_chunk_into(body, chunk)
                })?;
                file.write_all(&frame)?;
                bytes += frame.len() as u64;
            }
            file.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            crate::segment::sync_dir(dir)?;
        }
        inner.file = OpenOptions::new().append(true).open(&self.path)?;
        inner.bytes_written = bytes;
        inner.durable_len = bytes;
        inner.durable_seq = inner.written_seq;
        inner.sync_failed = None;
        self.synced.notify_all();
        Ok(())
    }

    /// Block until record `seq` is durable. Group commit: if another
    /// thread's in-flight fdatasync covers `seq`, this call just waits for
    /// it; otherwise it runs the sync itself, making every record written
    /// so far durable in one call.
    ///
    /// A failed sync stays failed: this and every later call for a record
    /// it did not make durable returns its error, and
    /// [`Wal::durable_len`] stays put, until a [`Wal::checkpoint`]
    /// rewrites the log. (A retry that succeeded would vouch for pages the
    /// kernel may have dropped with the failure.)
    pub fn sync_to(&self, seq: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        loop {
            if inner.durable_seq >= seq {
                return Ok(());
            }
            if let Some(e) = &inner.sync_failed {
                return Err(e.clone());
            }
            if inner.syncing {
                // Piggyback on the in-flight sync.
                self.synced.wait(&mut inner);
                continue;
            }
            let (target, target_len) = (inner.written_seq, inner.bytes_written);
            // fdatasync outside the lock so appenders keep writing.
            let file = inner.file.try_clone()?;
            inner.syncing = true;
            drop(inner);
            self.metrics.wal_syncs.fetch_add(1, Ordering::Relaxed);
            let result = self.sync_data(&file);
            inner = self.inner.lock();
            inner.syncing = false;
            // A checkpoint while the sync ran made everything durable
            // already, in a file of its own length (and of its own fate).
            if inner.durable_seq < target {
                match result {
                    Ok(()) => {
                        inner.durable_seq = target;
                        inner.durable_len = target_len;
                    }
                    Err(e) => inner.sync_failed = Some(e.into()),
                }
            }
            // Waiters see the new durable mark or the failure.
            self.synced.notify_all();
        }
    }

    /// Approximate size of the live log file: bytes present at open plus
    /// bytes appended since, reset to the compacted size by
    /// [`Wal::checkpoint`]. Drives size-threshold checkpoint triggers.
    pub fn bytes_written(&self) -> u64 {
        self.inner.lock().bytes_written
    }

    /// Length of the log file its last completed [`Wal::sync_to`] (or
    /// [`Wal::checkpoint`]) covered: every record a returned `sync_to`
    /// promised lies within it, so cutting the file here — what a power
    /// loss may do to the unsynced tail — replays them all.
    pub fn durable_len(&self) -> u64 {
        self.inner.lock().durable_len
    }

    /// True iff a failed sync is stored: every [`Wal::sync_to`] of a
    /// record not yet durable fails until a [`Wal::checkpoint`].
    pub fn sync_failed(&self) -> bool {
        self.inner.lock().sync_failed.is_some()
    }

    /// Make this log's next fdatasync fail, for tests of the failure path
    /// (feature `fault-injection`).
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn fail_next_sync(&self) {
        self.fail_next_sync.store(true, Ordering::Relaxed);
    }

    /// `file.sync_data()`, failing once after [`Wal::fail_next_sync`].
    fn sync_data(&self, file: &File) -> std::io::Result<()> {
        #[cfg(any(test, feature = "fault-injection"))]
        if self.fail_next_sync.swap(false, Ordering::Relaxed) {
            return Err(std::io::Error::other("injected fdatasync failure"));
        }
        file.sync_data()
    }
}

/// CRC-frame one record into `frame` (cleared first): `len | kind | body |
/// crc`. `body` appends the record body behind the reserved header; the
/// length is patched in and the CRC computed over `kind + body` in place.
fn encode_frame(
    frame: &mut Vec<u8>,
    kind: u8,
    body: impl FnOnce(&mut Vec<u8>) -> Result<()>,
) -> Result<()> {
    frame.clear();
    frame.extend_from_slice(&[0; 4]);
    frame.push(kind);
    body(frame)?;
    let len = u32::try_from(frame.len() - 4)
        .map_err(|_| StorageError::Invalid("record larger than 4 GiB".into()))?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&frame[4..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Atomically replace the log at `path` with a compact one: a
/// [`WalRecord::Baseline`] carrying the accounting totals, then `chunk`
/// as a single rows record (recovery's compaction step: after a replay
/// the live contents *are* the log). This is [`Wal::checkpoint`] on the
/// log at `path`: a crash leaves either the old log or the new one, never
/// a mix.
pub fn rewrite_wal(
    path: &Path,
    appended: u64,
    consumed: u64,
    base_oid: u64,
    chunk: &Chunk,
) -> Result<()> {
    Wal::open(path)?.checkpoint(appended, consumed, base_oid, chunk)
}

/// Outcome of a WAL replay.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Decoded records, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes of valid log consumed.
    pub bytes_read: u64,
    /// Bytes dropped at the tail (a torn final record from a crash mid
    /// write; zero for a clean log).
    pub torn_bytes: u64,
}

/// Read a log back, decoding rows against the basket's full `schema`
/// (user columns + `ts`). A torn or CRC-invalid *tail* ends the replay
/// cleanly; corruption *followed by more valid data* is reported as an
/// error, because silently skipping a middle record would reorder the
/// stream.
pub fn read_wal(path: &Path, schema: &Schema) -> Result<WalReplay> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(e) => return Err(e.into()),
    }
    let mut replay = WalReplay::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match decode_record(&bytes[pos..], schema) {
            Ok((record, used)) => {
                replay.records.push(record);
                pos += used;
            }
            Err(_) => {
                // The tail is torn: drop it. (If this were mid-file
                // corruption, the bytes after it would be framing noise
                // anyway — there is no resynchronization marker — so the
                // conservative contract is: replay the valid prefix.)
                replay.torn_bytes = (bytes.len() - pos) as u64;
                break;
            }
        }
    }
    replay.bytes_read = (bytes.len() as u64) - replay.torn_bytes;
    Ok(replay)
}

fn decode_record(bytes: &[u8], schema: &Schema) -> Result<(WalRecord, usize)> {
    let corrupt = |m: &str| StorageError::Corrupt(m.to_string());
    if bytes.len() < 4 {
        return Err(corrupt("torn length prefix"));
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    if len == 0 || bytes.len() < 4 + len + 4 {
        return Err(corrupt("torn record"));
    }
    let content = &bytes[4..4 + len];
    let crc = u32::from_le_bytes(bytes[4 + len..4 + len + 4].try_into().expect("4 bytes"));
    if crc32(content) != crc {
        return Err(corrupt("record CRC mismatch"));
    }
    let body = &content[1..];
    let record = match content[0] {
        KIND_ROWS => WalRecord::Rows(codec::decode_chunk(body, schema)?),
        KIND_TRIM => {
            if body.len() != 8 {
                return Err(corrupt("bad trim record"));
            }
            WalRecord::TrimTo(u64::from_le_bytes(body.try_into().expect("8 bytes")))
        }
        KIND_CONSUME => {
            if body.len() < 4 {
                return Err(corrupt("bad consume record"));
            }
            let n = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
            if body.len() != 4 + n * 4 {
                return Err(corrupt("bad consume record length"));
            }
            let positions = body[4..]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            WalRecord::Consume(positions)
        }
        KIND_BASELINE => {
            if body.len() != 24 {
                return Err(corrupt("bad baseline record"));
            }
            WalRecord::Baseline {
                appended: u64::from_le_bytes(body[0..8].try_into().expect("8 bytes")),
                consumed: u64::from_le_bytes(body[8..16].try_into().expect("8 bytes")),
                base_oid: u64::from_le_bytes(body[16..24].try_into().expect("8 bytes")),
            }
        }
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown record kind {other}"
            )))
        }
    };
    Ok((record, 4 + len + 4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use datacell_bat::column::Column;
    use datacell_bat::types::DataType;
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::new(vec![
            ("x".into(), DataType::Int),
            ("ts".into(), DataType::Timestamp),
        ])
    }

    fn rows(vals: &[i64]) -> Chunk {
        Chunk::new(
            schema(),
            vec![
                Column::from_ints(vals.to_vec()),
                Column::from_timestamps(vals.iter().map(|&v| v * 10).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let dir = TempDir::new("wal-roundtrip");
        let path = dir.path().join(WAL_FILE);
        let wal = Wal::open(&path).unwrap();
        let s1 = wal.append_rows(&rows(&[1, 2])).unwrap();
        wal.append_trim(1).unwrap();
        let s3 = wal.append_consume(&[0, 2]).unwrap();
        assert!(s3 > s1);
        wal.sync_to(s3).unwrap();
        assert!(wal.bytes_written() > 0);
        drop(wal);

        let replay = read_wal(&path, &schema()).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.records.len(), 3);
        match &replay.records[0] {
            WalRecord::Rows(c) => {
                assert_eq!(c.columns[0].as_ints().unwrap(), &[1, 2]);
                assert_eq!(c.columns[1].as_timestamps().unwrap(), &[10, 20]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(replay.records[1], WalRecord::TrimTo(1)));
        assert!(matches!(&replay.records[2], WalRecord::Consume(p) if *p == vec![0, 2]));

        // Re-opening appends after the existing records.
        let wal = Wal::open(&path).unwrap();
        let s = wal.append_trim(2).unwrap();
        wal.sync_to(s).unwrap();
        let replay = read_wal(&path, &schema()).unwrap();
        assert_eq!(replay.records.len(), 4);
    }

    #[test]
    fn torn_tail_replays_clean_prefix() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join(WAL_FILE);
        let wal = Wal::open(&path).unwrap();
        wal.append_rows(&rows(&[1])).unwrap();
        let s = wal.append_rows(&rows(&[2])).unwrap();
        wal.sync_to(s).unwrap();
        drop(wal);
        // Simulate a crash mid-write of the second record: every cut
        // inside it must replay exactly the first record, cleanly, and
        // report the dropped tail.
        let full = std::fs::read(&path).unwrap();
        let first_len = 4 + u32::from_le_bytes(full[..4].try_into().unwrap()) as usize + 4;
        assert!(first_len < full.len());
        for cut in first_len..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = read_wal(&path, &schema()).unwrap();
            assert_eq!(replay.records.len(), 1, "cut at {cut}");
            assert_eq!(replay.torn_bytes, (cut - first_len) as u64);
        }
    }

    #[test]
    fn power_loss_keeps_every_synced_record() {
        // A power loss keeps some prefix of the file no shorter than what
        // the last completed sync covered. Cut the log at every byte from
        // that length to the end: each record whose `sync_to` returned
        // replays, in order, whatever unsynced tail survives with it.
        let dir = TempDir::new("wal-power-loss");
        let path = dir.path().join(WAL_FILE);
        let metrics = Arc::new(StorageMetrics::default());
        let wal = Wal::open_counted(&path, Arc::clone(&metrics)).unwrap();
        assert_eq!(wal.durable_len(), 0);
        let mut synced = Vec::new();
        for batch in 0..3i64 {
            let mut last = 0;
            for i in 0..4 {
                let v = batch * 10 + i;
                last = wal.append_rows(&rows(&[v])).unwrap();
                synced.push(v);
            }
            wal.append_trim(batch as u64).unwrap();
            wal.sync_to(last).unwrap();
        }
        assert_eq!(metrics.snapshot().wal_syncs, 3);
        let durable = wal.durable_len();
        assert_eq!(durable, wal.bytes_written());
        // Written but never synced: may or may not survive.
        let columns = [
            Column::from_ints(vec![100, 101, 102]),
            Column::from_timestamps(vec![0, 1, 2]),
        ];
        wal.append_row_range(&columns, 1..3).unwrap();
        wal.append_consume(&[0]).unwrap();
        assert_eq!(wal.durable_len(), durable, "appends move no durable byte");
        drop(wal);

        let full = std::fs::read(&path).unwrap();
        assert!(durable < full.len() as u64);
        for cut in durable as usize..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = read_wal(&path, &schema()).unwrap();
            let ints: Vec<i64> = replay
                .records
                .iter()
                .filter_map(|r| match r {
                    WalRecord::Rows(c) => Some(c.columns[0].as_ints().unwrap().to_vec()),
                    _ => None,
                })
                .flatten()
                .collect();
            assert_eq!(ints[..synced.len()], synced[..], "cut at {cut}");
            if ints.len() > synced.len() {
                assert_eq!(ints[synced.len()..], [101, 102], "cut at {cut}");
            }
        }
    }

    #[test]
    fn failed_sync_stays_failed_until_a_checkpoint() {
        let dir = TempDir::new("wal-sync-failed");
        let metrics = Arc::new(StorageMetrics::default());
        let wal = Wal::open_counted(&dir.path().join(WAL_FILE), Arc::clone(&metrics)).unwrap();
        let s1 = wal.append_rows(&rows(&[1])).unwrap();
        wal.sync_to(s1).unwrap();
        let durable = wal.durable_len();
        let s2 = wal.append_rows(&rows(&[2])).unwrap();
        wal.fail_next_sync();
        let failed = wal.sync_to(s2).unwrap_err();
        assert!(wal.sync_failed());
        assert!(matches!(&failed, StorageError::Io(m) if m.contains("injected")));
        // The disk would take the next sync, but it could not vouch for
        // the pages the failed one was writing: no retry is made.
        let s3 = wal.append_rows(&rows(&[3])).unwrap();
        assert_eq!(wal.sync_to(s2), Err(failed.clone()));
        assert_eq!(wal.sync_to(s3), Err(failed));
        assert_eq!(wal.durable_len(), durable);
        assert_eq!(metrics.snapshot().wal_syncs, 2);
        // What was durable before the failure stays durable.
        wal.sync_to(s1).unwrap();

        // A checkpoint rewrites the live contents into a synced file.
        wal.checkpoint(3, 0, 0, &rows(&[1, 2, 3])).unwrap();
        assert!(!wal.sync_failed());
        assert_eq!(wal.durable_len(), wal.bytes_written());
        wal.sync_to(s3).unwrap();
        let s4 = wal.append_rows(&rows(&[4])).unwrap();
        wal.sync_to(s4).unwrap();
        assert_eq!(wal.durable_len(), wal.bytes_written());
        assert_eq!(metrics.snapshot().wal_syncs, 3);
    }

    #[test]
    fn concurrent_group_commit_durable_for_all() {
        let dir = TempDir::new("wal-group");
        let path = dir.path().join(WAL_FILE);
        let wal = Arc::new(Wal::open(&path).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let seq = wal.append_rows(&rows(&[t * 100 + i])).unwrap();
                        wal.sync_to(seq).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let replay = read_wal(&path, &schema()).unwrap();
        assert_eq!(replay.records.len(), 100);
        assert_eq!(replay.torn_bytes, 0);
    }
}
