//! The segment store: one root data directory, one subdirectory per
//! basket, shared spill/recovery counters.
//!
//! ```text
//! <data_dir>/
//!   <basket>/
//!     manifest.txt            — schema + policy, written at creation
//!     wal.log                 — the append log (persistent baskets)
//!     seg-<base_oid>.seg      — sealed spill segments
//! ```
//!
//! The store is deliberately mechanism, not policy: *when* to spill, trim
//! or replay is the engine's decision (`datacell::basket`); this module
//! owns the files, their durability discipline, and the counters that end
//! up in `MetricsSnapshot`.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use datacell_bat::types::DataType;
use datacell_engine::Chunk;
use datacell_sql::Schema;

use crate::error::{Result, StorageError};
use crate::segment::{self, SegmentMeta};
use crate::wal::{Wal, WAL_FILE};

/// Shared monotone counters (plus the `bytes_on_disk` gauge) for every
/// basket under one store.
#[derive(Debug, Default)]
pub struct StorageMetrics {
    /// Tuples written into spill segments.
    pub tuples_spilled: AtomicU64,
    /// Segments sealed.
    pub segments_written: AtomicU64,
    /// Segment files decoded back (spill re-reads and unspills).
    pub segments_read: AtomicU64,
    /// Segment files deleted (fully-consumed trims, unspills, cleanup).
    pub segments_deleted: AtomicU64,
    /// Live bytes across all segment files (gauge).
    pub bytes_on_disk: AtomicU64,
    /// Baskets rebuilt by recovery.
    pub baskets_recovered: AtomicU64,
    /// Tuples restored into baskets by recovery.
    pub tuples_recovered: AtomicU64,
    /// Valid WAL bytes replayed by recovery.
    pub wal_bytes_replayed: AtomicU64,
    /// Torn WAL tail bytes dropped by recovery.
    pub wal_bytes_torn: AtomicU64,
    /// WAL `fdatasync` calls made by group commits.
    pub wal_syncs: AtomicU64,
}

/// Point-in-time copy of [`StorageMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageMetricsSnapshot {
    /// Tuples written into spill segments.
    pub tuples_spilled: u64,
    /// Segments sealed.
    pub segments_written: u64,
    /// Segment files decoded back.
    pub segments_read: u64,
    /// Segment files deleted.
    pub segments_deleted: u64,
    /// Live bytes across all segment files.
    pub bytes_on_disk: u64,
    /// Baskets rebuilt by recovery.
    pub baskets_recovered: u64,
    /// Tuples restored into baskets by recovery.
    pub tuples_recovered: u64,
    /// Valid WAL bytes replayed by recovery.
    pub wal_bytes_replayed: u64,
    /// Torn WAL tail bytes dropped by recovery.
    pub wal_bytes_torn: u64,
    /// WAL `fdatasync` calls made by group commits.
    pub wal_syncs: u64,
}

impl StorageMetrics {
    /// Snapshot every counter.
    pub fn snapshot(&self) -> StorageMetricsSnapshot {
        StorageMetricsSnapshot {
            tuples_spilled: self.tuples_spilled.load(Ordering::Relaxed),
            segments_written: self.segments_written.load(Ordering::Relaxed),
            segments_read: self.segments_read.load(Ordering::Relaxed),
            segments_deleted: self.segments_deleted.load(Ordering::Relaxed),
            bytes_on_disk: self.bytes_on_disk.load(Ordering::Relaxed),
            baskets_recovered: self.baskets_recovered.load(Ordering::Relaxed),
            tuples_recovered: self.tuples_recovered.load(Ordering::Relaxed),
            wal_bytes_replayed: self.wal_bytes_replayed.load(Ordering::Relaxed),
            wal_bytes_torn: self.wal_bytes_torn.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
        }
    }
}

/// Everything recovery needs to re-create one basket (parsed from
/// `manifest.txt`). The policy/durability fields are plain data here; the
/// engine layer maps them onto its own enums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasketManifest {
    /// Basket name.
    pub name: String,
    /// User columns (no implicit `ts`).
    pub columns: Vec<(String, DataType)>,
    /// Appends are WAL-logged and survive restart.
    pub persistent: bool,
    /// Overflow policy: `"block"`, `"reject"`, `"shed"`, or
    /// `"spill:<mem_rows>"`.
    pub policy: String,
    /// Tuple capacity (`None` = unbounded).
    pub capacity: Option<u64>,
}

const MANIFEST_FILE: &str = "manifest.txt";
const MANIFEST_HEADER: &str = "datacell-basket-manifest v1";

fn type_name(ty: DataType) -> &'static str {
    match ty {
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Bool => "bool",
        DataType::Str => "str",
        DataType::Timestamp => "timestamp",
    }
}

fn name_type(name: &str) -> Option<DataType> {
    Some(match name {
        "int" => DataType::Int,
        "float" => DataType::Float,
        "bool" => DataType::Bool,
        "str" => DataType::Str,
        "timestamp" => DataType::Timestamp,
        _ => return None,
    })
}

impl BasketManifest {
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(MANIFEST_HEADER);
        out.push('\n');
        out.push_str(&format!("name={}\n", self.name));
        out.push_str(&format!(
            "durability={}\n",
            if self.persistent {
                "persistent"
            } else {
                "ephemeral"
            }
        ));
        out.push_str(&format!("policy={}\n", self.policy));
        out.push_str(&format!(
            "capacity={}\n",
            self.capacity.map_or("none".to_string(), |c| c.to_string())
        ));
        for (name, ty) in &self.columns {
            // Type first: a column name may contain anything but newlines.
            out.push_str(&format!("column={}:{}\n", type_name(*ty), name));
        }
        out
    }

    fn parse(text: &str) -> Result<BasketManifest> {
        let invalid = |m: String| StorageError::Invalid(format!("manifest: {m}"));
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(invalid("bad header".into()));
        }
        let mut name = None;
        let mut persistent = None;
        let mut policy = None;
        let mut capacity = None;
        let mut columns = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| invalid(format!("bad line {line:?}")))?;
            match key {
                "name" => name = Some(value.to_string()),
                "durability" => persistent = Some(value == "persistent"),
                "policy" => policy = Some(value.to_string()),
                "capacity" => {
                    capacity = Some(if value == "none" {
                        None
                    } else {
                        Some(
                            value
                                .parse()
                                .map_err(|_| invalid(format!("bad capacity {value:?}")))?,
                        )
                    })
                }
                "column" => {
                    let (ty, col) = value
                        .split_once(':')
                        .ok_or_else(|| invalid(format!("bad column {value:?}")))?;
                    let ty =
                        name_type(ty).ok_or_else(|| invalid(format!("bad column type {ty:?}")))?;
                    columns.push((col.to_string(), ty));
                }
                other => return Err(invalid(format!("unknown key {other:?}"))),
            }
        }
        Ok(BasketManifest {
            name: name.ok_or_else(|| invalid("missing name".into()))?,
            columns,
            persistent: persistent.ok_or_else(|| invalid("missing durability".into()))?,
            policy: policy.ok_or_else(|| invalid("missing policy".into()))?,
            capacity: capacity.ok_or_else(|| invalid("missing capacity".into()))?,
        })
    }

    /// The user schema recorded in the manifest.
    pub fn user_schema(&self) -> Schema {
        Schema::new(self.columns.clone())
    }
}

/// The root store: creates per-basket [`BasketStore`]s and owns the shared
/// counters.
#[derive(Debug)]
pub struct SegmentStore {
    root: PathBuf,
    metrics: Arc<StorageMetrics>,
}

impl SegmentStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<SegmentStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(SegmentStore {
            root,
            metrics: Arc::new(StorageMetrics::default()),
        })
    }

    /// The root data directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The shared counters.
    pub fn metrics(&self) -> &Arc<StorageMetrics> {
        &self.metrics
    }

    /// Counter snapshot.
    pub fn metrics_snapshot(&self) -> StorageMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Open (creating if needed) the per-basket store for `name`.
    pub fn basket(&self, name: &str) -> Result<BasketStore> {
        if name.is_empty() || name.starts_with('.') || name.contains(['/', '\\', '\0']) {
            return Err(StorageError::Invalid(format!(
                "basket name {name:?} is not usable as a directory name"
            )));
        }
        let dir = self.root.join(name);
        fs::create_dir_all(&dir)?;
        Ok(BasketStore {
            name: name.to_string(),
            dir,
            metrics: Arc::clone(&self.metrics),
            seal_delay_micros: Arc::new(AtomicU64::new(0)),
            read_delay_micros: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Names of every basket directory under the root that carries a
    /// manifest — the recovery scan's starting point. Sorted for
    /// deterministic recovery order.
    pub fn basket_names(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if entry.path().join(MANIFEST_FILE).exists() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

/// One basket's slice of the store (see module docs).
#[derive(Debug, Clone)]
pub struct BasketStore {
    name: String,
    dir: PathBuf,
    metrics: Arc<StorageMetrics>,
    /// Artificial delay injected before every [`BasketStore::seal_segment`]
    /// write, in microseconds. Zero (the default) is free; tests use it to
    /// simulate a slow disk and pin down what a stalled seal may and may
    /// not block. Shared across clones, like the metrics.
    seal_delay_micros: Arc<AtomicU64>,
    /// Artificial delay injected before every [`BasketStore::read_segment`]
    /// decode, in microseconds — the read-side twin of `seal_delay_micros`.
    /// Tests use it to prove segment decodes do not stall concurrent
    /// basket work. Shared across clones, like the metrics.
    read_delay_micros: Arc<AtomicU64>,
}

impl BasketStore {
    /// Basket name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The basket's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shared counters.
    pub fn metrics(&self) -> &Arc<StorageMetrics> {
        &self.metrics
    }

    /// Write the manifest atomically (temp file + rename + dir fsync).
    pub fn write_manifest(&self, manifest: &BasketManifest) -> Result<()> {
        let tmp = self.dir.join(format!("{MANIFEST_FILE}.tmp"));
        let path = self.dir.join(MANIFEST_FILE);
        {
            use std::io::Write;
            let mut f = fs::File::create(&tmp)?;
            f.write_all(manifest.render().as_bytes())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &path)?;
        segment::sync_dir(&self.dir)?;
        Ok(())
    }

    /// Read the manifest back (`None` when absent).
    pub fn read_manifest(&self) -> Result<Option<BasketManifest>> {
        match fs::read_to_string(self.dir.join(MANIFEST_FILE)) {
            Ok(text) => BasketManifest::parse(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Inject an artificial delay before every subsequent
    /// [`BasketStore::seal_segment`] write on this store and its clones —
    /// a slow-disk simulation for tests.
    pub fn set_seal_delay(&self, delay: std::time::Duration) {
        self.seal_delay_micros
            .store(delay.as_micros() as u64, Ordering::Relaxed);
    }

    /// Inject an artificial delay before every subsequent
    /// [`BasketStore::read_segment`] decode on this store and its clones —
    /// a slow-disk simulation for tests.
    pub fn set_read_delay(&self, delay: std::time::Duration) {
        self.read_delay_micros
            .store(delay.as_micros() as u64, Ordering::Relaxed);
    }

    /// Seal `chunk` (full basket width including `ts`) as the segment
    /// starting at `base_oid`.
    pub fn seal_segment(&self, base_oid: u64, chunk: &Chunk) -> Result<SegmentMeta> {
        let delay = self.seal_delay_micros.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(std::time::Duration::from_micros(delay));
        }
        let meta = segment::write_segment(&self.dir, base_oid, chunk)?;
        self.metrics
            .tuples_spilled
            .fetch_add(meta.rows, Ordering::Relaxed);
        self.metrics
            .segments_written
            .fetch_add(1, Ordering::Relaxed);
        self.metrics
            .bytes_on_disk
            .fetch_add(meta.bytes, Ordering::Relaxed);
        Ok(meta)
    }

    /// Decode a sealed segment back into a chunk.
    pub fn read_segment(&self, meta: &SegmentMeta, schema: &Schema) -> Result<Chunk> {
        let delay = self.read_delay_micros.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(std::time::Duration::from_micros(delay));
        }
        let (chunk, base) = segment::read_segment(&meta.path, schema)?;
        if base != meta.base_oid || chunk.len() as u64 != meta.rows {
            return Err(StorageError::Corrupt(format!(
                "{}: segment shape changed on disk",
                meta.path.display()
            )));
        }
        self.metrics.segments_read.fetch_add(1, Ordering::Relaxed);
        Ok(chunk)
    }

    /// Replace a segment's contents with `chunk` (the surviving rows after a
    /// partial exclusive consume), sealed at `base_oid`. At the old base the
    /// new image is written to a temp file and renamed over the old one; at
    /// a later base (the consume took rows off the segment, which advance
    /// its first oid as they advance a basket's) it lands in a file of its
    /// own and the old file is deleted — on failure the old segment stays
    /// and the new file goes. `tuples_spilled` is untouched — no new rows
    /// were spilled — while `bytes_on_disk` moves by the size delta.
    pub fn replace_segment(
        &self,
        old: &SegmentMeta,
        base_oid: u64,
        chunk: &Chunk,
    ) -> Result<SegmentMeta> {
        let meta = segment::write_segment(&self.dir, base_oid, chunk)?;
        if meta.path != old.path {
            if let Err(e) = segment::delete_segment(&old.path) {
                let _ = segment::delete_segment(&meta.path);
                return Err(e);
            }
        }
        self.metrics
            .segments_written
            .fetch_add(1, Ordering::Relaxed);
        self.metrics
            .bytes_on_disk
            .fetch_add(meta.bytes, Ordering::Relaxed);
        let _ =
            self.metrics
                .bytes_on_disk
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                    Some(b.saturating_sub(old.bytes))
                });
        Ok(meta)
    }

    /// Delete a fully-consumed segment file.
    pub fn delete_segment(&self, meta: &SegmentMeta) -> Result<()> {
        segment::delete_segment(&meta.path)?;
        self.metrics
            .segments_deleted
            .fetch_add(1, Ordering::Relaxed);
        let _ =
            self.metrics
                .bytes_on_disk
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                    Some(b.saturating_sub(meta.bytes))
                });
        Ok(())
    }

    /// List the sealed segments in this directory, sorted by base oid,
    /// validating each header. Stray `.tmp` files (a crash between write
    /// and rename) are removed.
    pub fn list_segments(&self) -> Result<Vec<SegmentMeta>> {
        let mut metas = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let file_name = entry.file_name();
            let Some(name) = file_name.to_str() else {
                continue;
            };
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if segment::parse_segment_file_name(name).is_some() {
                metas.push(segment::read_segment_meta(&entry.path())?);
            }
        }
        metas.sort_by_key(|m| m.base_oid);
        Ok(metas)
    }

    /// Open the basket's write-ahead log.
    pub fn open_wal(&self) -> Result<Wal> {
        Wal::open_counted(&self.dir.join(WAL_FILE), Arc::clone(&self.metrics))
    }

    /// Delete every segment file (counted) and the WAL — used when a
    /// basket is dropped, cleared of stale spill state on recovery, or
    /// compacted.
    pub fn remove_data_files(&self) -> Result<()> {
        for meta in self.list_segments()? {
            self.delete_segment(&meta)?;
        }
        match fs::remove_file(self.dir.join(WAL_FILE)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    /// Delete the whole basket directory (manifest included).
    pub fn remove_dir(&self) -> Result<()> {
        match fs::remove_dir_all(&self.dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use datacell_bat::column::Column;

    fn schema() -> Schema {
        Schema::new(vec![("x".into(), DataType::Int)])
    }

    fn chunk(vals: &[i64]) -> Chunk {
        Chunk::new(schema(), vec![Column::from_ints(vals.to_vec())]).unwrap()
    }

    #[test]
    fn manifest_roundtrip() {
        let m = BasketManifest {
            name: "b1".into(),
            columns: vec![
                ("x".into(), DataType::Int),
                ("weird:name".into(), DataType::Str),
            ],
            persistent: true,
            policy: "spill:1000".into(),
            capacity: Some(5000),
        };
        let back = BasketManifest::parse(&m.render()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.user_schema().len(), 2);
        assert!(BasketManifest::parse("garbage").is_err());
    }

    #[test]
    fn store_lifecycle_and_metrics() {
        let dir = TempDir::new("store-lifecycle");
        let store = SegmentStore::open(dir.path()).unwrap();
        assert!(store.basket("../evil").is_err());
        let b = store.basket("b1").unwrap();
        b.write_manifest(&BasketManifest {
            name: "b1".into(),
            columns: vec![("x".into(), DataType::Int)],
            persistent: false,
            policy: "spill:10".into(),
            capacity: None,
        })
        .unwrap();
        assert_eq!(store.basket_names().unwrap(), vec!["b1".to_string()]);
        let m1 = b.seal_segment(0, &chunk(&[1, 2, 3])).unwrap();
        let m2 = b.seal_segment(3, &chunk(&[4, 5])).unwrap();
        let listed = b.list_segments().unwrap();
        assert_eq!(listed, vec![m1.clone(), m2.clone()]);
        let c = b.read_segment(&m1, &schema()).unwrap();
        assert_eq!(c.columns[0].as_ints().unwrap(), &[1, 2, 3]);
        b.delete_segment(&m1).unwrap();
        assert_eq!(b.list_segments().unwrap(), vec![m2.clone()]);
        let snap = store.metrics_snapshot();
        assert_eq!(snap.tuples_spilled, 5);
        assert_eq!(snap.segments_written, 2);
        assert_eq!(snap.segments_read, 1);
        assert_eq!(snap.segments_deleted, 1);
        assert_eq!(snap.bytes_on_disk, m2.bytes);
        b.remove_data_files().unwrap();
        assert_eq!(store.metrics_snapshot().bytes_on_disk, 0);
        b.remove_dir().unwrap();
        assert!(store.basket_names().unwrap().is_empty());
    }
}
